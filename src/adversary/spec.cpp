#include "adversary/spec.hpp"

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"

namespace ambb::adversary {

namespace {

constexpr char kSchedPrefix[] = "sched:";
constexpr char kFuzzName[] = "fuzz";

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// One "name(a,b,...)" call, args kept as raw tokens ("*" allowed).
struct Op {
  std::string name;
  std::vector<std::string> args;
};

std::vector<Op> split_ops(const std::string& body) {
  std::vector<Op> ops;
  std::size_t i = 0;
  while (i < body.size()) {
    const std::size_t open = body.find('(', i);
    AMBB_CHECK_MSG(open != std::string::npos && open > i,
                   "sched spec: expected op(...) at '" << body.substr(i)
                                                       << "'");
    const std::size_t close = body.find(')', open);
    AMBB_CHECK_MSG(close != std::string::npos,
                   "sched spec: missing ')' after '" << body.substr(i) << "'");
    Op op;
    op.name = body.substr(i, open - i);
    std::size_t a = open + 1;
    while (a <= close) {
      std::size_t comma = body.find(',', a);
      if (comma == std::string::npos || comma > close) comma = close;
      AMBB_CHECK_MSG(comma > a, "sched spec: empty argument in op '"
                                    << op.name << "'");
      op.args.push_back(body.substr(a, comma - a));
      a = comma + 1;
    }
    ops.push_back(std::move(op));
    i = close + 1;
    if (i < body.size()) {
      AMBB_CHECK_MSG(body[i] == ';',
                     "sched spec: expected ';' between ops, got '"
                         << body.substr(i) << "'");
      ++i;
      AMBB_CHECK_MSG(i < body.size(), "sched spec: trailing ';'");
    }
  }
  AMBB_CHECK_MSG(!ops.empty(), "sched spec: no ops");
  return ops;
}

/// Argument `idx` as a T, range-checked against T: a node id past 2^32-1
/// is an error, not a wrap to a small id.
template <class T>
T parse_num(const Op& op, std::size_t idx) {
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  const std::string& t = op.args[idx];
  const auto v = parse_uint<T>(t);
  AMBB_CHECK_MSG(v.has_value(),
                 "sched spec: bad number '" << t << "' in op '" << op.name
                                            << "' (digits only, at most "
                                            << kMax << ")");
  return *v;
}

/// Round argument that may be "*" (= end of run).
Round parse_round_or_star(const Op& op, std::size_t idx) {
  if (op.args[idx] == "*") return kRoundMax;
  return parse_num<Round>(op, idx);
}

void need_args(const Op& op, std::size_t lo, std::size_t hi) {
  AMBB_CHECK_MSG(op.args.size() >= lo && op.args.size() <= hi,
                 "sched spec: op '" << op.name << "' takes " << lo
                                    << (lo == hi ? "" : "..") << " args, got "
                                    << op.args.size());
}

ActorFault window_fault(FaultKind kind, const Op& op) {
  ActorFault a;
  a.kind = kind;
  a.node = parse_num<NodeId>(op, 0);
  a.from = parse_num<Round>(op, 1);
  a.to = parse_round_or_star(op, 2);
  return a;
}

}  // namespace

bool is_schedule_spec(const std::string& spec) {
  return starts_with(spec, kSchedPrefix) || is_fuzz_spec(spec);
}

bool is_fuzz_spec(const std::string& spec) {
  return spec == kFuzzName || starts_with(spec, "fuzz:");
}

std::uint64_t fuzz_profile(const std::string& spec) {
  AMBB_CHECK_MSG(is_fuzz_spec(spec), "not a fuzz spec: '" << spec << "'");
  if (spec == kFuzzName) return 0;
  Op op;
  op.name = "fuzz";
  op.args.push_back(spec.substr(5));
  return parse_num<std::uint64_t>(op, 0);
}

FaultSchedule parse_schedule_spec(const std::string& spec) {
  AMBB_CHECK_MSG(starts_with(spec, kSchedPrefix),
                 "not a sched spec: '" << spec << "'");
  FaultSchedule s;
  for (const Op& op : split_ops(spec.substr(sizeof(kSchedPrefix) - 1))) {
    if (op.name == "corrupt") {
      need_args(op, 2, std::numeric_limits<std::size_t>::max());
      const Round from = parse_num<Round>(op, 0);
      for (std::size_t i = 1; i < op.args.size(); ++i) {
        s.corruptions.push_back(CorruptEvent{from, parse_num<NodeId>(op, i)});
      }
    } else if (op.name == "erase") {
      need_args(op, 2, 5);
      AMBB_CHECK_MSG(op.args.size() != 4,
                     "sched spec: erase takes (r,v), (r,v,d) or "
                     "(r,v,d,mod,rem)");
      EraseEvent e;
      e.round = parse_num<Round>(op, 0);
      e.sender = parse_num<NodeId>(op, 1);
      if (op.args.size() >= 3) {
        e.density_permille = parse_num<std::uint32_t>(op, 2);
      }
      if (op.args.size() == 5) {
        e.to_mod = parse_num<std::uint32_t>(op, 3);
        e.to_rem = parse_num<std::uint32_t>(op, 4);
      }
      s.erasures.push_back(e);
    } else if (op.name == "silence") {
      need_args(op, 3, 3);
      s.actor_faults.push_back(window_fault(FaultKind::kSilence, op));
    } else if (op.name == "shuffle") {
      need_args(op, 3, 3);
      s.actor_faults.push_back(window_fault(FaultKind::kShuffle, op));
    } else if (op.name == "stagger") {
      need_args(op, 4, 4);
      ActorFault a = window_fault(FaultKind::kStagger, op);
      a.delay = parse_num<std::uint32_t>(op, 3);
      s.actor_faults.push_back(a);
    } else if (op.name == "selective") {
      need_args(op, 4, std::numeric_limits<std::size_t>::max());
      ActorFault a = window_fault(FaultKind::kSelective, op);
      for (std::size_t i = 3; i < op.args.size(); ++i) {
        a.keep.push_back(parse_num<NodeId>(op, i));
      }
      s.actor_faults.push_back(a);
    } else if (op.name == "delay") {
      need_args(op, 4, 4);
      NetFault t;
      t.kind = NetFaultKind::kDelay;
      t.sender = parse_num<NodeId>(op, 0);
      t.from = parse_num<Round>(op, 1);
      t.to = parse_round_or_star(op, 2);
      t.extra = parse_num<std::uint32_t>(op, 3);
      s.net_faults.push_back(t);
    } else if (op.name == "reorder") {
      need_args(op, 3, 3);
      NetFault t;
      t.kind = NetFaultKind::kReorder;
      t.sender = parse_num<NodeId>(op, 0);
      t.from = parse_num<Round>(op, 1);
      t.to = parse_round_or_star(op, 2);
      s.net_faults.push_back(t);
    } else {
      AMBB_CHECK_MSG(false, "sched spec: unknown op '" << op.name << "'");
    }
  }
  return s;
}

}  // namespace ambb::adversary
