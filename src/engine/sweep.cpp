#include "engine/sweep.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "adversary/spec.hpp"
#include "common/check.hpp"
#include "common/parse.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

namespace ambb::engine {

namespace {

std::vector<std::uint32_t> fs_for(const SweepSpec& spec,
                                  const ProtocolInfo& info,
                                  std::uint32_t n) {
  if (spec.f_max) return {info.max_f(n)};
  if (spec.f_frac_den != 0) {
    // Exact integer arithmetic: floor(num * n / den). num and den are
    // parser-capped (den <= 1e9), so num * n fits in 64 bits for any
    // 32-bit n.
    return {static_cast<std::uint32_t>(spec.f_frac_num * n /
                                       spec.f_frac_den)};
  }
  if (!spec.fs.empty()) return spec.fs;
  // No fault-load key at all: a third of the nodes, the conventional
  // "some faults, every family tolerates it" default.
  return {n / 3};
}

std::vector<Slot> slots_for(const SweepSpec& spec, std::uint32_t n) {
  if (spec.slots_per_n != 0) return {spec.slots_per_n * n};
  if (!spec.slots_list.empty()) return spec.slots_list;
  return {Slot{8}};
}

/// Parse a "sched:..." / "fuzz[:k]" adversary (named strategies need no
/// parse), so a malformed literal fails before any job runs.
void parse_schedule_literal(const std::string& adv) {
  if (adversary::is_fuzz_spec(adv)) {
    adversary::fuzz_profile(adv);
  } else if (adversary::is_schedule_spec(adv)) {
    adversary::parse_schedule_spec(adv);
  }
}

}  // namespace

std::vector<SweepJob> expand(const SweepSpec& spec) {
  const ProtocolInfo& info = protocol(spec.protocol);  // validates the name
  AMBB_CHECK_MSG(!spec.ns.empty(), "sweep '" << spec.name << "': empty n list");
  AMBB_CHECK_MSG(!spec.adversaries.empty(),
                 "sweep '" << spec.name << "': empty adversary list");
  AMBB_CHECK_MSG(spec.seed_begin <= spec.seed_end,
                 "sweep '" << spec.name << "': seed range is backwards");
  AMBB_CHECK_MSG(spec.repetitions >= 1,
                 "sweep '" << spec.name << "': reps must be >= 1");
  for (const auto& adv : spec.adversaries) {
    AMBB_CHECK_MSG(accepts_adversary(info, adv),
                   "sweep '" << spec.name << "': protocol '" << spec.protocol
                             << "' does not accept adversary '" << adv << "'");
    parse_schedule_literal(adv);
  }
  // An empty net list is the off-axis sentinel {"lockstep"}; every entry
  // must parse so a typo fails at expansion, not mid-sweep.
  const std::vector<std::string> nets =
      spec.nets.empty() ? std::vector<std::string>{"lockstep"} : spec.nets;
  for (const auto& net : nets) parse_net_policy(net);

  const std::string prefix = spec.name.empty() ? spec.protocol : spec.name;
  const bool many_seeds = spec.seed_begin != spec.seed_end;

  std::vector<SweepJob> out;
  for (std::uint32_t n : spec.ns) {
    const auto fs = fs_for(spec, info, n);
    const auto slots = slots_for(spec, n);
    for (std::uint32_t f : fs) {
      AMBB_CHECK_MSG(f < n, "sweep '" << spec.name << "': f=" << f
                                      << " >= n=" << n);
      for (Slot L : slots) {
        // An empty payload list is the off-axis sentinel {0}.
        const std::vector<std::uint64_t> payloads =
            spec.payloads.empty() ? std::vector<std::uint64_t>{0}
                                  : spec.payloads;
        for (std::uint64_t payload : payloads) {
          const bool is_ext = spec.protocol.rfind("ext:", 0) == 0;
          if (payload != 0 && !is_ext) {
            AMBB_CHECK_MSG(payload <= kMaxInlinePayloadBytes,
                           "sweep '" << spec.name << "': payload " << payload
                                     << " bytes overflows value-bits for a "
                                        "non-ext protocol");
          }
          for (const auto& net : nets) {
            for (const auto& adv : spec.adversaries) {
              // Ends on seed == seed_end, not seed > seed_end: the
              // latter never holds when seed_end is 2^64-1.
              for (std::uint64_t seed = spec.seed_begin;; ++seed) {
                for (std::uint32_t rep = 0; rep < spec.repetitions; ++rep) {
                  SweepJob sj;
                  sj.protocol = spec.protocol;
                  sj.params.n = n;
                  sj.params.f = f;
                  sj.params.slots = L;
                  sj.params.seed = seed;
                  sj.params.adversary = adv;
                  sj.params.eps = spec.eps;
                  sj.params.kappa_bits = spec.kappa_bits;
                  sj.params.value_bits = spec.value_bits;
                  sj.params.payload_bytes = payload;
                  sj.params.net = net;
                  // A raw (non-ext) row carries the payload inline: the
                  // value width IS the payload width (registry.hpp).
                  if (payload != 0 && !is_ext) {
                    sj.params.value_bits =
                        static_cast<std::uint32_t>(8 * payload);
                  }

                  std::ostringstream label;
                  label << prefix << "/" << adv << "/n" << n;
                  // Keep labels short: only dimensions the spec actually
                  // sweeps (or sets off-default) appear after n.
                  if (fs.size() > 1) label << "/f" << f;
                  if (slots.size() > 1) label << "/L" << L;
                  if (payloads.size() > 1) label << "/p" << payload;
                  if (nets.size() > 1 || net != "lockstep") label << "/" << net;
                  if (many_seeds) label << "/s" << seed;
                  if (spec.repetitions > 1) label << "/r" << (rep + 1);
                  sj.label = label.str();
                  out.push_back(std::move(sj));
                }
                if (seed == spec.seed_end) break;
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<SweepJob> expand_all(const std::vector<SweepSpec>& specs) {
  std::vector<SweepJob> out;
  for (const auto& s : specs) {
    auto jobs = expand(s);
    out.insert(out.end(), std::make_move_iterator(jobs.begin()),
               std::make_move_iterator(jobs.end()));
  }
  return out;
}

std::vector<SweepJob> filter_jobs(std::vector<SweepJob> jobs,
                                  const std::string& needle) {
  if (needle.empty()) return jobs;
  std::vector<SweepJob> out;
  for (auto& j : jobs) {
    if (j.label.find(needle) != std::string::npos) out.push_back(std::move(j));
  }
  return out;
}

Job to_engine_job(const SweepJob& sj, std::string trace_file) {
  const ProtocolInfo& info = protocol(sj.protocol);
  // The oracle rule (header comment): relax only where a delivery can
  // actually be delayed, so bounded:0 stays as strict as lockstep.
  const bool timed = parse_net_policy(sj.params.net).max_extra() > 0;
  Job job;
  job.label = sj.label;
  job.allow_stall = may_stall(info, sj.params.adversary) || timed;
  job.allow_invalid = timed;
  job.allow_split = timed && info.consistency_needs_sync;
  // The closure copies the params and takes the registry entry by
  // reference (the registry is an immutable magic static); each
  // invocation builds a fresh Simulation/ledger/RNG inside the driver.
  CommonParams params = sj.params;
  if (trace_file.empty()) {
    job.run = [&info, params] { return info.run(params); };
  } else {
    job.run = [&info, params, path = std::move(trace_file)] {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      AMBB_CHECK_MSG(os, "cannot open trace file " << path);
      trace::JsonlSink sink(os);
      return info.run(RunRequest{params, &sink});
    };
  }
  return job;
}

std::string trace_path(const std::string& dir, std::size_t index,
                       const std::string& label) {
  std::string name = label;
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '-';
  }
  std::ostringstream os;
  os << dir << '/' << std::setw(4) << std::setfill('0') << index << '_'
     << name << ".jsonl";
  return os.str();
}

std::vector<Job> to_engine_jobs(const std::vector<SweepJob>& sjs,
                                const std::string& trace_dir) {
  std::vector<Job> out;
  out.reserve(sjs.size());
  for (std::size_t i = 0; i < sjs.size(); ++i) {
    out.push_back(to_engine_job(
        sjs[i], trace_dir.empty() ? std::string()
                                  : trace_path(trace_dir, i, sjs[i].label)));
  }
  return out;
}

namespace {

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) {
    if (t[0] == '#') break;  // trailing comment
    toks.push_back(t);
  }
  return toks;
}

template <class T>
T parse_num(const std::string& tok, int lineno) {
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  const auto v = parse_uint<T>(tok);
  AMBB_CHECK_MSG(v.has_value(),
                 "spec line " << lineno << ": bad number '" << tok
                              << "' (digits only, at most " << kMax << ")");
  return *v;
}

/// Run a parse that throws CheckError and prefix its message with the
/// spec line, so a bad literal names the line it was written on.
template <class Fn>
void on_line(int lineno, Fn&& parse) {
  try {
    parse();
  } catch (const CheckError& e) {
    throw CheckError("spec line " + std::to_string(lineno) + ": " + e.what());
  }
}

/// "f-frac" accepts a rational "p/q" or a decimal literal ("0.3" = 3/10),
/// both parsed into an exact numerator/denominator. At most 9 fractional
/// digits so num * n cannot overflow 64 bits.
void parse_f_frac(const std::string& tok, int lineno, SweepSpec* cur) {
  const auto slash = tok.find('/');
  if (slash != std::string::npos) {
    cur->f_frac_num =
        parse_num<std::uint64_t>(tok.substr(0, slash), lineno);
    cur->f_frac_den = parse_num<std::uint64_t>(tok.substr(slash + 1), lineno);
    AMBB_CHECK_MSG(cur->f_frac_den != 0,
                   "spec line " << lineno << ": zero denominator in '" << tok
                                << "'");
    AMBB_CHECK_MSG(cur->f_frac_den <= 1000000000ULL &&
                       cur->f_frac_num <= cur->f_frac_den,
                   "spec line " << lineno << ": f-frac '" << tok
                                << "' must be a fraction <= 1 with "
                                   "denominator <= 1e9");
    return;
  }
  std::uint64_t num = 0;
  std::uint64_t den = 1;
  bool seen_dot = false;
  bool seen_digit = false;
  for (char c : tok) {
    if (c == '.') {
      AMBB_CHECK_MSG(!seen_dot, "spec line " << lineno << ": bad f-frac '"
                                             << tok << "'");
      seen_dot = true;
      continue;
    }
    AMBB_CHECK_MSG(c >= '0' && c <= '9',
                   "spec line " << lineno << ": bad f-frac '" << tok << "'");
    seen_digit = true;
    num = num * 10 + static_cast<std::uint64_t>(c - '0');
    if (seen_dot) den *= 10;
    AMBB_CHECK_MSG(den <= 1000000000ULL,
                   "spec line " << lineno << ": f-frac '" << tok
                                << "' has more than 9 fractional digits");
  }
  AMBB_CHECK_MSG(seen_digit && num <= den,
                 "spec line " << lineno << ": f-frac '" << tok
                              << "' must be a fraction in [0, 1]");
  cur->f_frac_num = num;
  cur->f_frac_den = den;
}

}  // namespace

std::vector<SweepSpec> parse_spec(const std::string& text,
                                  const std::vector<std::string>& reports,
                                  std::string* report) {
  std::vector<SweepSpec> specs;
  std::vector<int> spec_lines;  // line of each block's 'sweep' key
  SweepSpec* cur = nullptr;
  std::string report_name;

  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto toks = tokens_of(line);
    if (toks.empty()) continue;
    const std::string& key = toks[0];
    const std::size_t nargs = toks.size() - 1;

    if (key == "report") {
      AMBB_CHECK_MSG(nargs == 1 && cur == nullptr && report_name.empty(),
                     "spec line " << lineno
                                  << ": one 'report NAME' line goes before "
                                     "the first 'sweep' block");
      AMBB_CHECK_MSG(
          std::find(reports.begin(), reports.end(), toks[1]) != reports.end(),
          "spec line " << lineno << ": unknown report '" << toks[1] << "'");
      report_name = toks[1];
      continue;
    }
    if (key == "sweep") {
      AMBB_CHECK_MSG(nargs == 1, "spec line " << lineno
                                              << ": 'sweep' needs one name");
      specs.emplace_back();
      spec_lines.push_back(lineno);
      cur = &specs.back();
      cur->name = toks[1];
      continue;
    }
    AMBB_CHECK_MSG(cur != nullptr, "spec line "
                                       << lineno
                                       << ": key before any 'sweep' block");
    AMBB_CHECK_MSG(nargs >= 1, "spec line " << lineno << ": '" << key
                                            << "' needs a value");

    if (key == "protocol") {
      cur->protocol = toks[1];
    } else if (key == "n") {
      cur->ns.clear();
      for (std::size_t i = 1; i < toks.size(); ++i) {
        cur->ns.push_back(parse_num<std::uint32_t>(toks[i], lineno));
      }
    } else if (key == "f") {
      if (toks[1] == "max") {
        cur->f_max = true;
      } else {
        cur->fs.clear();
        for (std::size_t i = 1; i < toks.size(); ++i) {
          cur->fs.push_back(parse_num<std::uint32_t>(toks[i], lineno));
        }
      }
    } else if (key == "f-frac") {
      parse_f_frac(toks[1], lineno, cur);
    } else if (key == "slots") {
      cur->slots_list.clear();
      for (std::size_t i = 1; i < toks.size(); ++i) {
        cur->slots_list.push_back(parse_num<Slot>(toks[i], lineno));
      }
    } else if (key == "slots-per-n") {
      cur->slots_per_n = parse_num<std::uint32_t>(toks[1], lineno);
    } else if (key == "adversary") {
      cur->adversaries.assign(toks.begin() + 1, toks.end());
      on_line(lineno, [&] {
        for (const auto& adv : cur->adversaries) parse_schedule_literal(adv);
      });
    } else if (key == "seeds") {
      AMBB_CHECK_MSG(nargs == 2,
                     "spec line " << lineno << ": 'seeds' needs begin end");
      cur->seed_begin = parse_num<std::uint64_t>(toks[1], lineno);
      cur->seed_end = parse_num<std::uint64_t>(toks[2], lineno);
    } else if (key == "reps") {
      cur->repetitions = parse_num<std::uint32_t>(toks[1], lineno);
    } else if (key == "eps") {
      const auto eps = parse_eps(toks[1]);
      AMBB_CHECK_MSG(eps.has_value(), "spec line " << lineno << ": eps '"
                                                   << toks[1]
                                                   << "' is not in (0, 0.5)");
      cur->eps = *eps;
    } else if (key == "kappa") {
      cur->kappa_bits = parse_num<std::uint32_t>(toks[1], lineno);
    } else if (key == "value-bits") {
      cur->value_bits = parse_num<std::uint32_t>(toks[1], lineno);
    } else if (key == "payload") {
      cur->payloads.clear();
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const auto p = parse_num<std::uint64_t>(toks[i], lineno);
        AMBB_CHECK_MSG(p >= 1, "spec line " << lineno
                                            << ": payload must be >= 1 byte");
        cur->payloads.push_back(p);
      }
    } else if (key == "net") {
      cur->nets.assign(toks.begin() + 1, toks.end());
      on_line(lineno, [&] {
        for (const auto& net : cur->nets) parse_net_policy(net);
      });
    } else {
      AMBB_CHECK_MSG(false,
                     "spec line " << lineno << ": unknown key '" << key << "'");
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    AMBB_CHECK_MSG(!specs[i].protocol.empty(),
                   "spec line " << spec_lines[i] << ": sweep '"
                                << specs[i].name
                                << "' has no 'protocol' key");
  }
  if (report != nullptr) *report = report_name;
  return specs;
}

}  // namespace ambb::engine
