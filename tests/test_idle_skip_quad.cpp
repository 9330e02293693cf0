// Differential test of idle-round elision (DESIGN.md §17) for Algorithm
// 5.2, the quadratic family.
//
// Every configuration below runs twice through the public
// quadratic_bb.hpp API: once as shipped (QuadNode, the Silent deviation
// and the ScheduledAdversary declare next_wake, so the simulator skips
// quiescent actors and rounds), and once with every actor and the
// adversary wrapped in the always-awake reference of always_awake.hpp,
// which also audits the wake contract. The two runs must agree on every
// measured bit: ledger totals, per-slot and per-kind bits, commit logs,
// corrupt flags, every RoundStats counter (ns_* excepted), the JSONL
// trace byte for byte, and the traffic arenas' reserved bytes. The
// unwrapped copy must also match the "quadratic" registry row.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "bb/quadratic_bb.hpp"
#include "crypto/signer.hpp"
#include "runner/drive.hpp"
#include "runner/registry.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

#include "always_awake.hpp"

namespace ambb::quad {
namespace {

using idle_skip::Audit;
using idle_skip::expect_same;
using idle_skip::Outcome;
using AlwaysAwake = idle_skip::AlwaysAwake<Msg>;
using AlwaysAwakeAdversary = idle_skip::AlwaysAwakeAdversary<Msg>;

struct Params {
  std::uint32_t n = 12;
  std::uint32_t f = 7;
  /// 14 slots: every node sends once, and the first two (corrupt under
  /// the named adversaries) send again after they were proven corrupt.
  Slot slots = 14;
  std::string adversary;
  std::string net = "lockstep";
  std::uint64_t seed = 1;
};

/// The registry parameters of `p`.
CommonParams common(const Params& p) {
  CommonParams c;
  c.n = p.n;
  c.f = p.f;
  c.slots = p.slots;
  c.seed = p.seed;
  c.adversary = p.adversary;
  c.net = p.net;
  return c;
}

/// run_quadratic's setup and round loop, with an optional AlwaysAwake
/// wrapping of every actor and of the adversary (`audit` != nullptr).
Outcome run(const Params& p, Audit* audit) {
  KeyRegistry registry(p.n, p.seed);
  std::ostringstream jsonl;
  trace::JsonlSink sink(jsonl);
  RunConfig core;
  core.n = p.n;
  core.f = p.f;
  core.slots = p.slots;
  core.seed = p.seed;
  core.adversary = p.adversary;
  core.net = p.net;
  core.trace = &sink;
  RunState st(core, kind_names());

  Context ctx;
  ctx.n = p.n;
  ctx.f = p.f;
  ctx.wire = WireModel{p.n, kDefaultKappaBits, kDefaultValueBits};
  ctx.sched = Schedule{p.n, p.f};
  ctx.registry = &registry;
  ctx.commits = &st.commits;
  ctx.input_for_slot = st.input_for_slot;
  ctx.sender_of = st.sender_of;
  ctx.trace = &sink;

  Sim sim(p.n, p.f, &st.ledger, CostPolicy{ctx.wire, ctx.sched});
  for (NodeId v = 0; v < p.n; ++v) {
    std::unique_ptr<Actor<Msg>> a = std::make_unique<QuadNode>(v, &ctx);
    if (audit != nullptr) {
      a = std::make_unique<AlwaysAwake>(v, std::move(a), audit);
    }
    sim.set_actor(v, std::move(a));
  }
  const std::uint64_t total_rounds =
      std::uint64_t{p.slots} * ctx.sched.rounds_per_slot();
  sim.reserve_rounds(total_rounds);
  const NetPolicy net = make_net_policy(p.net, p.seed);
  std::unique_ptr<Adversary<Msg>> adversary = select_adversary<Msg>(
      core, kAdversarySalt, total_rounds, net,
      [&ctx](NodeId v) {
        return std::make_unique<QuadNode>(v, &ctx,
                                          std::make_unique<Deviation>());
      },
      [&ctx](const std::string& spec, std::uint64_t seed) {
        return make_quad_adversary(spec, &ctx, seed);
      });
  if (audit != nullptr && adversary != nullptr) {
    adversary =
        std::make_unique<AlwaysAwakeAdversary>(std::move(adversary), audit);
  }
  SimConfig<Msg> sc;
  sc.trace = &sink;
  sc.net = net;
  sc.adversary = adversary.get();
  sim.configure(sc);

  for (std::uint64_t i = 0; i < total_rounds; ++i) {
    const std::uint32_t off = ctx.sched.offset_of(i);
    trace::Event ev;
    ev.round = i;
    ev.slot = ctx.sched.slot_of(i);
    if (off == 0) {
      ev.kind = trace::EventKind::kSlotStart;
      ev.node = ctx.sender_of(ev.slot);
      sink.on_event(ev);
      ev.kind = trace::EventKind::kEpochPhase;
      ev.detail = "propose";
      sink.on_event(ev);
    } else if (off == 1 || off == p.n + 1) {
      ev.kind = trace::EventKind::kEpochPhase;
      ev.detail = off == 1 ? "trustcast" : "dolev-strong";
      sink.on_event(ev);
    }
    sim.step();
  }

  Outcome o;
  o.honest_bits = st.ledger.honest_bits_total();
  o.adversary_bits = st.ledger.adversary_bits_total();
  o.per_slot = st.ledger.per_slot();
  o.per_kind = st.ledger.per_kind();
  o.commits = idle_skip::commit_rows(st.commits, p.n, p.slots);
  for (NodeId v = 0; v < p.n; ++v) o.corrupt.push_back(sim.is_corrupt(v));
  o.rounds = sim.round_stats();
  o.jsonl = jsonl.str();
  o.arena_bytes = sim.traffic_arena_reserved_bytes();
  return o;
}

/// A schedule that wakes the sleeping adversary mid-stretch (a slot is
/// 22 rounds at n=12 f=7): node 8 is corrupted at the end of round 9 and
/// its round-10 traffic erased, both inside slot 1's quiet stretch after
/// every node holds the proposal; node 1, the slot-2 sender, is corrupted
/// right after its round-22 proposal, whose copies to odd nodes are
/// erased, so they accuse it and the Dolev-Strong phase runs. Off
/// lockstep, timing faults ride along: node 3's slot-4 proposal arrives
/// a round late.
std::string sched_spec(const std::string& net) {
  std::string s = "sched:corrupt(10,8);erase(10,8);corrupt(23,1);"
                  "erase(22,1,1000,2,1)";
  if (net != "lockstep") s += ";delay(3,60,130,1);reorder(5,0,*)";
  return s;
}

class IdleSkipQuad
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(IdleSkipQuad, ElisionMatchesAlwaysAwakeReference) {
  const auto& [adv, net] = GetParam();
  Audit audit;
  for (std::uint64_t seed : {1u, 2u}) {
    Params p;
    p.adversary = adv == "sched" ? sched_spec(net) : adv;
    p.net = net;
    p.seed = seed;
    SCOPED_TRACE(p.adversary + " / " + net + " / seed " +
                 std::to_string(seed));
    const Outcome ref = run(p, &audit);
    const Outcome got = run(p, nullptr);
    expect_same(got, ref);
    Outcome prod = idle_skip::production_outcome("quadratic", common(p));
    prod.arena_bytes = got.arena_bytes;
    expect_same(got, prod);
  }
  EXPECT_GT(audit.sleeping_calls, 0u) << "no call was ever elidable";
}

TEST(IdleSkipQuad, TwoWordGraphsMatchTheReference) {
  // n = 66 puts the trust-graph rows across a 64-bit word boundary while
  // the silent coalition's first slots drive the accusation flood; the
  // silent nodes never wake, so the quiet rounds take the O(1) path.
  Params p;
  p.n = 66;
  p.f = 33;
  p.slots = 3;
  p.adversary = "silent";
  Audit audit;
  const Outcome ref = run(p, &audit);
  const Outcome got = run(p, nullptr);
  expect_same(got, ref);
  EXPECT_GT(audit.sleeping_calls, 0u);
  EXPECT_GT(got.constant_time_rounds(), 0u);
}

TEST(IdleSkipQuad, QuietStretchesTakeTheConstantTimePath) {
  // With honest senders every node holds the proposal after TrustCast
  // round 1 and nobody is due again before the commit round: most rounds
  // must take the O(1) path, and those carry no traffic.
  Params p;
  p.adversary = "none";
  const Outcome o = run(p, nullptr);
  for (const RoundStats& st : o.rounds) {
    if (st.ns_total() == 0) {
      EXPECT_EQ(st.records, 0u) << "round " << st.round;
    }
  }
  EXPECT_GT(o.constant_time_rounds(), o.rounds.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IdleSkipQuad,
    ::testing::Combine(
        ::testing::Values("none", "silent", "equivocate", "conspiracy",
                          "lateprop", "floodaccuse", "framer", "fuzz",
                          "fuzz:1", "fuzz:2", "fuzz:3", "sched"),
        ::testing::Values("lockstep", "bounded:2", "async:4")),
    [](const auto& info) {
      std::string s = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : s) {
        if (c == '-' || c == ':') c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace ambb::quad
