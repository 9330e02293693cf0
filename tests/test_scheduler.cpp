// Tests of the deterministic event-queue scheduler (DESIGN.md §16):
// net-policy parsing and draws, bounded-Δ delivery windows, async
// adversary-scheduled delays with the eventual-delivery guarantee,
// lockstep equivalence and timing-fault rejection, the configure()
// contract, the delay/reorder schedule grammar, timing-aware fuzz
// generation, and the find_protocol/suggest_protocol lookups.
#include "adversary/fuzz.hpp"
#include "adversary/scheduled.hpp"
#include "adversary/spec.hpp"
#include "engine/sweep.hpp"
#include "runner/registry.hpp"
#include "sim/net.hpp"
#include "sim/net_policy.hpp"
#include "toy_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <vector>

namespace ambb {
namespace {

struct ToyMsg {
  int tag = 0;
};

class ScriptActor final : public Actor<ToyMsg> {
 public:
  using Fn = std::function<void(Round, std::span<const Delivery<ToyMsg>>,
                                const TrafficView<ToyMsg>&,
                                RoundApi<ToyMsg>&)>;
  explicit ScriptActor(Fn fn) : fn_(std::move(fn)) {}
  void on_round(Round r, std::span<const Delivery<ToyMsg>> inbox,
                const TrafficView<ToyMsg>& rushed,
                RoundApi<ToyMsg>& api) override {
    if (fn_) fn_(r, inbox, rushed, api);
  }

 private:
  Fn fn_;
};

std::unique_ptr<ScriptActor> idle() {
  return std::make_unique<ScriptActor>(nullptr);
}

/// Adversary whose observe_round is a lambda (timing-fault injection).
class ObserveAdv final : public Adversary<ToyMsg> {
 public:
  using Fn = std::function<void(Round, const TrafficView<ToyMsg>&,
                                CorruptionCtl<ToyMsg>&)>;
  explicit ObserveAdv(Fn fn) : fn_(std::move(fn)) {}
  std::vector<NodeId> initial_corruptions() override { return {}; }
  std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
    return idle();
  }
  void observe_round(Round r, const TrafficView<ToyMsg>& traffic,
                     CorruptionCtl<ToyMsg>& ctl) override {
    if (fn_) fn_(r, traffic, ctl);
  }

 private:
  Fn fn_;
};

// ---------------------------------------------------------------------
// Policy parsing and the pure delay draw.

TEST(NetPolicy, ParseAndSpecRoundTrip) {
  NetPolicy p = parse_net_policy("lockstep");
  EXPECT_EQ(p.kind, NetKind::kLockstep);
  EXPECT_TRUE(p.lockstep());
  EXPECT_EQ(p.spec(), "lockstep");
  EXPECT_EQ(p.max_extra(), 0u);

  p = parse_net_policy("bounded:3");
  EXPECT_EQ(p.kind, NetKind::kBounded);
  EXPECT_EQ(p.delta, 3u);
  EXPECT_EQ(p.spec(), "bounded:3");
  EXPECT_EQ(p.max_extra(), 3u);

  p = parse_net_policy("async");
  EXPECT_EQ(p.kind, NetKind::kAsync);
  EXPECT_EQ(p.cap, 8u);  // default eventual-delivery cap
  EXPECT_EQ(p.spec(), "async:8");

  p = parse_net_policy("async:2");
  EXPECT_EQ(p.cap, 2u);
  EXPECT_EQ(p.max_extra(), 2u);
}

TEST(NetPolicy, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(parse_net_policy(""), CheckError);
  EXPECT_THROW(parse_net_policy("bogus"), CheckError);
  EXPECT_THROW(parse_net_policy("lockstep:1"), CheckError);
  EXPECT_THROW(parse_net_policy("bounded"), CheckError);     // needs delta
  EXPECT_THROW(parse_net_policy("bounded:"), CheckError);
  EXPECT_THROW(parse_net_policy("bounded:abc"), CheckError);
  EXPECT_THROW(parse_net_policy("async:0"), CheckError);     // no guarantee
}

TEST(NetPolicy, BoundedDrawIsPureAndInRange) {
  const NetPolicy b = make_net_policy("bounded:4", 99);
  std::set<std::uint32_t> seen;
  for (Round r = 0; r < 10; ++r) {
    for (std::uint64_t d = 0; d < 10; ++d) {
      const std::uint32_t x = b.base_extra(r, d);
      EXPECT_LE(x, 4u);
      EXPECT_EQ(x, b.base_extra(r, d));  // pure function of (seed, r, d)
      seen.insert(x);
    }
  }
  // A hash that never varies would make "partial synchrony" a no-op.
  EXPECT_GT(seen.size(), 1u);

  // Only bounded draws: the other policies add no delay of their own.
  EXPECT_EQ(make_net_policy("lockstep", 99).base_extra(3, 7), 0u);
  EXPECT_EQ(make_net_policy("async:4", 99).base_extra(3, 7), 0u);
}

TEST(NetPolicy, ClampEnforcesThePolicyBound) {
  EXPECT_EQ(make_net_policy("bounded:4", 1).clamp_extra(100), 4u);
  EXPECT_EQ(make_net_policy("async:3", 1).clamp_extra(100), 3u);
  EXPECT_EQ(make_net_policy("async:3", 1).clamp_extra(2), 2u);
  EXPECT_EQ(make_net_policy("lockstep", 1).clamp_extra(100), 0u);
}

TEST(NetPolicy, MakeNetPolicyFoldsTheRunSeed) {
  const NetPolicy a = make_net_policy("bounded:3", 1);
  const NetPolicy b = make_net_policy("bounded:3", 2);
  const NetPolicy a2 = make_net_policy("bounded:3", 1);
  EXPECT_NE(a.seed, b.seed);   // different runs, different delay streams
  EXPECT_EQ(a.seed, a2.seed);  // same run, same stream
}

// ---------------------------------------------------------------------
// The simulator's event queue under each policy.

TEST(Scheduler, BoundedDeliveriesLandInsideTheWindow) {
  constexpr std::uint32_t n = 4;
  constexpr std::uint32_t kDelta = 3;
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(n, 1, &ledger, ToyPolicy{});
  std::vector<int> got(n, 0);
  std::vector<Round> at(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    sim.set_actor(v, std::make_unique<ScriptActor>(
                         [&, v](Round r, auto inbox, auto,
                                RoundApi<ToyMsg>& api) {
                           if (r == 0 && v == 0) api.multicast(ToyMsg{7});
                           if (!inbox.empty()) {
                             got[v] += static_cast<int>(inbox.size());
                             at[v] = r;
                           }
                         }));
  }
  SimConfig<ToyMsg> sc;
  sc.net = make_net_policy("bounded:3", 42);
  sim.configure(sc);
  run_rounds(sim, 2 + kDelta);

  std::uint64_t late = 0;  // deliveries with a nonzero extra delay
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(got[v], 1) << "node " << v;  // eventual delivery, exactly once
    EXPECT_GE(at[v], 1u) << "node " << v;  // never before lock-step latency
    EXPECT_LE(at[v], Round{1 + kDelta}) << "node " << v;
    if (at[v] > 1) ++late;
  }
  // RoundStats charge delays to the EMISSION round.
  const std::vector<RoundStats> stats = sim.take_round_stats();
  EXPECT_EQ(stats[0].delayed, late);
  EXPECT_EQ(summarize(stats).delayed, late);
  // Cost is charged at emission: bits are identical to a lockstep run.
  EXPECT_EQ(ledger.honest_bits_total(), 300u);
}

TEST(Scheduler, BoundedZeroDeltaBehavesLikeLockstep) {
  // Δ = 0 exercises the event-queue delivery path but every draw is 0,
  // so the execution must match the lockstep fast path exactly.
  for (const char* spec : {"lockstep", "bounded:0"}) {
    CostLedger ledger({"toy"});
    ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
    int got_at_round = -1;
    sim.set_actor(0, std::make_unique<ScriptActor>(
                         [](Round r, auto, auto, RoundApi<ToyMsg>& api) {
                           if (r == 0) api.send(1, ToyMsg{42});
                         }));
    sim.set_actor(1, std::make_unique<ScriptActor>(
                         [&](Round r, auto inbox, auto, auto&) {
                           if (!inbox.empty() && got_at_round < 0) {
                             got_at_round = static_cast<int>(r);
                           }
                         }));
    sim.set_actor(2, idle());
    SimConfig<ToyMsg> sc;
    sc.net = make_net_policy(spec, 7);
    sim.configure(sc);
    run_rounds(sim, 3);
    EXPECT_EQ(got_at_round, 1) << spec;
    EXPECT_EQ(ledger.honest_bits_total(), 100u) << spec;
    EXPECT_EQ(summarize(sim.take_round_stats()).delayed, 0u) << spec;
  }
}

TEST(Scheduler, AsyncAdversaryDefersASpecificDelivery) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
  Round arrived = 0;
  ObserveAdv adv([](Round r, const TrafficView<ToyMsg>& traffic,
                    CorruptionCtl<ToyMsg>& ctl) {
    if (r != 0) return;
    ASSERT_EQ(traffic.size(), 1u);
    EXPECT_EQ(ctl.net().kind, NetKind::kAsync);
    ctl.delay(0, 2);  // timing fault on an HONEST sender: no budget used
    EXPECT_EQ(ctl.corruption_budget_left(), 1u);
  });
  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round r, auto, auto, RoundApi<ToyMsg>& api) {
                         if (r == 0) api.send(1, ToyMsg{5});
                       }));
  sim.set_actor(1, std::make_unique<ScriptActor>(
                       [&](Round r, auto inbox, auto, auto&) {
                         if (!inbox.empty()) arrived = r;
                       }));
  sim.set_actor(2, idle());
  SimConfig<ToyMsg> sc;
  sc.net = make_net_policy("async", 3);
  sc.adversary = &adv;
  sim.configure(sc);
  run_rounds(sim, 5);
  EXPECT_EQ(arrived, 3u);  // emitted round 0, lands 1 + 2 extra
  EXPECT_EQ(sim.take_round_stats()[0].delayed, 1u);
  EXPECT_EQ(sim.corruption_budget_left(), 1u);
}

TEST(Scheduler, AsyncCapIsTheEventualDeliveryGuarantee) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(2, 1, &ledger, ToyPolicy{});
  Round arrived = 0;
  ObserveAdv adv([](Round r, const TrafficView<ToyMsg>&,
                    CorruptionCtl<ToyMsg>& ctl) {
    if (r == 0) ctl.delay(0, 1000);  // "forever" — clamped to the cap
  });
  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round r, auto, auto, RoundApi<ToyMsg>& api) {
                         if (r == 0) api.send(1, ToyMsg{1});
                       }));
  sim.set_actor(1, std::make_unique<ScriptActor>(
                       [&](Round r, auto inbox, auto, auto&) {
                         if (!inbox.empty()) arrived = r;
                       }));
  SimConfig<ToyMsg> sc;
  sc.net = make_net_policy("async:4", 9);
  sc.adversary = &adv;
  sim.configure(sc);
  run_rounds(sim, 8);
  EXPECT_EQ(arrived, 5u);  // 1 + cap, never later: no forever-withholding
}

TEST(Scheduler, LockstepRejectsTimingFaults) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(2, 1, &ledger, ToyPolicy{});
  ObserveAdv adv([](Round, const TrafficView<ToyMsg>& traffic,
                    CorruptionCtl<ToyMsg>& ctl) {
    if (traffic.size() > 0) {
      EXPECT_THROW(ctl.delay(0, 1), CheckError);
    }
  });
  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round, auto, auto, RoundApi<ToyMsg>& api) {
                         api.send(1, ToyMsg{1});
                       }));
  sim.set_actor(1, idle());
  SimConfig<ToyMsg> sc;
  sc.adversary = &adv;  // net stays the default lockstep policy
  sim.configure(sc);
  run_rounds(sim, 1);
}

// ---------------------------------------------------------------------
// The configure() contract.

TEST(Scheduler, ConfigureIsOnceAndBeforeTheFirstStep) {
  {
    CostLedger ledger({"toy"});
    ToySim<ToyMsg> sim(2, 1, &ledger, ToyPolicy{});
    for (NodeId v = 0; v < 2; ++v) sim.set_actor(v, idle());
    SimConfig<ToyMsg> sc;
    sim.configure(sc);
    EXPECT_THROW(sim.configure(sc), CheckError);  // reconfiguration
  }
  {
    CostLedger ledger({"toy"});
    ToySim<ToyMsg> sim(2, 1, &ledger, ToyPolicy{});
    for (NodeId v = 0; v < 2; ++v) sim.set_actor(v, idle());
    sim.step();  // unconfigured runs are fine (all defaults) ...
    SimConfig<ToyMsg> sc;
    EXPECT_THROW(sim.configure(sc), CheckError);  // ... but then it's late
  }
}

// ---------------------------------------------------------------------
// The delay/reorder schedule grammar and its gating.

TEST(Scheduler, SpecParsesDelayAndReorderOps) {
  using namespace adversary;
  FaultSchedule s = parse_schedule_spec("sched:delay(1,2,5,3);reorder(0,0,4)");
  ASSERT_EQ(s.net_faults.size(), 2u);
  EXPECT_EQ(s.net_faults[0].kind, NetFaultKind::kDelay);
  EXPECT_EQ(s.net_faults[0].sender, 1u);
  EXPECT_EQ(s.net_faults[0].from, 2u);
  EXPECT_EQ(s.net_faults[0].to, 5u);
  EXPECT_EQ(s.net_faults[0].extra, 3u);
  EXPECT_EQ(s.net_faults[1].kind, NetFaultKind::kReorder);
  EXPECT_EQ(s.net_faults[1].sender, 0u);
  EXPECT_TRUE(s.corruptions.empty());  // timing faults need no corruption
  validate(s, /*n=*/4, /*f=*/0);       // ... and no corruption budget
}

TEST(Scheduler, ValidateRejectsBadTimingFaults) {
  using namespace adversary;
  {
    FaultSchedule s;  // kDelay with extra 0 is a no-op: reject it
    s.net_faults.push_back(NetFault{NetFaultKind::kDelay, 0, 0, 5, 0, 0});
    EXPECT_THROW(validate(s, 4, 1), CheckError);
  }
  {
    FaultSchedule s;  // inverted window
    s.net_faults.push_back(NetFault{NetFaultKind::kReorder, 0, 5, 2, 1, 0});
    EXPECT_THROW(validate(s, 4, 1), CheckError);
  }
  {
    FaultSchedule s;  // sender out of range
    s.net_faults.push_back(NetFault{NetFaultKind::kDelay, 9, 0, 5, 1, 0});
    EXPECT_THROW(validate(s, 4, 1), CheckError);
  }
}

TEST(Scheduler, TimingSchedulesAreRejectedUnderLockstep) {
  using namespace adversary;
  ScheduleEnv<ToyMsg> env;
  env.n = 4;
  env.f = 1;
  env.seed = 1;
  env.horizon = 10;
  env.honest_factory = [](NodeId) { return idle(); };
  // Default env.net is lockstep: the synchronous model has no timing power.
  EXPECT_THROW(make_scheduled_adversary<ToyMsg>("sched:delay(0,0,5,2)", env),
               CheckError);
  env.net = make_net_policy("bounded:2", 1);
  EXPECT_NE(make_scheduled_adversary<ToyMsg>("sched:delay(0,0,5,2)", env),
            nullptr);
}

// ---------------------------------------------------------------------
// Timing-aware fuzz generation.

TEST(Scheduler, FuzzTimingBoundGatesNetFaults) {
  using namespace adversary;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const FaultSchedule base = generate_schedule(12, 3, 20, seed, 0);
    const FaultSchedule timed = generate_schedule(12, 3, 20, seed, 3);

    // Lockstep (bound 0) draws no timing faults at all.
    EXPECT_TRUE(base.net_faults.empty());
    // Timing faults are drawn AFTER the content faults from the same RNG,
    // so the content part of the schedule is byte-identical either way —
    // the lockstep golden-compat guarantee.
    ASSERT_EQ(base.corruptions.size(), timed.corruptions.size());
    for (std::size_t i = 0; i < base.corruptions.size(); ++i) {
      EXPECT_EQ(base.corruptions[i].from, timed.corruptions[i].from);
      EXPECT_EQ(base.corruptions[i].node, timed.corruptions[i].node);
    }
    ASSERT_EQ(base.erasures.size(), timed.erasures.size());
    for (std::size_t i = 0; i < base.erasures.size(); ++i) {
      EXPECT_EQ(base.erasures[i].round, timed.erasures[i].round);
      EXPECT_EQ(base.erasures[i].sender, timed.erasures[i].sender);
      EXPECT_EQ(base.erasures[i].density_permille,
                timed.erasures[i].density_permille);
    }
    ASSERT_EQ(base.actor_faults.size(), timed.actor_faults.size());
    for (std::size_t i = 0; i < base.actor_faults.size(); ++i) {
      EXPECT_EQ(base.actor_faults[i].kind, timed.actor_faults[i].kind);
      EXPECT_EQ(base.actor_faults[i].node, timed.actor_faults[i].node);
    }

    // A nonzero bound always yields at least one timing fault, scaled to
    // the bound, against any sender — and still validate()s.
    EXPECT_FALSE(timed.net_faults.empty());
    for (const auto& t : timed.net_faults) {
      EXPECT_LT(t.sender, 12u);
      if (t.kind == NetFaultKind::kDelay) {
        EXPECT_GE(t.extra, 1u);
        EXPECT_LE(t.extra, 3u);
      }
    }
    validate(timed, 12, 3);
  }
  // f == 0 with a timing bound: a pure network adversary is legal.
  const FaultSchedule net_only =
      adversary::generate_schedule(8, 0, 16, 5, 2);
  EXPECT_TRUE(net_only.corruptions.empty());
  validate(net_only, 8, 0);
}

// ---------------------------------------------------------------------
// Registry lookups.

TEST(Registry, FindProtocolAndSuggestions) {
  const ProtocolInfo* p = find_protocol("linear");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name, "linear");
  EXPECT_EQ(&protocol("linear"), p);  // the throwing lookup delegates

  EXPECT_EQ(find_protocol("no-such-protocol"), nullptr);
  EXPECT_THROW(protocol("no-such-protocol"), CheckError);

  EXPECT_EQ(suggest_protocol("linea"), "linear");
  EXPECT_EQ(suggest_protocol("quadratik"), "quadratic");
  EXPECT_EQ(suggest_protocol("dolev-strng"), "dolev-strong");
  EXPECT_EQ(suggest_protocol("zzzzzzzz"), "");  // nothing plausibly close
}

TEST(Registry, ConsistencyNeedsSyncMarksTheRoundDeadlineRows) {
  // Quorum-intersection rows: consistency is a hard oracle under every
  // delay policy.
  for (const char* name :
       {"linear", "mr-baseline", "linear-nomem", "linear-noquery",
        "phase-king", "hotstuff"}) {
    EXPECT_FALSE(protocol(name).consistency_needs_sync) << name;
  }
  // Round-deadline rows: the agreement argument is itself a synchrony
  // assumption (DS relay step, TrustCast, chunk-dispersal windows).
  for (const char* name :
       {"dolev-strong", "dolev-strong-msig", "quadratic", "ext:linear",
        "ext:quadratic", "ext:dolev-strong", "ext:dolev-strong-msig"}) {
    EXPECT_TRUE(protocol(name).consistency_needs_sync) << name;
  }
}

TEST(Scheduler, SweepCellsRelaxOraclesByPolicyAndRow) {
  engine::SweepSpec spec;
  spec.protocol = "dolev-strong";
  spec.ns = {8};
  spec.fs = {1};
  spec.slots_list = {1};
  spec.nets = {"lockstep", "bounded:2", "bounded:0"};
  auto jobs = engine::expand(spec);
  ASSERT_EQ(jobs.size(), 3u);
  // Lockstep cell: every oracle hard, even for a round-deadline row.
  const engine::Job lockstep = engine::to_engine_job(jobs[0]);
  EXPECT_FALSE(lockstep.allow_stall);
  EXPECT_FALSE(lockstep.allow_invalid);
  EXPECT_FALSE(lockstep.allow_split);
  // Bounded cell: synchrony-conditional oracles relaxed; consistency
  // relaxed only because dolev-strong declares consistency_needs_sync.
  const engine::Job bounded = engine::to_engine_job(jobs[1]);
  EXPECT_TRUE(bounded.allow_stall);
  EXPECT_TRUE(bounded.allow_invalid);
  EXPECT_TRUE(bounded.allow_split);
  // bounded:0 never delays a delivery (it is pinned bit-identical to
  // lockstep), so it keeps every oracle hard.
  const engine::Job zero = engine::to_engine_job(jobs[2]);
  EXPECT_FALSE(zero.allow_stall);
  EXPECT_FALSE(zero.allow_invalid);
  EXPECT_FALSE(zero.allow_split);

  spec.protocol = "linear";
  jobs = engine::expand(spec);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_TRUE(engine::to_engine_job(jobs[1]).allow_invalid);
  // Quorum row: consistency stays hard.
  EXPECT_FALSE(engine::to_engine_job(jobs[1]).allow_split);
}

// ---------------------------------------------------------------------
// End-to-end determinism through the registry.

TEST(Scheduler, RegistryRunsAreSeedDeterministicUnderDelays) {
  for (const char* net : {"bounded:2", "async:4"}) {
    CommonParams p;
    p.n = 8;
    p.f = 2;
    p.slots = 2;
    p.seed = 7;
    p.adversary = "fuzz";
    p.net = net;
    const RunResult a = protocol("linear").run(p);
    const RunResult b = protocol("linear").run(p);  // same params, same seed
    EXPECT_EQ(a.honest_bits, b.honest_bits) << net;
    EXPECT_EQ(a.adversary_bits, b.adversary_bits) << net;
    EXPECT_EQ(a.honest_msgs, b.honest_msgs) << net;
    EXPECT_EQ(a.rounds, b.rounds) << net;
    EXPECT_EQ(a.per_slot_bits, b.per_slot_bits) << net;
    EXPECT_EQ(a.stats_summary().delayed, b.stats_summary().delayed) << net;
    // Consistency is the one oracle no network model relaxes
    // (termination and validity are synchrony-conditional; see
    // engine::Job::allow_invalid).
    EXPECT_TRUE(check_consistency(a).empty()) << net;
  }
}

TEST(Scheduler, RegistryBoundedZeroMatchesLockstepBitForBit) {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 2;
  p.seed = 11;
  p.adversary = "fuzz";
  const RunResult lock = protocol("linear").run(p);
  p.net = "bounded:0";  // event-queue path, but every draw is zero
  const RunResult zero = protocol("linear").run(p);
  EXPECT_EQ(lock.honest_bits, zero.honest_bits);
  EXPECT_EQ(lock.adversary_bits, zero.adversary_bits);
  EXPECT_EQ(lock.honest_msgs, zero.honest_msgs);
  EXPECT_EQ(lock.rounds, zero.rounds);
  EXPECT_EQ(lock.per_slot_bits, zero.per_slot_bits);
  EXPECT_EQ(zero.stats_summary().delayed, 0u);
}

}  // namespace
}  // namespace ambb
