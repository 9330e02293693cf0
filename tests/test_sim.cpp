// Tests of the lock-step simulator semantics (delivery timing, rushing
// order, cost charging, strongly adaptive corruption + after-the-fact
// message removal, idle-round elision) using a minimal toy message type.
#include "sim/net.hpp"
#include "toy_policy.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "adversary/scheduled.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

namespace ambb {
namespace {

struct ToyMsg {
  int tag = 0;
};

/// Scriptable actor: runs a lambda each round, records its inbox.
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

/// Post-API-redesign shorthand: configure() is the only setup entry
/// point; these tests only ever attach an adversary.
void bind(ToySim<ToyMsg>& sim, Adversary<ToyMsg>* adv) {
  SimConfig<ToyMsg> sc;
  sc.adversary = adv;
  sim.configure(sc);
}

TEST(Simulation, MessagesArriveNextRound) {
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
                           EXPECT_EQ(inbox[0].msg().tag, 42);
                           EXPECT_EQ(inbox[0].from, 0u);
                         }
                       }));
  sim.set_actor(2, idle());
  run_rounds(sim, 3);
  EXPECT_EQ(got_at_round, 1);
}

TEST(Simulation, MulticastReachesAllAndSelfCopyIsFree) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(4, 1, &ledger, ToyPolicy{});
  int deliveries = 0;
  for (NodeId v = 0; v < 4; ++v) {
    sim.set_actor(v, std::make_unique<ScriptActor>(
                         [&, v](Round r, auto inbox, auto,
                                RoundApi<ToyMsg>& api) {
                           if (r == 0 && v == 0) api.multicast(ToyMsg{1});
                           if (r == 1) deliveries += inbox.size();
                         }));
  }
  run_rounds(sim, 2);
  EXPECT_EQ(deliveries, 4);  // all four nodes, including the sender itself
  // but only n-1 = 3 copies are charged
  EXPECT_EQ(ledger.honest_bits_total(), 300u);
}

TEST(Simulation, HonestBitsVsAdversaryBits) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});

  class Adv final : public Adversary<ToyMsg> {
   public:
    std::vector<NodeId> initial_corruptions() override { return {2}; }
    std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
      return std::make_unique<ScriptActor>(
          [](Round r, auto, auto, RoundApi<ToyMsg>& api) {
            if (r == 0) api.send(0, ToyMsg{9});
          });
    }
  } adv;

  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round r, auto, auto, RoundApi<ToyMsg>& api) {
                         if (r == 0) api.send(1, ToyMsg{1});
                       }));
  sim.set_actor(1, idle());
  sim.set_actor(2, idle());
  bind(sim, &adv);
  run_rounds(sim, 2);
  EXPECT_EQ(ledger.honest_bits_total(), 100u);
  EXPECT_EQ(ledger.adversary_bits_total(), 100u);
}

TEST(Simulation, ByzantineActorsSeeRushedHonestTraffic) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(2, 1, &ledger, ToyPolicy{});
  bool saw_rushed = false;

  class Adv final : public Adversary<ToyMsg> {
   public:
    explicit Adv(bool* saw) : saw_(saw) {}
    std::vector<NodeId> initial_corruptions() override { return {1}; }
    std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
      return std::make_unique<ScriptActor>(
          [saw = saw_](Round, auto, const TrafficView<ToyMsg>& rushed,
                       auto&) {
            if (rushed.size() > 0) *saw = true;
          });
    }
    bool* saw_;
  } adv(&saw_rushed);

  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round, auto, auto, RoundApi<ToyMsg>& api) {
                         api.send(0, ToyMsg{5});
                       }));
  sim.set_actor(1, idle());
  bind(sim, &adv);
  run_rounds(sim, 1);
  EXPECT_TRUE(saw_rushed);
}

TEST(Simulation, AfterTheFactRemovalErasesAndRecharges) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
  int node1_deliveries = 0;

  // Node 0 sends to 1 in round 0; the adversary then corrupts node 0 and
  // erases the message: node 1 must never receive it and no honest bits
  // are charged.
  class Adv final : public Adversary<ToyMsg> {
   public:
    std::vector<NodeId> initial_corruptions() override { return {}; }
    std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
      return std::make_unique<ScriptActor>(nullptr);  // silent
    }
    void observe_round(Round r, const TrafficView<ToyMsg>& traffic,
                       CorruptionCtl<ToyMsg>& ctl) override {
      if (r != 0) return;
      for (std::size_t i = 0; i < traffic.size(); ++i) {
        if (traffic[i].from == 0) {
          ctl.corrupt(0);
          ctl.erase(i);
        }
      }
    }
  } adv;

  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round r, auto, auto, RoundApi<ToyMsg>& api) {
                         if (r == 0) api.send(1, ToyMsg{7});
                       }));
  sim.set_actor(1, std::make_unique<ScriptActor>(
                       [&](Round, auto inbox, auto, auto&) {
                         node1_deliveries += inbox.size();
                       }));
  sim.set_actor(2, idle());
  bind(sim, &adv);
  run_rounds(sim, 2);
  EXPECT_EQ(node1_deliveries, 0);
  EXPECT_EQ(ledger.honest_bits_total(), 0u);
  EXPECT_TRUE(sim.is_corrupt(0));
}

TEST(Simulation, ErasingHonestTrafficIsRejected) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(2, 1, &ledger, ToyPolicy{});

  class Adv final : public Adversary<ToyMsg> {
   public:
    std::vector<NodeId> initial_corruptions() override { return {}; }
    std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
      return std::make_unique<ScriptActor>(nullptr);
    }
    void observe_round(Round, const TrafficView<ToyMsg>& traffic,
                       CorruptionCtl<ToyMsg>& ctl) override {
      if (traffic.size() > 0) {
        // No corruption first: after-the-fact removal must be refused.
        EXPECT_THROW(ctl.erase(0), CheckError);
      }
    }
  } adv;

  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round, auto, auto, RoundApi<ToyMsg>& api) {
                         api.send(1, ToyMsg{1});
                       }));
  sim.set_actor(1, idle());
  bind(sim, &adv);
  run_rounds(sim, 1);
}

TEST(Simulation, CorruptionBudgetEnforced) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});

  class Adv final : public Adversary<ToyMsg> {
   public:
    std::vector<NodeId> initial_corruptions() override { return {0}; }
    std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
      return std::make_unique<ScriptActor>(nullptr);
    }
    void observe_round(Round, const TrafficView<ToyMsg>&,
                       CorruptionCtl<ToyMsg>& ctl) override {
      EXPECT_EQ(ctl.corruption_budget_left(), 0u);
      EXPECT_THROW(ctl.corrupt(1), CheckError);
    }
  } adv;

  for (NodeId v = 0; v < 3; ++v) sim.set_actor(v, idle());
  bind(sim, &adv);
  run_rounds(sim, 1);
  EXPECT_EQ(sim.corruption_budget_left(), 0u);
}

TEST(Simulation, InitialCorruptionsOverBudgetThrow) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
  class Adv final : public Adversary<ToyMsg> {
   public:
    std::vector<NodeId> initial_corruptions() override { return {0, 1}; }
    std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
      return std::make_unique<ScriptActor>(nullptr);
    }
  } adv;
  for (NodeId v = 0; v < 3; ++v) sim.set_actor(v, idle());
  EXPECT_THROW(bind(sim, &adv), CheckError);
}

// ---------------------------------------------------------------------------
// Idle-round elision (DESIGN.md §17)
// ---------------------------------------------------------------------------

using Sleepy = SleepyActor<ToyMsg>;

Round never(Round) { return kNeverWake; }

/// Sleepy actor that runs again only at the next multiple of `period`.
std::unique_ptr<Sleepy> periodic(Round period, Sleepy::Act act = nullptr) {
  return std::make_unique<Sleepy>(
      [period](Round r) { return (r / period + 1) * period; },
      std::move(act));
}

bool quiet(const RoundStats& st) {
  return st.records == 0 && st.deliveries == 0 && st.honest_bits == 0 &&
         st.adversary_bits == 0 && st.erasures == 0 && st.corruptions == 0 &&
         st.delayed == 0 && st.ns_total() == 0;
}

TEST(IdleRounds, EachSkippedRoundYieldsOneZeroStatsAndOneRoundEnd) {
  // Node 0 multicasts every 10th round; everyone wakes for the mail the
  // round after and then sleeps until the next multiple of 10. Rounds
  // 2-9, 12-19 and 22-24 have nothing due and take the O(1) path.
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
  std::vector<Sleepy*> actors;
  for (NodeId v = 0; v < 3; ++v) {
    auto a = periodic(10, [v](Round r, auto, RoundApi<ToyMsg>& api) {
      if (v == 0 && r % 10 == 0) api.multicast(ToyMsg{1});
    });
    actors.push_back(a.get());
    sim.set_actor(v, std::move(a));
  }
  trace::CollectorSink sink;
  SimConfig<ToyMsg> sc;
  sc.trace = &sink;
  sim.configure(sc);
  run_rounds(sim, 25);

  const std::vector<Round> busy = {0, 1, 10, 11, 20, 21};
  for (const Sleepy* a : actors) EXPECT_EQ(a->ran(), busy);
  const std::vector<RoundStats> stats = sim.take_round_stats();
  ASSERT_EQ(stats.size(), 25u);
  EXPECT_EQ(summarize(stats).rounds, 25u);
  std::vector<trace::Event> ends;
  for (const trace::Event& e : sink.events()) {
    if (e.kind == trace::EventKind::kRoundEnd) ends.push_back(e);
  }
  ASSERT_EQ(ends.size(), 25u);
  for (Round r = 0; r < 25; ++r) {
    const RoundStats& st = stats[r];
    EXPECT_EQ(st.round, r);
    EXPECT_EQ(ends[r].round, r);
    EXPECT_EQ(ends[r].stats.records, st.records);
    if (r % 10 >= 2) {
      EXPECT_TRUE(quiet(st)) << "round " << r;
    }
    EXPECT_EQ(st.deliveries, r % 10 == 0 ? 3u : 0u) << "round " << r;
  }
  EXPECT_EQ(ledger.honest_bits_total(), 3u * 2 * 100);
}

TEST(IdleRounds, ScheduledCorruptionInsideASleepFiresOnTime) {
  // Everyone sleeps forever after round 0; the schedule corrupts node 1
  // from round 15, i.e. in observe_round(14). The adversary must wake
  // for that round, and the replacement actor must run in round 15 even
  // though it too declares it never needs to wake.
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
  std::vector<Sleepy*> honest;
  for (NodeId v = 0; v < 3; ++v) {
    auto a = std::make_unique<Sleepy>(never);
    honest.push_back(a.get());
    sim.set_actor(v, std::move(a));
  }
  adversary::FaultSchedule sched;
  sched.corruptions.push_back(adversary::CorruptEvent{15, 1});
  Sleepy* replacement = nullptr;
  adversary::ScheduledAdversary<ToyMsg> adv(
      sched, 3, /*seed=*/1, nullptr, [&replacement](NodeId) {
        auto a = std::make_unique<Sleepy>(never);
        replacement = a.get();
        return a;
      });
  bind(sim, &adv);
  run_rounds(sim, 30);

  ASSERT_TRUE(sim.is_corrupt(1));
  ASSERT_NE(replacement, nullptr);
  EXPECT_EQ(replacement->ran(), std::vector<Round>{15});
  for (NodeId v : {0u, 2u}) {
    EXPECT_EQ(honest[v]->ran(), std::vector<Round>{0});
  }
  const std::vector<RoundStats> stats = sim.take_round_stats();
  ASSERT_EQ(stats.size(), 30u);
  EXPECT_EQ(stats[14].corruptions, 1u);
  for (Round r = 1; r < 30; ++r) {
    if (r == 14 || r == 15) continue;
    EXPECT_TRUE(quiet(stats[r])) << "round " << r;
  }
}

TEST(IdleRounds, DeferredBucketMaturingMidSleepWakesItsRecipient) {
  // Node 0 sends to node 1 in round 0 and the network adversary defers it
  // by the full bound: it lands at the start of round 5, in the middle
  // of a stretch where nobody is due. The bucket keeps round 4 on the
  // full path (it fills node 1's inbox), and the mail wakes node 1.
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(2, 1, &ledger, ToyPolicy{});
  sim.set_actor(0, std::make_unique<Sleepy>(
                       never, [](Round r, auto, RoundApi<ToyMsg>& api) {
                         if (r == 0) api.send(1, ToyMsg{3});
                       }));
  std::vector<std::pair<Round, int>> got;
  auto receiver = std::make_unique<Sleepy>(
      never, [&got](Round r, auto inbox, auto&) {
        for (const auto& d : inbox) got.emplace_back(r, d.msg().tag);
      });
  Sleepy* recv = receiver.get();
  sim.set_actor(1, std::move(receiver));

  class Delayer final : public Adversary<ToyMsg> {
   public:
    std::vector<NodeId> initial_corruptions() override { return {}; }
    std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
      return nullptr;
    }
    void observe_round(Round r, const TrafficView<ToyMsg>& traffic,
                       CorruptionCtl<ToyMsg>& ctl) override {
      if (r == 0 && traffic.size() > 0) ctl.delay(0, 4);
    }
    Round next_wake(Round) const override { return kNeverWake; }
  } adv;
  SimConfig<ToyMsg> sc;
  sc.net = make_net_policy("bounded:4", 1);
  sc.adversary = &adv;
  sim.configure(sc);
  run_rounds(sim, 12);

  EXPECT_EQ(recv->ran(), (std::vector<Round>{0, 5}));
  EXPECT_EQ(got, (std::vector<std::pair<Round, int>>{{5, 3}}));
  const std::vector<RoundStats> stats = sim.take_round_stats();
  EXPECT_EQ(stats[0].delayed, 1u);
  for (Round r : {1u, 2u, 3u, 6u, 7u, 8u, 9u, 10u, 11u}) {
    EXPECT_TRUE(quiet(stats[r])) << "round " << r;
  }
}

TEST(IdleRounds, DefaultWakeActorsAndAdversariesRunEveryRound) {
  // Node 0 keeps the default wake (r + 1); nodes 1 and 2 sleep forever,
  // node 2 as a Byzantine actor. Node 1 sends once, in round 5: that
  // rushed honest traffic must wake the sleeping Byzantine actor.
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
  std::vector<Round> ran0;
  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [&ran0](Round r, auto, auto, auto&) {
                         ran0.push_back(r);
                       }));
  sim.set_actor(1, std::make_unique<Sleepy>(
                       [](Round r) { return r < 5 ? Round{5} : kNeverWake; },
                       [](Round r, auto, RoundApi<ToyMsg>& api) {
                         if (r == 5) api.send(0, ToyMsg{1});
                       }));
  sim.set_actor(2, idle());

  class Adv final : public Adversary<ToyMsg> {
   public:
    std::vector<NodeId> initial_corruptions() override { return {2}; }
    std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
      auto a = std::make_unique<Sleepy>(never);
      byz = a.get();
      return a;
    }
    void observe_round(Round r, const TrafficView<ToyMsg>&,
                       CorruptionCtl<ToyMsg>&) override {
      observed.push_back(r);
    }
    Sleepy* byz = nullptr;
    std::vector<Round> observed;
  } adv;
  bind(sim, &adv);
  run_rounds(sim, 10);

  const std::vector<Round> every = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(ran0, every);
  EXPECT_EQ(adv.observed, every);
  ASSERT_NE(adv.byz, nullptr);
  EXPECT_EQ(adv.byz->ran(), (std::vector<Round>{0, 5}));
  for (const RoundStats& st : sim.take_round_stats()) {
    EXPECT_EQ(st.records, st.round == 5 ? 1u : 0u);
  }
}

}  // namespace
}  // namespace ambb
