// Tests of the lock-step simulator semantics (delivery timing, rushing
// order, cost charging, strongly adaptive corruption + after-the-fact
// message removal) using a minimal toy message type.
#include "sim/net.hpp"
#include "toy_policy.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

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
  sim.run_rounds(3);
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
  sim.run_rounds(2);
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
  sim.run_rounds(2);
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
            if (!rushed.empty()) *saw = true;
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
  sim.run_rounds(1);
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
  sim.run_rounds(2);
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
      if (!traffic.empty()) {
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
  sim.run_rounds(1);
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
  sim.run_rounds(1);
  EXPECT_EQ(sim.corrupt_count(), 1u);
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

}  // namespace
}  // namespace ambb
