// Regression tests for the strongly adaptive accounting contract
// (DESIGN.md "Simulator internals & accounting contract"):
//
//   - a delivery erased in observe_round is charged to NOBODY (the paper's
//     adversary removes it before it ever traverses the wire);
//   - a message that survives from a node corrupted in the same
//     observe_round is charged as ADVERSARY bits (the sender was corrupt
//     when the round's bill was drawn up);
//   - a multicast's self-delivery is delivered but never charged, and
//     erasing the self-copy does not create a double deduction.
//
// These pin the delivery-index contract: with multicasts stored as one
// shared record, erase(i) must still address the individual
// (sender, recipient) delivery i in the same order the old eager fan-out
// enumerated them (recipients 0..n-1, self included).
#include "sim/net.hpp"
#include "toy_policy.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace ambb {
namespace {

struct ToyMsg {
  int tag = 0;
};

class ScriptActor final : public Actor<ToyMsg> {
 public:
  using Fn = std::function<void(Round, std::span<const Delivery<ToyMsg>>,
                                RoundApi<ToyMsg>&)>;
  explicit ScriptActor(Fn fn) : fn_(std::move(fn)) {}
  void on_round(Round r, std::span<const Delivery<ToyMsg>> inbox,
                const TrafficView<ToyMsg>&, RoundApi<ToyMsg>& api) override {
    if (fn_) fn_(r, inbox, api);
  }

 private:
  Fn fn_;
};

std::unique_ptr<ScriptActor> idle() {
  return std::make_unique<ScriptActor>(nullptr);
}

/// Adversary that runs a lambda as observe_round and keeps every corrupted
/// node silent.
class ScriptAdversary final : public Adversary<ToyMsg> {
 public:
  using Fn = std::function<void(Round, const TrafficView<ToyMsg>&,
                                CorruptionCtl<ToyMsg>&)>;
  explicit ScriptAdversary(Fn fn) : fn_(std::move(fn)) {}
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

TEST(AdaptiveAccounting, ErasedDeliveryChargedToNobody) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round r, auto, RoundApi<ToyMsg>& api) {
                         if (r == 0) api.send(1, ToyMsg{1});
                       }));
  sim.set_actor(1, idle());
  sim.set_actor(2, idle());
  ScriptAdversary adv([](Round r, const TrafficView<ToyMsg>& traffic,
                         CorruptionCtl<ToyMsg>& ctl) {
    if (r != 0) return;
    ASSERT_EQ(traffic.size(), 1u);
    ctl.corrupt(0);
    ctl.erase(0);
  });
  SimConfig<ToyMsg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  run_rounds(sim, 2);
  // Removed before it traversed the wire: neither ledger side pays.
  EXPECT_EQ(ledger.honest_bits_total(), 0u);
  EXPECT_EQ(ledger.adversary_bits_total(), 0u);
}

TEST(AdaptiveAccounting, SurvivingTrafficOfFreshlyCorruptedNodeIsAdversaryBits) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(3, 1, &ledger, ToyPolicy{});
  int node1_got = 0;
  sim.set_actor(0, std::make_unique<ScriptActor>(
                       [](Round r, auto, RoundApi<ToyMsg>& api) {
                         if (r == 0) api.send(1, ToyMsg{1});
                       }));
  sim.set_actor(1, std::make_unique<ScriptActor>(
                       [&](Round, auto inbox, auto&) {
                         node1_got += static_cast<int>(inbox.size());
                       }));
  sim.set_actor(2, idle());
  // Corrupt the sender after it sent, but do NOT erase: the message still
  // flows, and its cost moves to the adversary's side of the ledger.
  ScriptAdversary adv([](Round r, const TrafficView<ToyMsg>&,
                         CorruptionCtl<ToyMsg>& ctl) {
    if (r == 0) ctl.corrupt(0);
  });
  SimConfig<ToyMsg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  run_rounds(sim, 2);
  EXPECT_EQ(node1_got, 1);
  EXPECT_EQ(ledger.honest_bits_total(), 0u);
  EXPECT_EQ(ledger.adversary_bits_total(), 100u);
}

TEST(AdaptiveAccounting, MulticastSelfDeliveryIsFree) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(4, 1, &ledger, ToyPolicy{});
  std::vector<int> got(4, 0);
  for (NodeId v = 0; v < 4; ++v) {
    sim.set_actor(v, std::make_unique<ScriptActor>(
                         [&, v](Round r, auto inbox, RoundApi<ToyMsg>& api) {
                           if (r == 0 && v == 0) api.multicast(ToyMsg{1});
                           got[v] += static_cast<int>(inbox.size());
                         }));
  }
  run_rounds(sim, 2);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(got[v], 1) << "node " << v;
  // Four deliveries, three charged: the self-copy is free.
  EXPECT_EQ(ledger.honest_bits_total(), 300u);
  EXPECT_EQ(ledger.honest_msgs_total(), 3u);
}

TEST(AdaptiveAccounting, ErasingSelfCopyDoesNotDoubleDeduct) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(4, 1, &ledger, ToyPolicy{});
  for (NodeId v = 0; v < 4; ++v) {
    sim.set_actor(v, std::make_unique<ScriptActor>(
                         [v](Round r, auto, RoundApi<ToyMsg>& api) {
                           if (r == 0 && v == 0) api.multicast(ToyMsg{1});
                         }));
  }
  // Deliveries of the multicast appear in recipient order 0..3, so
  // delivery 0 is the sender's self-copy.
  ScriptAdversary adv([](Round r, const TrafficView<ToyMsg>& traffic,
                         CorruptionCtl<ToyMsg>& ctl) {
    if (r != 0) return;
    ASSERT_EQ(traffic.size(), 4u);
    EXPECT_EQ(traffic[0].from, 0u);
    EXPECT_EQ(traffic[0].to, 0u);
    ctl.corrupt(0);
    ctl.erase(0);
  });
  SimConfig<ToyMsg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  run_rounds(sim, 2);
  // The free self-copy was erased; the three real copies are still billed
  // (to the adversary, since the sender is now corrupt) — the "free self"
  // deduction must not apply on top of the erasure.
  EXPECT_EQ(ledger.honest_bits_total(), 0u);
  EXPECT_EQ(ledger.adversary_bits_total(), 300u);
}

TEST(AdaptiveAccounting, EraseAddressesOneDeliveryOfASharedMulticast) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(4, 1, &ledger, ToyPolicy{});
  std::vector<int> got(4, 0);
  for (NodeId v = 0; v < 4; ++v) {
    sim.set_actor(v, std::make_unique<ScriptActor>(
                         [&, v](Round r, auto inbox, RoundApi<ToyMsg>& api) {
                           if (r == 0 && v == 0) api.multicast(ToyMsg{1});
                           got[v] += static_cast<int>(inbox.size());
                         }));
  }
  // Erase only the delivery to node 2 (delivery index == recipient here).
  ScriptAdversary adv([](Round r, const TrafficView<ToyMsg>& traffic,
                         CorruptionCtl<ToyMsg>& ctl) {
    if (r != 0) return;
    ASSERT_EQ(traffic.size(), 4u);
    EXPECT_EQ(traffic[2].to, 2u);
    ctl.corrupt(0);
    ctl.erase(2);
  });
  SimConfig<ToyMsg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  run_rounds(sim, 2);
  // got[0] is not asserted: corrupting node 0 replaced its recording
  // actor with the adversary's.
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 0);  // only the erased recipient misses it
  EXPECT_EQ(got[3], 1);
  // fanout 4, minus the free self-copy, minus one erasure = 2 charged,
  // on the adversary side (sender corrupted in the same round).
  EXPECT_EQ(ledger.adversary_bits_total(), 200u);
  EXPECT_EQ(ledger.honest_bits_total(), 0u);
}

}  // namespace
}  // namespace ambb
