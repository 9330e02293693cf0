// Differential oracle for the shared lock-step multicast inbox (DESIGN.md
// §19). Under lockstep, Simulation::step delivers a round's multicasts
// once, into one shared stream, and gives a private inbox only to nodes
// whose deliveries differ from it. Whatever the representation, node v's
// round-(r+1) inbox must be exactly the round-r deliveries addressed to
// v, in delivery-index order, minus the erased ones. The reference here
// rebuilds that list from the adversary's own observe_round TrafficView
// and erase() calls, independently of the simulator's delivery loop.
//
// Scope: the lockstep policy only. The bounded/async timing path keeps a
// per-recipient fan-out (every recipient is own, the shared stream stays
// empty) and is covered by test_scheduler and the JSONL goldens.
#include "sim/net.hpp"
#include "toy_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace ambb {
namespace {

struct Msg {
  std::uint64_t tag = 0;
};

using Sim = ToySim<Msg>;

/// (round, from, tag): one delivery as a recipient saw it.
using Seen = std::tuple<Round, NodeId, std::uint64_t>;

std::uint64_t tag_of(Round r, NodeId from, std::uint32_t seq) {
  return (std::uint64_t{r} << 32) | (std::uint64_t{from} << 12) | seq;
}

/// Records its whole inbox every round, then sends 0-3 messages, each a
/// multicast or a unicast to a random node. Honest and Byzantine nodes
/// use the same logic; a corrupted node's replacement keeps writing to
/// the node's log.
class RandomActor final : public Actor<Msg> {
 public:
  RandomActor(std::uint64_t seed, std::vector<Seen>* log)
      : rng_(seed), log_(log) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>&, RoundApi<Msg>& api) override {
    for (const auto& d : inbox) {
      log_->emplace_back(r, d.from, d.msg().tag);
    }
    const auto sends = static_cast<std::uint32_t>(rng_.uniform(4));
    for (std::uint32_t i = 0; i < sends; ++i) {
      const Msg m{tag_of(r, api.self(), i)};
      if (rng_.chance(0.5)) {
        api.multicast(m);
      } else {
        api.send(static_cast<NodeId>(rng_.uniform(api.n())), m);
      }
    }
  }

 private:
  Rng rng_;
  std::vector<Seen>* log_;
};

/// Corrupts a few nodes up front and more adaptively, erases a random
/// share of the corrupt senders' deliveries, and writes the reference
/// inboxes from what it observed.
class EraserAdversary final : public Adversary<Msg> {
 public:
  EraserAdversary(std::uint32_t n, std::uint32_t f, std::uint64_t seed,
                  std::vector<std::vector<Seen>>* logs,
                  std::vector<std::vector<Seen>>* expected)
      : n_(n), f_(f), rng_(seed), logs_(logs), expected_(expected) {}

  std::vector<NodeId> initial_corruptions() override {
    std::vector<NodeId> out;
    for (std::uint64_t v : rng_.sample_distinct(n_, f_ / 2)) {
      out.push_back(static_cast<NodeId>(v));
    }
    return out;
  }

  std::unique_ptr<Actor<Msg>> actor_for(NodeId node) override {
    return std::make_unique<RandomActor>(rng_.next_u64(), &(*logs_)[node]);
  }

  void observe_round(Round r, const TrafficView<Msg>& traffic,
                     CorruptionCtl<Msg>& ctl) override {
    if (ctl.corruption_budget_left() > 0 && rng_.chance(0.2)) {
      ctl.corrupt(static_cast<NodeId>(rng_.uniform(n_)));
    }
    for (std::size_t d = 0; d < traffic.size(); ++d) {
      const auto ref = traffic[d];
      if (ctl.is_corrupt(ref.from) && rng_.chance(0.3)) {
        ctl.erase(d);
        ++erasures;
        continue;
      }
      (*expected_)[ref.to].emplace_back(r + 1, ref.from, ref.msg.tag);
    }
  }

  std::uint64_t erasures = 0;

 private:
  std::uint32_t n_;
  std::uint32_t f_;
  Rng rng_;
  std::vector<std::vector<Seen>>* logs_;
  std::vector<std::vector<Seen>>* expected_;
};

class SharedInbox
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(SharedInbox, EveryInboxMatchesTheDeliveryIndexReference) {
  const auto [n, seed] = GetParam();
  const std::uint32_t f = (n - 1) / 2;
  constexpr Round kRounds = 24;
  std::vector<std::vector<Seen>> logs(n), expected(n);

  CostLedger ledger({"toy"});
  Sim sim(n, f, &ledger, ToyPolicy{});
  Rng seeder(seed);
  for (NodeId v = 0; v < n; ++v) {
    sim.set_actor(v, std::make_unique<RandomActor>(seeder.next_u64(),
                                                   &logs[v]));
  }
  EraserAdversary adv(n, f, seeder.next_u64(), &logs, &expected);
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  sim.run_rounds(kRounds);

  // The last round's traffic is never delivered: drop it from the
  // reference.
  std::uint64_t delivered = 0;
  for (NodeId v = 0; v < n; ++v) {
    std::erase_if(expected[v],
                  [](const Seen& s) { return std::get<0>(s) == kRounds; });
    EXPECT_EQ(logs[v], expected[v]) << "node " << v;
    delivered += logs[v].size();
  }
  EXPECT_GT(delivered, 0u);
  if (f > 0) {
    EXPECT_GT(adv.erasures, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lockstep, SharedInbox,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 64u, 65u),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2})));

/// Scripted actor: runs `act` each round and keeps every inbox it saw.
class Script final : public Actor<Msg> {
 public:
  using Act = std::function<void(Round, RoundApi<Msg>&)>;
  explicit Script(Act act = nullptr, Round wake_every = 1)
      : act_(std::move(act)), wake_every_(wake_every) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>&, RoundApi<Msg>& api) override {
    ran.push_back(r);
    data.push_back(inbox.data());
    std::vector<std::uint64_t> tags;
    for (const auto& d : inbox) tags.push_back(d.msg().tag);
    inboxes.push_back(std::move(tags));
    if (act_) act_(r, api);
  }

  Round next_wake(Round r) const override {
    return wake_every_ == 0 ? kNeverWake : r + wake_every_;
  }

  std::vector<Round> ran;
  std::vector<const Delivery<Msg>*> data;
  std::vector<std::vector<std::uint64_t>> inboxes;

 private:
  Act act_;
  Round wake_every_;
};

/// Corrupts the listed nodes up front, hands them scripted actors, and
/// erases the listed delivery indices in round 0.
class ScriptedAdversary final : public Adversary<Msg> {
 public:
  ScriptedAdversary(std::vector<NodeId> corrupt, Script::Act act,
                    std::vector<std::size_t> erase, Round wake_every = 1)
      : corrupt_(std::move(corrupt)),
        act_(std::move(act)),
        erase_(std::move(erase)),
        wake_every_(wake_every) {}

  std::vector<NodeId> initial_corruptions() override { return corrupt_; }
  std::unique_ptr<Actor<Msg>> actor_for(NodeId) override {
    return std::make_unique<Script>(act_, wake_every_);
  }
  void observe_round(Round r, const TrafficView<Msg>&,
                     CorruptionCtl<Msg>& ctl) override {
    if (r != 0) return;
    for (std::size_t d : erase_) ctl.erase(d);
  }
  Round next_wake(Round r) const override {
    return wake_every_ == 0 ? kNeverWake : r + wake_every_;
  }

 private:
  std::vector<NodeId> corrupt_;
  Script::Act act_;
  std::vector<std::size_t> erase_;
  Round wake_every_;
};

/// Builds an n-node sim of Script actors; returns them for inspection.
std::vector<Script*> install(Sim& sim, const Script::Act& act,
                             Round wake_every = 1) {
  std::vector<Script*> out;
  for (NodeId v = 0; v < sim.n(); ++v) {
    auto a = std::make_unique<Script>(act, wake_every);
    out.push_back(a.get());
    sim.set_actor(v, std::move(a));
  }
  return out;
}

TEST(SharedInboxPinned, UnicastBetweenTwoMulticastsArrivesInRecordOrder) {
  CostLedger ledger({"toy"});
  Sim sim(3, 1, &ledger, ToyPolicy{});
  const auto actors = install(sim, [](Round r, RoundApi<Msg>& api) {
    if (r != 0 || api.self() != 0) return;
    api.multicast(Msg{1});
    api.send(1, Msg{2});
    api.multicast(Msg{3});
  });
  sim.run_rounds(2);
  using Tags = std::vector<std::uint64_t>;
  EXPECT_EQ(actors[0]->inboxes[1], (Tags{1, 3}));
  EXPECT_EQ(actors[1]->inboxes[1], (Tags{1, 2, 3}));
  EXPECT_EQ(actors[2]->inboxes[1], (Tags{1, 3}));
  // Nodes 0 and 2 read the shared stream; node 1 has its own inbox.
  EXPECT_EQ(actors[0]->data[1], actors[2]->data[1]);
  EXPECT_NE(actors[1]->data[1], actors[0]->data[1]);
}

TEST(SharedInboxPinned, ErasedMulticastDeliveryVanishesForThatRecipientOnly) {
  // Corrupt node 0 multicasts tags 1 and 2 (delivery indices 0-3 and
  // 4-7); erasing index 2 and 5 removes tag 1 for node 2 and tag 2 for
  // node 1, nothing else.
  CostLedger ledger({"toy"});
  Sim sim(4, 1, &ledger, ToyPolicy{});
  const auto actors = install(sim, nullptr);
  ScriptedAdversary adv(
      {0},
      [](Round r, RoundApi<Msg>& api) {
        if (r != 0) return;
        api.multicast(Msg{1});
        api.multicast(Msg{2});
      },
      {2, 5});
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  const auto* byz = static_cast<const Script*>(sim.actor(0));
  sim.run_rounds(2);
  using Tags = std::vector<std::uint64_t>;
  EXPECT_EQ(byz->inboxes[1], (Tags{1, 2}));
  EXPECT_EQ(actors[1]->inboxes[1], (Tags{1}));
  EXPECT_EQ(actors[2]->inboxes[1], (Tags{2}));
  EXPECT_EQ(actors[3]->inboxes[1], (Tags{1, 2}));
  EXPECT_EQ(sim.round_stats()[0].erasures, 2u);
}

TEST(SharedInboxPinned, SleeperWhoseOnlyDeliveryWasErasedStaysAsleep) {
  // Everyone sleeps after round 0. Corrupt node 0 sends node 1 one
  // unicast in round 0 and multicasts once; the adversary erases the
  // unicast and every copy of the multicast. No inbox holds mail in
  // round 1 — even though the shared stream carries the multicast, every
  // node that would read it is own — so round 1 takes the O(1) path.
  CostLedger ledger({"toy"});
  Sim sim(3, 1, &ledger, ToyPolicy{});
  const auto actors = install(sim, nullptr, /*wake_every=*/0);
  ScriptedAdversary adv(
      {0},
      [](Round r, RoundApi<Msg>& api) {
        if (r != 0) return;
        api.send(1, Msg{7});
        api.multicast(Msg{8});
      },
      {0, 1, 2, 3}, /*wake_every=*/0);
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  sim.run_rounds(4);
  for (NodeId v = 1; v < 3; ++v) {
    EXPECT_EQ(actors[v]->ran, std::vector<Round>{0}) << "node " << v;
  }
  ASSERT_EQ(sim.round_stats().size(), 4u);
  EXPECT_EQ(sim.round_stats()[0].erasures, 4u);
  for (Round r = 1; r < 4; ++r) {
    EXPECT_EQ(sim.round_stats()[r].ns_total(), 0u) << "round " << r;
  }
}

TEST(SharedInboxPinned, AllMulticastRoundSharesOneInboxBuffer) {
  // Every node multicasts in round 0, so in round 1 every node reads the
  // same shared stream: one buffer, n entries, the same for all.
  constexpr std::uint32_t kN = 7;
  CostLedger ledger({"toy"});
  Sim sim(kN, 1, &ledger, ToyPolicy{});
  const auto actors = install(sim, [](Round r, RoundApi<Msg>& api) {
    if (r == 0) api.multicast(Msg{api.self()});
  });
  sim.run_rounds(2);
  const Delivery<Msg>* shared = actors[0]->data[1];
  ASSERT_NE(shared, nullptr);
  for (const Script* a : actors) {
    EXPECT_EQ(a->data[1], shared);
    EXPECT_EQ(a->inboxes[1].size(), kN);
  }
}

}  // namespace
}  // namespace ambb
