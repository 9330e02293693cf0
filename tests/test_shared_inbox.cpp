// Differential oracle for the shared lock-step multicast inbox (DESIGN.md
// §19). Under lockstep, Simulation::step delivers a round's multicasts
// once, into one shared stream, and gives a private inbox only to nodes
// whose deliveries differ from it; own inboxes are slices of one flat
// buffer, laid out from per-node counts before they are filled. Group
// records (DESIGN.md §22) land like the unicasts they stand for. Whatever
// the representation, node v's round-(r+1) inbox must be exactly the
// round-r deliveries addressed to v, in delivery-index order, minus the
// erased ones. The reference here rebuilds that list per node from the
// adversary's own observe_round TrafficView and erase() calls,
// independently of the simulator's delivery loop. It runs under lockstep
// and under bounded:2, where every recipient is own and deliveries that
// matured from earlier rounds land first; there the reference reads each
// deferred delivery's landing round from its kDeliveryDelayed trace
// event.
//
// Record identity: each lock-step delivery names its record in last
// round's log, and RecordVerdicts caches one verdict per record per
// round. The last tests pin both, down to an Algorithm 4 round in which
// one Byzantine node multicasts a forged and a valid share on the same
// accusation: a cache keyed on the accusation instead of the record
// would reject the valid one. Under lock-step and bounded:2, only the
// valid share may land in the run's accusation share table.
#include "sim/net.hpp"
#include "toy_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bb/linear_bb.hpp"
#include "bb/quadratic_bb.hpp"
#include "common/rng.hpp"
#include "crypto/signer.hpp"
#include "crypto/threshold.hpp"
#include "graph/expander.hpp"
#include "runner/drive.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

#include "share_table.hpp"

namespace ambb {
namespace {

/// How a test message was sent.
enum class Shape : std::uint8_t { kUnicast, kMulticast, kGroup };

struct Msg {
  std::uint64_t tag = 0;
  Shape shape = Shape::kUnicast;

  bool operator==(const Msg&) const = default;
};

using Sim = ToySim<Msg>;

/// ToyPolicy opted in to repeat elision. The key is deliberately weak:
/// tags 2k and 2k+1 share it, so only == can tell them apart.
struct RepeatPolicy : ToyPolicy {
  std::uint64_t repeat_key(const Msg& m) const {
    return (m.tag / 2) * 0x9E3779B97F4A7C15ULL;
  }
};
static_assert(ElidesRepeats<RepeatPolicy, Msg>);
static_assert(!ElidesRepeats<ToyPolicy, Msg>);

/// (round, from, tag): one delivery as a recipient saw it.
using Seen = std::tuple<Round, NodeId, std::uint64_t>;

std::uint64_t tag_of(Round r, NodeId from, std::uint32_t seq) {
  return (std::uint64_t{r} << 32) | (std::uint64_t{from} << 12) | seq;
}

/// Records its whole inbox every round, then sends 0-3 messages, each a
/// multicast, a unicast to a random node or a group to 1-4 random nodes
/// (repeats allowed). Honest and Byzantine nodes use the same logic; a
/// corrupted node's replacement keeps writing to the node's log.
class RandomActor final : public Actor<Msg> {
 public:
  RandomActor(NodeId self, std::uint32_t n, std::uint64_t seed,
              std::vector<Seen>* log)
      : self_(self), n_(n), rng_(seed), log_(log) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>&, RoundApi<Msg>& api) override {
    for (const auto& d : inbox) {
      log_->emplace_back(r, d.from, d.msg().tag);
    }
    const auto sends = static_cast<std::uint32_t>(rng_.uniform(4));
    for (std::uint32_t i = 0; i < sends; ++i) {
      Msg m{tag_of(r, self_, i)};
      m.shape = static_cast<Shape>(rng_.uniform(3));
      if (m.shape == Shape::kMulticast) {
        api.multicast(m);
      } else if (m.shape == Shape::kUnicast) {
        api.send(static_cast<NodeId>(rng_.uniform(n_)), m);
      } else {
        group_.resize(1 + rng_.uniform(4));
        for (NodeId& v : group_) {
          v = static_cast<NodeId>(rng_.uniform(n_));
        }
        api.send_group(group_, m);
      }
    }
  }

 private:
  NodeId self_;
  std::uint32_t n_;
  Rng rng_;
  std::vector<Seen>* log_;
  std::vector<NodeId> group_;
};

/// One surviving delivery as the adversary saw it at emission.
struct Sent {
  Round round;
  std::size_t index;  ///< delivery index within its round
  NodeId from;
  NodeId to;
  std::uint64_t tag;
};

/// Corrupts a few nodes up front and more adaptively, erases a random
/// share of the corrupt senders' deliveries and, when the policy allows
/// it, delays a random share of the rest. Keeps every surviving delivery
/// with its delivery index for the reference, and counts the rounds whose
/// traffic mixes unicasts, multicasts, groups and erasures.
class EraserAdversary final : public Adversary<Msg> {
 public:
  EraserAdversary(std::uint32_t n, std::uint32_t f, std::uint64_t seed,
                  std::vector<std::vector<Seen>>* logs)
      : n_(n), f_(f), rng_(seed), logs_(logs) {}

  std::vector<NodeId> initial_corruptions() override {
    std::vector<NodeId> out;
    for (std::uint64_t v : rng_.sample_distinct(n_, f_ / 2)) {
      out.push_back(static_cast<NodeId>(v));
    }
    return out;
  }

  std::unique_ptr<Actor<Msg>> actor_for(NodeId node) override {
    return std::make_unique<RandomActor>(node, n_, rng_.next_u64(),
                                         &(*logs_)[node]);
  }

  void observe_round(Round r, const TrafficView<Msg>& traffic,
                     CorruptionCtl<Msg>& ctl) override {
    if (ctl.corruption_budget_left() > 0 && rng_.chance(0.2)) {
      ctl.corrupt(static_cast<NodeId>(rng_.uniform(n_)));
    }
    bool shapes[3] = {false, false, false};
    bool erased = false;
    for (std::size_t d = 0; d < traffic.size(); ++d) {
      const auto ref = traffic[d];
      shapes[static_cast<int>(ref.msg.shape)] = true;
      if (ctl.is_corrupt(ref.from) && rng_.chance(0.3)) {
        ctl.erase(d);
        erased = true;
        continue;
      }
      if (!ctl.net().lockstep() && rng_.chance(0.1)) {
        ctl.delay(d, 1 + static_cast<std::uint32_t>(rng_.uniform(2)));
      }
      sent.push_back(Sent{r, d, ref.from, ref.to, ref.msg.tag});
    }
    if (shapes[0] && shapes[1] && shapes[2] && erased) ++mixed_rounds;
  }

  std::vector<Sent> sent;
  std::uint32_t mixed_rounds = 0;

 private:
  std::uint32_t n_;
  std::uint32_t f_;
  Rng rng_;
  std::vector<std::vector<Seen>>* logs_;
};

class SharedInbox
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::uint32_t, std::uint64_t>> {};

TEST_P(SharedInbox, EveryInboxMatchesAPerNodeReference) {
  const auto& [net, n, seed] = GetParam();
  const std::uint32_t f = (n - 1) / 2;
  constexpr Round kRounds = 24;
  std::vector<std::vector<Seen>> logs(n);

  CostLedger ledger({"toy"});
  Sim sim(n, f, &ledger, ToyPolicy{});
  Rng seeder(seed);
  for (NodeId v = 0; v < n; ++v) {
    sim.set_actor(v, std::make_unique<RandomActor>(v, n, seeder.next_u64(),
                                                   &logs[v]));
  }
  EraserAdversary adv(n, f, seeder.next_u64(), &logs);
  trace::CollectorSink sink;
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sc.net = make_net_policy(net, seed);
  sc.trace = &sink;
  sim.configure(sc);
  run_rounds(sim, kRounds);

  // The landing round of every deferred delivery, from the trace; any
  // other surviving delivery lands one round after it was sent.
  std::map<std::pair<Round, std::size_t>, Round> lands;
  for (const auto& ev : sink.events()) {
    if (ev.kind != trace::EventKind::kDeliveryDelayed) continue;
    lands[{ev.round, ev.count}] = ev.value;
  }
  // Per node, in inbox order: deliveries landing earlier first; within
  // one landing round the deferred ones (sent earlier) first, then in
  // emission order, which is (sent round, delivery index).
  using Key = std::tuple<Round, Round, std::size_t>;
  std::vector<std::vector<std::pair<Key, Seen>>> per_node(n);
  for (const Sent& s : adv.sent) {
    const auto it = lands.find({s.round, s.index});
    const Round land = it == lands.end() ? s.round + 1 : it->second;
    if (land >= kRounds) continue;  // never delivered within the run
    per_node[s.to].emplace_back(Key{land, s.round, s.index},
                                Seen{land, s.from, s.tag});
  }
  std::uint64_t delivered = 0;
  for (NodeId v = 0; v < n; ++v) {
    std::sort(per_node[v].begin(), per_node[v].end());
    std::vector<Seen> expected;
    for (const auto& [key, seen] : per_node[v]) expected.push_back(seen);
    EXPECT_EQ(logs[v], expected) << "node " << v;
    delivered += logs[v].size();
  }
  EXPECT_GT(delivered, 0u);
  if (f > 0) {
    EXPECT_GT(adv.mixed_rounds, 0u);
  }
  if (net != "lockstep") {
    EXPECT_FALSE(lands.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Nets, SharedInbox,
    ::testing::Combine(::testing::Values(std::string("lockstep"),
                                         std::string("bounded:2")),
                       ::testing::Values(1u, 2u, 7u, 64u, 65u),
                       ::testing::Values(std::uint64_t{1},
                                         std::uint64_t{2})));

/// Scripted actor: runs `act` each round and keeps every inbox it saw.
class Script final : public Actor<Msg> {
 public:
  using Act = std::function<void(Round, NodeId self, RoundApi<Msg>&)>;
  explicit Script(NodeId self, Act act = nullptr, Round wake_every = 1)
      : self_(self), act_(std::move(act)), wake_every_(wake_every) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>&, RoundApi<Msg>& api) override {
    ran.push_back(r);
    data.push_back(inbox.data());
    std::vector<std::uint64_t> tags;
    std::vector<std::uint32_t> ids;
    for (const auto& d : inbox) {
      tags.push_back(d.msg().tag);
      ids.push_back(d.record);
    }
    inboxes.push_back(std::move(tags));
    records.push_back(std::move(ids));
    if (act_) act_(r, self_, api);
  }

  Round next_wake(Round r) const override {
    return wake_every_ == 0 ? kNeverWake : r + wake_every_;
  }

  std::vector<Round> ran;
  std::vector<const Delivery<Msg>*> data;
  std::vector<std::vector<std::uint64_t>> inboxes;
  std::vector<std::vector<std::uint32_t>> records;  ///< Delivery::record

 private:
  NodeId self_;
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
  std::unique_ptr<Actor<Msg>> actor_for(NodeId node) override {
    return std::make_unique<Script>(node, act_, wake_every_);
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
template <typename AnySim>
std::vector<Script*> install(AnySim& sim, std::uint32_t n,
                             const Script::Act& act, Round wake_every = 1) {
  std::vector<Script*> out;
  for (NodeId v = 0; v < n; ++v) {
    auto a = std::make_unique<Script>(v, act, wake_every);
    out.push_back(a.get());
    sim.set_actor(v, std::move(a));
  }
  return out;
}

TEST(SharedInboxPinned, UnicastBetweenTwoMulticastsArrivesInRecordOrder) {
  CostLedger ledger({"toy"});
  Sim sim(3, 1, &ledger, ToyPolicy{});
  const auto actors = install(
      sim, 3, [](Round r, NodeId self, RoundApi<Msg>& api) {
        if (r != 0 || self != 0) return;
        api.multicast(Msg{1});
        api.send(1, Msg{2});
        api.multicast(Msg{3});
      });
  run_rounds(sim, 2);
  using Tags = std::vector<std::uint64_t>;
  EXPECT_EQ(actors[0]->inboxes[1], (Tags{1, 3}));
  EXPECT_EQ(actors[1]->inboxes[1], (Tags{1, 2, 3}));
  EXPECT_EQ(actors[2]->inboxes[1], (Tags{1, 3}));
  // Nodes 0 and 2 read the shared stream; node 1 has its own inbox.
  EXPECT_EQ(actors[0]->data[1], actors[2]->data[1]);
  EXPECT_NE(actors[1]->data[1], actors[0]->data[1]);
  // Shared or own, each delivery names its record in round 0's log.
  using Ids = std::vector<std::uint32_t>;
  EXPECT_EQ(actors[0]->records[1], (Ids{0, 2}));
  EXPECT_EQ(actors[1]->records[1], (Ids{0, 1, 2}));
  EXPECT_EQ(actors[2]->records[1], (Ids{0, 2}));
}

TEST(SharedInboxPinned, GroupRecipientsShareOneRecordId) {
  // Node 0 multicasts, sends one group to nodes 2 and 1, and a unicast to
  // node 1. Each group recipient gets it in record order, under the
  // group's one record id, like a multicast's recipients.
  CostLedger ledger({"toy"});
  Sim sim(3, 1, &ledger, ToyPolicy{});
  const auto actors = install(
      sim, 3, [](Round r, NodeId self, RoundApi<Msg>& api) {
        if (r != 0 || self != 0) return;
        api.multicast(Msg{1});
        const NodeId to[] = {2, 1};
        api.send_group(to, Msg{2});
        api.send(1, Msg{3});
      });
  run_rounds(sim, 2);
  using Tags = std::vector<std::uint64_t>;
  using Ids = std::vector<std::uint32_t>;
  EXPECT_EQ(actors[0]->inboxes[1], (Tags{1}));
  EXPECT_EQ(actors[1]->inboxes[1], (Tags{1, 2, 3}));
  EXPECT_EQ(actors[2]->inboxes[1], (Tags{1, 2}));
  EXPECT_EQ(actors[0]->records[1], (Ids{0}));
  EXPECT_EQ(actors[1]->records[1], (Ids{0, 1, 2}));
  EXPECT_EQ(actors[2]->records[1], (Ids{0, 1}));
  // The group counts once per recipient in the round's records.
  const std::vector<RoundStats> stats = sim.take_round_stats();
  EXPECT_EQ(stats[0].records, 4u);
  EXPECT_EQ(stats[0].deliveries, 6u);
}

TEST(SharedInboxPinned, TimingPathDeliveriesNameNoRecord) {
  // Off lockstep every delivery may be deferred and is copied per
  // recipient, so none of them may claim a record id.
  CostLedger ledger({"toy"});
  Sim sim(3, 1, &ledger, ToyPolicy{});
  const auto actors = install(
      sim, 3, [](Round r, NodeId, RoundApi<Msg>& api) {
        if (r < 4) api.multicast(Msg{r});
      });
  SimConfig<Msg> sc;
  sc.net = make_net_policy("bounded:1", 3);
  sim.configure(sc);
  run_rounds(sim, 8);
  std::size_t seen = 0;
  for (const Script* a : actors) {
    for (const auto& ids : a->records) {
      for (std::uint32_t id : ids) {
        EXPECT_EQ(id, kNoRecord);
        ++seen;
      }
    }
  }
  EXPECT_EQ(seen, 4u * 3u * 3u);
}

TEST(RecordVerdicts, OneCheckPerRecordPerRound) {
  RecordVerdicts table;
  int calls = 0;
  const auto check = [&calls](bool verdict) {
    return [&calls, verdict] {
      ++calls;
      return verdict;
    };
  };
  const RecordVerdicts::Stats before = RecordVerdicts::stats();
  EXPECT_TRUE(table.get(5, 3, check(true)));
  EXPECT_TRUE(table.get(5, 3, check(false)));   // cached for round 5
  EXPECT_FALSE(table.get(5, 0, check(false)));  // another record
  EXPECT_FALSE(table.get(5, 0, check(true)));
  EXPECT_EQ(calls, 2);
  // A new round invalidates every entry without a clear.
  EXPECT_FALSE(table.get(6, 3, check(false)));
  EXPECT_EQ(calls, 3);
  // kNoRecord is checked every time and never cached.
  EXPECT_TRUE(table.get(6, kNoRecord, check(true)));
  EXPECT_FALSE(table.get(6, kNoRecord, check(false)));
  EXPECT_EQ(calls, 5);
  const RecordVerdicts::Stats after = RecordVerdicts::stats();
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(after.misses - before.misses, 3u);
}

TEST(SharedInboxPinned, ErasedMulticastDeliveryVanishesForThatRecipientOnly) {
  // Corrupt node 0 multicasts tags 1 and 2 (delivery indices 0-3 and
  // 4-7); erasing index 2 and 5 removes tag 1 for node 2 and tag 2 for
  // node 1, nothing else.
  CostLedger ledger({"toy"});
  Sim sim(4, 1, &ledger, ToyPolicy{});
  const auto actors = install(sim, 4, nullptr);
  ScriptedAdversary adv(
      {0},
      [](Round r, NodeId, RoundApi<Msg>& api) {
        if (r != 0) return;
        api.multicast(Msg{1});
        api.multicast(Msg{2});
      },
      {2, 5});
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  const auto* byz = static_cast<const Script*>(sim.actor(0));
  run_rounds(sim, 2);
  using Tags = std::vector<std::uint64_t>;
  EXPECT_EQ(byz->inboxes[1], (Tags{1, 2}));
  EXPECT_EQ(actors[1]->inboxes[1], (Tags{1}));
  EXPECT_EQ(actors[2]->inboxes[1], (Tags{2}));
  EXPECT_EQ(actors[3]->inboxes[1], (Tags{1, 2}));
  EXPECT_EQ(sim.take_round_stats()[0].erasures, 2u);
}

TEST(SharedInboxPinned, SleeperWhoseOnlyDeliveryWasErasedStaysAsleep) {
  // Everyone sleeps after round 0. Corrupt node 0 sends node 1 one
  // unicast in round 0 and multicasts once; the adversary erases the
  // unicast and every copy of the multicast. No inbox holds mail in
  // round 1 — even though the shared stream carries the multicast, every
  // node that would read it is own — so round 1 takes the O(1) path.
  CostLedger ledger({"toy"});
  Sim sim(3, 1, &ledger, ToyPolicy{});
  const auto actors = install(sim, 3, nullptr, /*wake_every=*/0);
  ScriptedAdversary adv(
      {0},
      [](Round r, NodeId, RoundApi<Msg>& api) {
        if (r != 0) return;
        api.send(1, Msg{7});
        api.multicast(Msg{8});
      },
      {0, 1, 2, 3}, /*wake_every=*/0);
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  run_rounds(sim, 4);
  for (NodeId v = 1; v < 3; ++v) {
    EXPECT_EQ(actors[v]->ran, std::vector<Round>{0}) << "node " << v;
  }
  const std::vector<RoundStats> stats = sim.take_round_stats();
  ASSERT_EQ(stats.size(), 1u);  // rounds 1-3 are elided: no rows
  EXPECT_EQ(stats[0].erasures, 4u);
  EXPECT_EQ(sim.elided_rounds(), 3u);
}

TEST(SharedInboxPinned, AllMulticastRoundSharesOneInboxBuffer) {
  // Every node multicasts in round 0, so in round 1 every node reads the
  // same shared stream: one buffer, n entries, the same for all.
  constexpr std::uint32_t kN = 7;
  CostLedger ledger({"toy"});
  Sim sim(kN, 1, &ledger, ToyPolicy{});
  const auto actors = install(
      sim, kN, [](Round r, NodeId self, RoundApi<Msg>& api) {
        if (r == 0) api.multicast(Msg{self});
      });
  run_rounds(sim, 2);
  const Delivery<Msg>* shared = actors[0]->data[1];
  ASSERT_NE(shared, nullptr);
  for (const Script* a : actors) {
    EXPECT_EQ(a->data[1], shared);
    EXPECT_EQ(a->inboxes[1].size(), kN);
  }
}

/// One round-0 mix of repeats for the pinned repeat-elision test, with
/// node 3 corrupt. Records, in order: r0 node 0 multicasts tag 1; r1 node
/// 0 sends tag 9 to node 2; r2 node 1 multicasts tag 1 (a repeat); r3
/// node 1 multicasts tag 2; r4 node 2 multicasts tag 1 (a repeat); r5
/// node 2 multicasts tag 3 (shares tag 2's key, not a repeat); r6 node 3
/// multicasts tag 2 (a repeat), whose delivery to node 1 (index 22) is
/// erased.
struct RepeatRun {
  std::vector<std::vector<std::uint64_t>> tags;  ///< round-1 inbox per node
  std::vector<std::vector<std::uint32_t>> ids;   ///< their record ids
  RoundStats round0;
  std::uint64_t honest_bits = 0;
  std::uint64_t adversary_bits = 0;
  RepeatIndex::Stats seen;  ///< what the index counted in the run
};

template <typename Policy>
RepeatRun run_repeats() {
  constexpr std::uint32_t kN = 4;
  const Script::Act act = [](Round r, NodeId self, RoundApi<Msg>& api) {
    if (r != 0) return;
    switch (self) {
      case 0:
        api.multicast(Msg{1});
        api.send(2, Msg{9});
        break;
      case 1:
        api.multicast(Msg{1});
        api.multicast(Msg{2});
        break;
      case 2:
        api.multicast(Msg{1});
        api.multicast(Msg{3});
        break;
      default:
        api.multicast(Msg{2});
        break;
    }
  };
  CostLedger ledger({"toy"});
  Simulation<Msg, Policy> sim(kN, 1, &ledger, Policy{});
  const auto actors = install(sim, kN, act);
  ScriptedAdversary adv({3}, act, {22});
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  const RepeatIndex::Stats before = RepeatIndex::stats();
  run_rounds(sim, 2);
  const RepeatIndex::Stats after = RepeatIndex::stats();
  RepeatRun out;
  for (NodeId v = 0; v < kN; ++v) {
    const auto* a = v < 3 ? actors[v] : static_cast<const Script*>(sim.actor(v));
    out.tags.push_back(a->inboxes.at(1));
    out.ids.push_back(a->records.at(1));
  }
  out.round0 = sim.take_round_stats().at(0);
  out.honest_bits = ledger.honest_bits_total();
  out.adversary_bits = ledger.adversary_bits_total();
  out.seen.repeats = after.repeats - before.repeats;
  out.seen.multicasts = after.multicasts - before.multicasts;
  return out;
}

TEST(SharedInboxRepeats, HonestSharedReadersGetFirstCopiesOnly) {
  const RepeatRun got = run_repeats<RepeatPolicy>();
  using Tags = std::vector<std::uint64_t>;
  using Ids = std::vector<std::uint32_t>;
  // Node 0 reads the shared stream: first copies, in record order, each
  // under its own record id.
  EXPECT_EQ(got.tags[0], (Tags{1, 2, 3}));
  EXPECT_EQ(got.ids[0], (Ids{0, 3, 5}));
  // Node 1 lost a delivery to erasure and node 2 got a unicast: both are
  // own and see every copy; so does node 3, the Byzantine shared reader.
  EXPECT_EQ(got.tags[1], (Tags{1, 1, 2, 1, 3}));
  EXPECT_EQ(got.ids[1], (Ids{0, 2, 3, 4, 5}));
  EXPECT_EQ(got.tags[2], (Tags{1, 9, 1, 2, 1, 3, 2}));
  EXPECT_EQ(got.ids[2], (Ids{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(got.tags[3], (Tags{1, 1, 2, 1, 3, 2}));
  EXPECT_EQ(got.ids[3], (Ids{0, 2, 3, 4, 5, 6}));
  EXPECT_EQ(got.seen.repeats, 3u);
  EXPECT_EQ(got.seen.multicasts, 6u);
}

TEST(SharedInboxRepeats, ElisionChangesNoCountOrCharge) {
  // Without repeat_key every reader gets every copy; the round's counts
  // and charges are the same either way.
  const RepeatRun got = run_repeats<RepeatPolicy>();
  const RepeatRun ref = run_repeats<ToyPolicy>();
  using Tags = std::vector<std::uint64_t>;
  EXPECT_EQ(ref.tags[0], (Tags{1, 1, 2, 1, 3, 2}));
  for (NodeId v = 1; v < 4; ++v) EXPECT_EQ(got.tags[v], ref.tags[v]);
  EXPECT_EQ(ref.seen.multicasts, 0u);
  EXPECT_EQ(got.round0.records, ref.round0.records);
  EXPECT_EQ(got.round0.deliveries, ref.round0.deliveries);
  EXPECT_EQ(got.round0.erasures, 1u);
  EXPECT_EQ(got.honest_bits, ref.honest_bits);
  EXPECT_EQ(got.adversary_bits, ref.adversary_bits);
  EXPECT_GT(got.honest_bits, 0u);
}

TEST(SharedInboxRepeats, IndexGrowsPastManyDistinctPayloads) {
  // 300 distinct payloads, each multicast twice by different nodes, make
  // the index double several times; every second copy is still found.
  constexpr std::uint32_t kN = 3;
  CostLedger ledger({"toy"});
  Simulation<Msg, RepeatPolicy> sim(kN, 1, &ledger, RepeatPolicy{});
  const auto actors = install(
      sim, kN, [](Round r, NodeId self, RoundApi<Msg>& api) {
        if (r != 0 || self == 2) return;
        for (std::uint64_t t = 0; t < 300; ++t) api.multicast(Msg{t});
      });
  const RepeatIndex::Stats before = RepeatIndex::stats();
  run_rounds(sim, 2);
  EXPECT_EQ(RepeatIndex::stats().repeats - before.repeats, 300u);
  std::vector<std::uint64_t> want(300);
  for (std::uint64_t t = 0; t < 300; ++t) want[t] = t;
  for (const Script* a : actors) EXPECT_EQ(a->inboxes.at(1), want);
}

}  // namespace
}  // namespace ambb

namespace ambb::linear {
namespace {

constexpr std::uint32_t kN = 8;
constexpr std::uint32_t kF = 2;
constexpr NodeId kForger = 0;
constexpr NodeId kTarget = 3;

/// Byzantine node: in round 0 it multicasts two accusations of kTarget,
/// both signed "by" itself, in the given order.
class TwoShares final : public Actor<Msg> {
 public:
  TwoShares(SigShare first, SigShare second)
      : first_(first), second_(second) {}

  void on_round(Round r, std::span<const Delivery<Msg>>,
                const TrafficView<Msg>&, RoundApi<Msg>& api) override {
    if (r != 0) return;
    for (const SigShare& s : {first_, second_}) {
      Msg m;
      m.kind = Kind::kAccuse;
      m.slot = 1;
      m.accused = kTarget;
      m.share = s;
      api.multicast(m);
    }
  }

 private:
  SigShare first_;
  SigShare second_;
};

/// Corrupts kForger and records every accusation forward.
class ForgerAdversary final : public Adversary<Msg> {
 public:
  ForgerAdversary(SigShare first, SigShare second)
      : first_(first), second_(second) {}

  std::vector<NodeId> initial_corruptions() override { return {kForger}; }
  std::unique_ptr<Actor<Msg>> actor_for(NodeId) override {
    return std::make_unique<TwoShares>(first_, second_);
  }
  void observe_round(Round, const TrafficView<Msg>& traffic,
                     CorruptionCtl<Msg>&) override {
    for (std::size_t d = 0; d < traffic.size(); ++d) {
      const auto ref = traffic[d];
      if (ref.msg.kind == Kind::kAccuseForward) {
        forwards.emplace_back(ref.from, ref.to, ref.msg.share);
      }
    }
  }

  std::vector<std::tuple<NodeId, NodeId, SigShare>> forwards;

 private:
  SigShare first_;
  SigShare second_;
};

/// Runs the forger's two shares in the given order until every copy has
/// landed (rounds 0 and 1 under lock-step); every honest node must accept
/// exactly the valid share, and only it may land in the share table.
void expect_valid_share_accepted(bool forged_first,
                                 const std::string& net = "lockstep") {
  RunConfig core;
  core.n = kN;
  core.f = kF;
  core.slots = 1;
  core.seed = 5;
  RunState st(core, kind_names());
  KeyRegistry registry(kN, core.seed);
  ThresholdScheme th(registry, kN - kF);
  const Graph expander = build_expander(kN, 0.1, core.seed);
  const Context ctx =
      make_context(core, st, Options::paper(), registry, th, expander);

  const SigShare valid = th.share(kForger, accuse_digest(kTarget));
  SigShare forged = valid;
  forged.mac[0] ^= 0x5A;
  ForgerAdversary adv(forged_first ? forged : valid,
                      forged_first ? valid : forged);

  Sim sim(kN, kF, &st.ledger, CostPolicy{ctx.wire, ctx.sched});
  for (NodeId v = 0; v < kN; ++v) {
    sim.set_actor(v, std::make_unique<LinearNode>(v, &ctx));
  }
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sc.net = make_net_policy(net, core.seed);
  sim.configure(sc);
  const bool lockstep = net == "lockstep";
  const RecordVerdicts::Stats before = RecordVerdicts::stats();
  // A copy lands up to max_extra() rounds late, and so does its forward.
  const std::uint64_t rounds = 2 + 2 * sc.net.max_extra();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    sim.step();
    share_table::expect_sound(ctx, sim);
  }
  const RecordVerdicts::Stats after = RecordVerdicts::stats();
  EXPECT_EQ(ctx.accuse_share(kForger, kTarget), valid);

  // Under lock-step both shares reached every honest node through the
  // shared stream, so the cache was used, once per record.
  if (lockstep) {
    EXPECT_EQ(after.misses - before.misses, forged_first ? 2u : 1u);
    EXPECT_GT(after.hits - before.hits, 0u);
  }
  std::vector<std::tuple<NodeId, NodeId, SigShare>> expected;
  for (NodeId u = 0; u < kN; ++u) {
    if (u == kForger) continue;
    const auto* node = dynamic_cast<const LinearNode*>(sim.actor(u));
    ASSERT_NE(node, nullptr);
    EXPECT_TRUE(node->seen_accuse(kForger, kTarget)) << "node " << u;
    if (u != kTarget) expected.emplace_back(u, kTarget, valid);
  }
  // (*2): each honest node forwards the share it accepted, and only it;
  // off lock-step the forwards go out in the rounds their shares land.
  if (!lockstep) {
    std::sort(adv.forwards.begin(), adv.forwards.end(),
              [](const auto& x, const auto& y) {
                return std::tie(std::get<0>(x), std::get<1>(x)) <
                       std::tie(std::get<0>(y), std::get<1>(y));
              });
  }
  EXPECT_EQ(adv.forwards, expected);
}

TEST(RecordVerdictsAlg4, ForgedThenValidShareOnOneAccusation) {
  expect_valid_share_accepted(/*forged_first=*/true);
}

TEST(RecordVerdictsAlg4, ValidThenForgedShareOnOneAccusation) {
  expect_valid_share_accepted(/*forged_first=*/false);
}

TEST(RecordVerdictsAlg4, ForgedThenValidShareUnderBoundedDelay) {
  expect_valid_share_accepted(/*forged_first=*/true, "bounded:2");
}

TEST(RecordVerdictsAlg4, ValidThenForgedShareUnderBoundedDelay) {
  expect_valid_share_accepted(/*forged_first=*/false, "bounded:2");
}

}  // namespace
}  // namespace ambb::linear

namespace ambb::quad {
namespace {

constexpr std::uint32_t kN = 6;
constexpr std::uint32_t kF = 2;
constexpr NodeId kForger = 5;
constexpr NodeId kTarget = 2;

/// Byzantine node: in round 0 it multicasts two accusations of kTarget,
/// signed "by" itself, equal but for the MAC, in the given order.
class TwinAccusations final : public Actor<Msg> {
 public:
  TwinAccusations(Signature first, Signature second)
      : first_(first), second_(second) {}

  void on_round(Round r, std::span<const Delivery<Msg>>,
                const TrafficView<Msg>&, RoundApi<Msg>& api) override {
    if (r != 0) return;
    for (const Signature& sig : {first_, second_}) {
      Msg m;
      m.kind = Kind::kAccuse;
      m.slot = 1;
      m.accused = kTarget;
      m.sig = sig;
      api.multicast(m);
    }
  }

 private:
  Signature first_;
  Signature second_;
};

/// Corrupts kForger and records, once per multicast, every honest
/// forward of an accusation it signed: (forwarder, signature).
class TwinAdversary final : public Adversary<Msg> {
 public:
  TwinAdversary(Signature first, Signature second)
      : first_(first), second_(second) {}

  std::vector<NodeId> initial_corruptions() override { return {kForger}; }
  std::unique_ptr<Actor<Msg>> actor_for(NodeId) override {
    return std::make_unique<TwinAccusations>(first_, second_);
  }
  void observe_round(Round, const TrafficView<Msg>& traffic,
                     CorruptionCtl<Msg>& ctl) override {
    for (std::size_t d = 0; d < traffic.size(); ++d) {
      const auto ref = traffic[d];
      if (ref.to != 0 || ctl.is_corrupt(ref.from)) continue;
      if (ref.msg.kind == Kind::kAccuse && ref.msg.sig.signer == kForger) {
        forwards.emplace_back(ref.from, ref.msg.sig);
      }
    }
  }

  std::vector<std::pair<NodeId, Signature>> forwards;

 private:
  Signature first_;
  Signature second_;
};

/// One Byzantine node multicasts a forged and a valid accusation that
/// differ only in the MAC, in one round. Under lock-step both reach the
/// honest nodes through the shared stream, where exact repeats are left
/// out: were the twins taken for repeats, the second would never arrive.
/// Every honest node must accept the valid one, drop the edge and
/// forward the valid accusation exactly once.
void expect_valid_twin_accepted(bool forged_first,
                                const std::string& net = "lockstep") {
  RunConfig core;
  core.n = kN;
  core.f = kF;
  core.slots = 1;
  core.seed = 5;
  RunState st(core, kind_names());
  KeyRegistry registry(kN, core.seed);
  Context ctx;
  ctx.n = kN;
  ctx.f = kF;
  ctx.wire = WireModel{kN, kDefaultKappaBits, kDefaultValueBits};
  ctx.sched = Schedule{kN, kF};
  ctx.registry = &registry;
  ctx.commits = &st.commits;
  ctx.input_for_slot = st.input_for_slot;
  ctx.sender_of = st.sender_of;

  const Signature valid = registry.sign(kForger, accuse_digest(kTarget));
  Signature forged = valid;
  forged.mac[0] ^= 0x5A;
  TwinAdversary adv(forged_first ? forged : valid,
                    forged_first ? valid : forged);

  Sim sim(kN, kF, &st.ledger, CostPolicy{ctx.wire, ctx.sched});
  for (NodeId v = 0; v < kN; ++v) {
    sim.set_actor(v, std::make_unique<QuadNode>(v, &ctx));
  }
  SimConfig<Msg> sc;
  sc.adversary = &adv;
  sc.net = make_net_policy(net, core.seed);
  sim.configure(sc);
  const RepeatIndex::Stats before = RepeatIndex::stats();
  // Round 0 sends the twins, round 1 forwards the valid one, and round 2
  // reads the forwards.
  for (int r = 0; r < 3; ++r) sim.step();
  if (net == "lockstep") {
    EXPECT_GT(RepeatIndex::stats().repeats - before.repeats, 0u)
        << "no repeat was left out, so none was tested";
  }

  std::vector<std::pair<NodeId, Signature>> expected;
  for (NodeId u = 0; u < kN; ++u) {
    if (u == kForger) continue;
    const auto* node = dynamic_cast<const QuadNode*>(sim.actor(u));
    ASSERT_NE(node, nullptr);
    EXPECT_FALSE(node->engine().graph().has_edge(kForger, kTarget))
        << "node " << u;
    expected.emplace_back(u, valid);
  }
  EXPECT_EQ(adv.forwards, expected);
}

TEST(RepeatsAlg52, ForgedThenValidAccusationTwins) {
  expect_valid_twin_accepted(/*forged_first=*/true);
}

TEST(RepeatsAlg52, ValidThenForgedAccusationTwins) {
  expect_valid_twin_accepted(/*forged_first=*/false);
}

TEST(RepeatsAlg52, ForgedThenValidTwinsOnTheTimingPath) {
  expect_valid_twin_accepted(/*forged_first=*/true, "bounded:0");
}

}  // namespace
}  // namespace ambb::quad
