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
// would reject the valid one.
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
#include "common/rng.hpp"
#include "crypto/signer.hpp"
#include "crypto/threshold.hpp"
#include "graph/expander.hpp"
#include "runner/drive.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

namespace ambb {
namespace {

/// How a test message was sent.
enum class Shape : std::uint8_t { kUnicast, kMulticast, kGroup };

struct Msg {
  std::uint64_t tag = 0;
  Shape shape = Shape::kUnicast;
};

using Sim = ToySim<Msg>;

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
std::vector<Script*> install(Sim& sim, std::uint32_t n,
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

/// Corrupts kForger and records the accusation forwards of round 1.
class ForgerAdversary final : public Adversary<Msg> {
 public:
  ForgerAdversary(SigShare first, SigShare second)
      : first_(first), second_(second) {}

  std::vector<NodeId> initial_corruptions() override { return {kForger}; }
  std::unique_ptr<Actor<Msg>> actor_for(NodeId) override {
    return std::make_unique<TwoShares>(first_, second_);
  }
  void observe_round(Round r, const TrafficView<Msg>& traffic,
                     CorruptionCtl<Msg>&) override {
    if (r != 1) return;
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

/// Runs rounds 0 and 1 with the forger's two shares in the given order;
/// every honest node must accept exactly the valid share.
void expect_valid_share_accepted(bool forged_first) {
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

  const SigShare valid = th.share(kForger, ctx.accuse_digest_of(kTarget));
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
  sim.configure(sc);
  const RecordVerdicts::Stats before = RecordVerdicts::stats();
  run_rounds(sim, 2);
  const RecordVerdicts::Stats after = RecordVerdicts::stats();

  // Both shares reached every honest node through the shared stream, so
  // the cache was used, once per record.
  EXPECT_EQ(after.misses - before.misses, forged_first ? 2u : 1u);
  EXPECT_GT(after.hits - before.hits, 0u);
  std::vector<std::tuple<NodeId, NodeId, SigShare>> expected;
  for (NodeId u = 0; u < kN; ++u) {
    if (u == kForger) continue;
    const auto* node = dynamic_cast<const LinearNode*>(sim.actor(u));
    ASSERT_NE(node, nullptr);
    EXPECT_TRUE(node->seen_accuse(kForger, kTarget)) << "node " << u;
    if (u != kTarget) expected.emplace_back(u, kTarget, valid);
  }
  // (*2): each honest node forwards the share it accepted, and only it.
  EXPECT_EQ(adv.forwards, expected);
}

TEST(RecordVerdictsAlg4, ForgedThenValidShareOnOneAccusation) {
  expect_valid_share_accepted(/*forged_first=*/true);
}

TEST(RecordVerdictsAlg4, ValidThenForgedShareOnOneAccusation) {
  expect_valid_share_accepted(/*forged_first=*/false);
}

}  // namespace
}  // namespace ambb::linear
