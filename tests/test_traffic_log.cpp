// Boundary cases of the shared-record traffic representation
// (sim/net.hpp): TrafficLog::record_of at record bases and fanout edges,
// TrafficView cursor behaviour under non-sequential access, erase
// indices at fanout boundaries (the delivery-index ranges the strongly
// adaptive adversary addresses), and group records (DESIGN.md §22),
// which must enumerate exactly like the same sends made one by one.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "bb/linear_bb.hpp"
#include "common/check.hpp"
#include "sim/cost.hpp"
#include "sim/net.hpp"
#include "toy_policy.hpp"

namespace ambb {
namespace {

using Log = TrafficLog<int>;
using View = TrafficView<int>;

// A group lives in Record::to, so Algorithm 4's records did not grow:
// from, to, the 96-byte message (one slot per role, DESIGN.md §14) and
// the base index.
static_assert(sizeof(linear::Msg) == 96);
static_assert(sizeof(TrafficLog<linear::Msg>::Record) == 112,
              "a traffic record grew");

TEST(TrafficLog, EmptyLogHasNoDeliveriesAndRecordOfThrows) {
  Log log;
  log.reset(4);
  EXPECT_EQ(log.deliveries(), 0u);
  EXPECT_TRUE(log.records().empty());
  // No delivery index is valid in an empty log.
  EXPECT_THROW(log.record_of(0), CheckError);
}

TEST(TrafficLog, RecordOfAtExactBaseOfEachRecord) {
  Log log;
  log.reset(3);  // n = 3
  log.add_unicast(0, 1, 10);  // record 0: deliveries [0, 1)
  log.add_multicast(1, 20);   // record 1: deliveries [1, 4)
  log.add_unicast(2, 0, 30);  // record 2: deliveries [4, 5)

  ASSERT_EQ(log.deliveries(), 5u);
  EXPECT_EQ(log.records()[0].base, 0u);
  EXPECT_EQ(log.records()[1].base, 1u);
  EXPECT_EQ(log.records()[2].base, 4u);

  // Exactly at each record's base.
  EXPECT_EQ(log.record_of(0), 0u);
  EXPECT_EQ(log.record_of(1), 1u);
  EXPECT_EQ(log.record_of(4), 2u);
}

TEST(TrafficLog, LastDeliveryOfAMulticastBelongsToIt) {
  Log log;
  log.reset(4);
  log.add_multicast(2, 7);    // record 0: deliveries [0, 4)
  log.add_unicast(0, 3, 8);   // record 1: deliveries [4, 5)

  // The last delivery of the multicast (index base + n - 1 = 3) must
  // resolve to the multicast, not the following unicast.
  EXPECT_EQ(log.record_of(3), 0u);
  EXPECT_EQ(log.record_of(4), 1u);
  // One past the last delivery is out of range entirely.
  EXPECT_THROW(log.record_of(5), CheckError);

  // Recipients across the multicast's whole range, in recipient order.
  const auto& mc = log.records()[0];
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(log.recipient_of(mc, d), static_cast<NodeId>(d));
  }
  EXPECT_EQ(log.recipient_of(log.records()[1], 4), NodeId{3});
}

TEST(TrafficLog, FanoutOfUnicastAndMulticast) {
  Log log;
  log.reset(5);
  log.add_unicast(0, 2, 1);
  log.add_multicast(1, 2);
  EXPECT_EQ(log.fanout(log.records()[0]), 1u);
  EXPECT_EQ(log.fanout(log.records()[1]), 5u);
}

TEST(TrafficView, SequentialAndRandomAccessAgreeAcrossBoundaries) {
  Log log;
  log.reset(3);
  log.add_unicast(0, 2, 100);  // [0, 1)
  log.add_multicast(1, 200);   // [1, 4)
  log.add_multicast(2, 300);   // [4, 7)
  log.add_unicast(1, 0, 400);  // [7, 8)

  const View view(&log, log.deliveries());
  ASSERT_EQ(view.size(), 8u);

  // Forward scan (cursor fast path).
  std::vector<int> forward;
  for (std::size_t d = 0; d < view.size(); ++d) {
    forward.push_back(view[d].msg);
  }
  EXPECT_EQ(forward, (std::vector<int>{100, 200, 200, 200, 300, 300, 300,
                                       400}));

  // Backward scan and boundary hops (cursor re-seek path) must agree.
  for (std::size_t d = view.size(); d-- > 0;) {
    EXPECT_EQ(view[d].msg, forward[d]) << "delivery " << d;
  }
  // Jump directly between fanout boundaries.
  EXPECT_EQ(view[7].msg, 400);
  EXPECT_EQ(view[1].msg, 200);
  EXPECT_EQ(view[6].msg, 300);
  EXPECT_EQ(view[0].msg, 100);
  EXPECT_EQ(view[3].msg, 200);  // last delivery of first multicast
  EXPECT_EQ(view[4].msg, 300);  // first delivery of second multicast

  // Senders and recipients at the same boundaries.
  EXPECT_EQ(view[3].from, NodeId{1});
  EXPECT_EQ(view[3].to, NodeId{2});
  EXPECT_EQ(view[4].from, NodeId{2});
  EXPECT_EQ(view[4].to, NodeId{0});
}

TEST(TrafficView, PrefixLimitExcludesLaterRecords) {
  Log log;
  log.reset(3);
  log.add_multicast(0, 1);  // honest traffic: [0, 3)
  const View rushed(&log, log.deliveries());
  // Byzantine actor appends to the same log; the view's limit is fixed.
  log.add_unicast(2, 0, 99);
  ASSERT_EQ(log.deliveries(), 4u);
  EXPECT_EQ(rushed.size(), 3u);
  EXPECT_THROW(rushed[3], CheckError);
  EXPECT_EQ(rushed[2].msg, 1);  // still readable after the append
}

TEST(TrafficLog, GroupOwnsItsListInOrder) {
  Log log;
  log.reset(4);
  const std::vector<NodeId> to = {3, 1, 2};
  log.add_unicast(0, 2, 10);   // record 0: [0, 1)
  log.add_group(1, to, 20);    // record 1: [1, 4), recipients 3, 1, 2
  log.add_multicast(2, 30);    // record 2: [4, 8)
  log.add_group(3, {}, 40);    // an empty group adds nothing
  log.add_group(3, std::span<const NodeId>(to).first(1), 50);  // [8, 9)

  ASSERT_EQ(log.records().size(), 4u);
  EXPECT_EQ(log.deliveries(), 9u);
  // RoundStats::records counts a group once per recipient.
  EXPECT_EQ(log.counted_records(), 1u + 3u + 1u + 1u);
  const auto& recs = log.records();
  EXPECT_EQ(recs[1].base, 1u);
  EXPECT_EQ(recs[2].base, 4u);
  EXPECT_EQ(recs[3].base, 8u);
  EXPECT_TRUE(recs[1].is_group());
  EXPECT_FALSE(recs[1].is_multicast());
  EXPECT_EQ(log.fanout(recs[1]), 3u);
  EXPECT_EQ(log.fanout(recs[3]), 1u);
  EXPECT_EQ(std::vector<NodeId>(log.recipients(recs[1]).begin(),
                                log.recipients(recs[1]).end()),
            to);
  EXPECT_EQ(log.recipient_of(recs[1], 1), NodeId{3});
  EXPECT_EQ(log.recipient_of(recs[1], 2), NodeId{1});
  EXPECT_EQ(log.recipient_of(recs[1], 3), NodeId{2});
  EXPECT_EQ(log.recipient_of(recs[3], 8), NodeId{3});
  EXPECT_EQ(log.record_of(1), 1u);
  EXPECT_EQ(log.record_of(3), 1u);  // last delivery of the group
  EXPECT_EQ(log.record_of(4), 2u);
  EXPECT_EQ(log.record_of(8), 3u);
  EXPECT_THROW(log.record_of(9), CheckError);

  // reset() drops the groups with the records.
  log.reset(4);
  EXPECT_EQ(log.counted_records(), 0u);
  log.add_group(0, to, 1);
  EXPECT_EQ(log.recipient_of(log.records()[0], 0), NodeId{3});
}

TEST(TrafficView, GroupsEnumerateLikeTheSameSendsOneByOne) {
  // One log mixes groups, unicasts and multicasts; the other makes every
  // group's sends one unicast at a time. Both views must list the same
  // (sender, recipient, payload) at every delivery index.
  const std::uint32_t n = 5;
  const std::vector<std::tuple<NodeId, std::vector<NodeId>, int>> sends = {
      {0, {4, 1, 3}, 1}, {1, {2}, 2},       {2, {}, 3},
      {3, {0, 1, 2, 3, 4}, 4}, {4, {1, 1, 0}, 5},
  };
  Log grouped;
  Log single;
  grouped.reset(n);
  single.reset(n);
  for (const auto& [from, to, m] : sends) {
    grouped.add_group(from, to, m);
    for (NodeId v : to) single.add_unicast(from, v, m);
    grouped.add_multicast(from, m + 100);
    single.add_multicast(from, m + 100);
    grouped.add_unicast(from, (from + 1) % n, m + 200);
    single.add_unicast(from, (from + 1) % n, m + 200);
  }
  ASSERT_EQ(grouped.deliveries(), single.deliveries());
  EXPECT_EQ(grouped.counted_records(), single.counted_records());
  EXPECT_LT(grouped.records().size(), single.records().size());
  const View g(&grouped, grouped.deliveries());
  const View u(&single, single.deliveries());
  // Forward, then backward (the cursor's re-seek path).
  for (std::size_t d = 0; d < g.size(); ++d) {
    EXPECT_EQ(std::make_tuple(g[d].from, g[d].to, g[d].msg),
              std::make_tuple(u[d].from, u[d].to, u[d].msg))
        << "delivery " << d;
  }
  for (std::size_t d = g.size(); d-- > 0;) {
    EXPECT_EQ(std::make_tuple(g[d].from, g[d].to, g[d].msg),
              std::make_tuple(u[d].from, u[d].to, u[d].msg))
        << "delivery " << d;
  }
}

/// Erase indices at fanout boundaries: erasing the first / last delivery
/// of a multicast removes exactly that (sender, recipient) copy, and the
/// accounting charge drops by exactly one unit per erased delivery.
TEST(Simulation, EraseAtFanoutBoundariesRemovesExactlyOneDelivery) {
  struct Silent : Actor<int> {
    void on_round(Round, std::span<const Delivery<int>>,
                  const TrafficView<int>&, RoundApi<int>&) override {}
  };
  struct Multicaster : Actor<int> {
    void on_round(Round r, std::span<const Delivery<int>>,
                  const TrafficView<int>&, RoundApi<int>& api) override {
      if (r == 0) api.multicast(7);
    }
  };
  // Erase the multicast's FIRST (base) and LAST (base + n - 1) delivery.
  struct EdgeEraser : Adversary<int> {
    std::vector<NodeId> initial_corruptions() override { return {0}; }
    std::unique_ptr<Actor<int>> actor_for(NodeId) override {
      return std::make_unique<Multicaster>();
    }
    void observe_round(Round r, const TrafficView<int>& traffic,
                       CorruptionCtl<int>& ctl) override {
      if (r != 0) return;
      ASSERT_EQ(traffic.size(), 4u);  // one multicast, n = 4
      ctl.erase(0);
      ctl.erase(3);
    }
  };

  const std::uint32_t n = 4;
  CostLedger ledger({"toy"});
  ToySim<int> sim(n, /*f=*/1, &ledger, ToyPolicy{8});
  for (NodeId v = 0; v < n; ++v) sim.set_actor(v, std::make_unique<Silent>());
  EdgeEraser adv;
  SimConfig<int> sc;
  sc.adversary = &adv;
  sim.configure(sc);

  sim.step();

  // Fanout 4; erased {0, 3}; the free self-copy IS delivery 0 (already
  // erased, so no separate deduction). Charged copies: 4 - 2 = 2.
  EXPECT_EQ(ledger.adversary_bits_total(), 2u * 8u);

  sim.step();  // deliver: recipients 1 and 2 got it, 0 and 3 did not
  // (Inbox contents are protocol-internal; the stats row pins the
  // delivery count: 4 fanned out, 2 erased.)
  const std::vector<RoundStats> stats = sim.take_round_stats();
  EXPECT_EQ(stats[0].erasures, 2u);
  EXPECT_EQ(stats[0].deliveries, 4u);
}

/// Erasing one delivery in the middle of a group removes it for that
/// recipient only, and the group is charged one copy less. A group has
/// no free self-copy: the sender's copy to itself is charged like any.
TEST(Simulation, EraseInTheMiddleOfAGroupChargesSizeMinusOne) {
  struct Recorder : Actor<int> {
    void on_round(Round r, std::span<const Delivery<int>> inbox,
                  const TrafficView<int>&, RoundApi<int>&) override {
      if (r == 1) {
        for (const auto& d : inbox) got.push_back(d.msg());
      }
    }
    std::vector<int> got;
  };
  struct Grouper : Actor<int> {
    void on_round(Round r, std::span<const Delivery<int>>,
                  const TrafficView<int>&, RoundApi<int>& api) override {
      if (r != 0) return;
      const NodeId to[] = {0, 1, 2, 3};
      api.send_group(to, 7);
    }
  };
  struct MiddleEraser : Adversary<int> {
    std::vector<NodeId> initial_corruptions() override { return {0}; }
    std::unique_ptr<Actor<int>> actor_for(NodeId) override {
      return std::make_unique<Grouper>();
    }
    void observe_round(Round r, const TrafficView<int>& traffic,
                       CorruptionCtl<int>& ctl) override {
      if (r != 0) return;
      ASSERT_EQ(traffic.size(), 4u);
      ASSERT_EQ(traffic[2].to, NodeId{2});
      ctl.erase(2);
    }
  };

  const std::uint32_t n = 4;
  CostLedger ledger({"toy"});
  ToySim<int> sim(n, /*f=*/1, &ledger, ToyPolicy{8});
  std::vector<Recorder*> rec;
  for (NodeId v = 0; v < n; ++v) {
    auto a = std::make_unique<Recorder>();
    rec.push_back(a.get());
    sim.set_actor(v, std::move(a));
  }
  MiddleEraser adv;
  SimConfig<int> sc;
  sc.adversary = &adv;
  sim.configure(sc);

  sim.step();
  EXPECT_EQ(ledger.adversary_bits_total(), 3u * 8u);
  const std::vector<RoundStats> stats = sim.take_round_stats();
  EXPECT_EQ(stats[0].records, 4u);  // once per recipient
  EXPECT_EQ(stats[0].deliveries, 4u);
  EXPECT_EQ(stats[0].erasures, 1u);

  sim.step();
  EXPECT_EQ(rec[1]->got, std::vector<int>{7});
  EXPECT_TRUE(rec[2]->got.empty());
  EXPECT_EQ(rec[3]->got, std::vector<int>{7});
}

}  // namespace
}  // namespace ambb
