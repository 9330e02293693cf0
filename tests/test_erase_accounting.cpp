// Brute-force pin of the per-record charge arithmetic in
// Simulation::step (src/sim/net.hpp, step 4) at record-base and fanout
// boundaries. A round's charge for a record must equal
//
//   fanout - (free self-copy, unless that very delivery was erased)
//          - (# erased deliveries inside the record's index range)
//
// and the post-erase inboxes must drop exactly the erased deliveries.
// The test replays one fixed traffic pattern (two multicasts, two
// unicasts, an idle node) under every single erasure, every PAIR of
// erasures, and a set of structured edge cases (whole records, record
// boundaries, everything), comparing the ledger and the inboxes against
// an independent reference model. Any off-by-one at a record base, a
// double deduction of an erased self-copy, or a charge for a fully
// erased record shows up as a totals mismatch.
#include "sim/net.hpp"
#include "toy_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace ambb {
namespace {

constexpr std::uint32_t kN = 5;
constexpr std::uint64_t kBits = 100;

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

class ScriptAdversary final : public Adversary<ToyMsg> {
 public:
  using Fn = std::function<void(Round, const TrafficView<ToyMsg>&,
                                CorruptionCtl<ToyMsg>&)>;
  explicit ScriptAdversary(Fn fn) : fn_(std::move(fn)) {}
  std::vector<NodeId> initial_corruptions() override { return {}; }
  std::unique_ptr<Actor<ToyMsg>> actor_for(NodeId) override {
    return std::make_unique<ScriptActor>(nullptr);
  }
  void observe_round(Round r, const TrafficView<ToyMsg>& traffic,
                     CorruptionCtl<ToyMsg>& ctl) override {
    if (fn_) fn_(r, traffic, ctl);
  }

 private:
  Fn fn_;
};

// The round-0 traffic pattern, in the order step() runs the actors:
//   node 0: multicast            -> record 0, base 0,  fanout 5, self idx 0
//   node 1: send(3)              -> record 1, base 5,  fanout 1
//   node 2: multicast            -> record 2, base 6,  fanout 5, self idx 8
//   node 3: idle
//   node 4: send(0)              -> record 3, base 11, fanout 1
struct RecModel {
  NodeId from;
  std::size_t base;
  std::size_t fanout;
  bool multicast;
  NodeId to;  // unicast only
};
constexpr RecModel kRecs[] = {
    {0, 0, kN, true, kNoNode},
    {1, 5, 1, false, 3},
    {2, 6, kN, true, kNoNode},
    {4, 11, 1, false, 0},
};
constexpr std::size_t kDeliveries = 12;

NodeId sender_of_index(std::size_t idx) {
  for (const auto& rec : kRecs) {
    if (idx >= rec.base && idx < rec.base + rec.fanout) return rec.from;
  }
  AMBB_CHECK_MSG(false, "delivery index " << idx << " out of range");
}

bool contains(const std::vector<std::size_t>& s, std::size_t idx) {
  return std::find(s.begin(), s.end(), idx) != s.end();
}

struct CaseResult {
  std::uint64_t honest_bits = 0;
  std::uint64_t adversary_bits = 0;
  std::array<std::size_t, kN> inbox{};  // round-1 inbox sizes
  std::array<bool, kN> corrupt{};
};

/// Reference model: what the accounting contract SAYS the totals and the
/// surviving inboxes must be, computed independently of the simulator.
CaseResult expected(const std::vector<std::size_t>& erased) {
  CaseResult e;
  for (std::size_t idx : erased) e.corrupt[sender_of_index(idx)] = true;
  for (const auto& rec : kRecs) {
    std::uint64_t charged = rec.fanout;
    if (rec.multicast && !contains(erased, rec.base + rec.from)) {
      charged -= 1;  // the free self-copy
    }
    for (std::size_t idx : erased) {
      if (idx >= rec.base && idx < rec.base + rec.fanout) charged -= 1;
    }
    (e.corrupt[rec.from] ? e.adversary_bits : e.honest_bits) +=
        kBits * charged;
    if (rec.multicast) {
      for (NodeId v = 0; v < kN; ++v) {
        if (!contains(erased, rec.base + v)) e.inbox[v] += 1;
      }
    } else if (!contains(erased, rec.base)) {
      e.inbox[rec.to] += 1;
    }
  }
  return e;
}

/// Simulator run: erase exactly `erased` (corrupting the senders involved
/// first — after-the-fact removal requires a corrupt sender), then read
/// the ledger and the round-1 inboxes.
CaseResult simulate(const std::vector<std::size_t>& erased) {
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(kN, kN - 1, &ledger, ToyPolicy{kBits});
  CaseResult got;
  for (NodeId v = 0; v < kN; ++v) {
    sim.set_actor(v, std::make_unique<ScriptActor>(
                         [v, &got](Round r,
                                   std::span<const Delivery<ToyMsg>> inbox,
                                   RoundApi<ToyMsg>& api) {
                           if (r == 0) {
                             if (v == 0 || v == 2) api.multicast(ToyMsg{});
                             if (v == 1) api.send(3, ToyMsg{});
                             if (v == 4) api.send(0, ToyMsg{});
                           } else if (r == 1) {
                             got.inbox[v] = inbox.size();
                           }
                         }));
  }
  ScriptAdversary adv([&erased](Round r, const TrafficView<ToyMsg>&,
                                CorruptionCtl<ToyMsg>& ctl) {
    if (r != 0) return;
    for (std::size_t idx : erased) ctl.corrupt(sender_of_index(idx));
    for (std::size_t idx : erased) ctl.erase(idx);
  });
  SimConfig<ToyMsg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  sim.step();
  sim.step();
  got.honest_bits = ledger.honest_bits_total();
  got.adversary_bits = ledger.adversary_bits_total();
  for (NodeId v = 0; v < kN; ++v) got.corrupt[v] = sim.is_corrupt(v);
  return got;
}

void expect_case(const std::vector<std::size_t>& erased) {
  const CaseResult want = expected(erased);
  const CaseResult got = simulate(erased);
  std::string tag = "erased={";
  for (std::size_t idx : erased) tag += std::to_string(idx) + ",";
  tag += "}";
  EXPECT_EQ(got.honest_bits, want.honest_bits) << tag;
  EXPECT_EQ(got.adversary_bits, want.adversary_bits) << tag;
  for (NodeId v = 0; v < kN; ++v) {
    ASSERT_EQ(got.corrupt[v], want.corrupt[v]) << tag << " node " << v;
    // A corrupted node's capture actor was replaced by the adversary's
    // idle replacement; its inbox is only observable while honest.
    if (!got.corrupt[v]) {
      EXPECT_EQ(got.inbox[v], want.inbox[v]) << tag << " node " << v;
    }
  }
}

TEST(EraseAccounting, HandComputedBaseline) {
  // No erasure, nobody corrupt: both multicasts charge fanout-1 (free
  // self-copy), both unicasts charge 1.
  const CaseResult base = simulate({});
  EXPECT_EQ(base.honest_bits, kBits * (4 + 1 + 4 + 1));
  EXPECT_EQ(base.adversary_bits, 0u);
  EXPECT_EQ(base.inbox, (std::array<std::size_t, kN>{3, 2, 2, 3, 2}));

  // Erasing ONLY the free self-copy of record 0 (delivery index 0) must
  // not change that record's charge — the self-copy was never billed, so
  // removing it is not a deduction. It does re-bill the record to the
  // adversary: erasure requires corrupting the sender first.
  const CaseResult self = simulate({0});
  EXPECT_EQ(self.adversary_bits, kBits * 4);
  EXPECT_EQ(self.honest_bits, kBits * (1 + 4 + 1));
}

TEST(EraseAccounting, EverySingleErasureMatchesTheReferenceModel) {
  for (std::size_t idx = 0; idx < kDeliveries; ++idx) expect_case({idx});
}

TEST(EraseAccounting, EveryErasurePairMatchesTheReferenceModel) {
  // Exhaustive pairs cover every boundary combination: self-copy plus a
  // paid copy of the same record, last-of-record plus first-of-the-next
  // (indices 4|5, 5|6, 10|11), both unicasts, both self-copies (0|8).
  for (std::size_t a = 0; a < kDeliveries; ++a) {
    for (std::size_t b = a + 1; b < kDeliveries; ++b) expect_case({a, b});
  }
}

TEST(EraseAccounting, WholeRecordAndCrossBoundaryErasures) {
  expect_case({0, 1, 2, 3, 4});        // full multicast, incl. self-copy
  expect_case({1, 2, 3, 4});           // full multicast minus self-copy
  expect_case({6, 7, 8, 9, 10});       // full multicast at a later base
  expect_case({5});                    // lone unicast record
  expect_case({11});                   // last delivery of the round
  expect_case({5, 11});                // both unicasts
  expect_case({4, 5, 6});              // straddle two record boundaries
  expect_case({0, 8, 11});             // both self-copies + trailing unicast
  expect_case({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});  // erase the round
}

TEST(EraseAccounting, ErasingAnHonestSendersDeliveryIsRejected) {
  // The threat model forbids after-the-fact removal of honest traffic;
  // the simulator enforces it with a CHECK on the record's sender.
  CostLedger ledger({"toy"});
  ToySim<ToyMsg> sim(kN, kN - 1, &ledger, ToyPolicy{kBits});
  for (NodeId v = 0; v < kN; ++v) {
    sim.set_actor(v, std::make_unique<ScriptActor>(
                         [v](Round r, std::span<const Delivery<ToyMsg>>,
                             RoundApi<ToyMsg>& api) {
                           if (r == 0 && v == 0) api.multicast(ToyMsg{});
                         }));
  }
  ScriptAdversary adv([](Round r, const TrafficView<ToyMsg>&,
                         CorruptionCtl<ToyMsg>& ctl) {
    if (r == 0) ctl.erase(1);  // sender 0 was never corrupted
  });
  SimConfig<ToyMsg> sc;
  sc.adversary = &adv;
  sim.configure(sc);
  EXPECT_THROW(sim.step(), CheckError);
}

}  // namespace
}  // namespace ambb
