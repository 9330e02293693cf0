// Direct tests of the Sequentiality property (Definition 2): slot k's
// sender may invoke bc_k only after bc_j committed everywhere for j < k,
// and causal inputs derived from previous decisions flow through intact.
#include <gtest/gtest.h>

#include "bb/linear_bb.hpp"
#include "bb/quadratic_bb.hpp"

namespace ambb {
namespace {

TEST(Sequentiality, CommitRoundsPrecedeNextSlotInvocation) {
  // Every honest node commits slot k strictly before slot k+1's proposal
  // round, under every adversary — the structural guarantee that makes
  // causal inputs sound. "drop" has lossy Byzantine leaders leave
  // partially formed epochs behind; slot order must hold there too.
  for (const char* adv :
       {"none", "silent", "selective", "mixed", "chaos", "drop"}) {
    linear::LinearConfig cfg;
    cfg.n = 14;
    cfg.f = 5;
    cfg.slots = 8;
    cfg.seed = 23;
    cfg.adversary = adv;
    auto r = linear::run_linear(cfg);
    ASSERT_TRUE(check_all(r).empty()) << adv;
    const linear::Schedule sched{cfg.f};
    for (Slot k = 1; k < cfg.slots; ++k) {
      const Round next_slot_start = k * sched.rounds_per_slot();
      for (NodeId v = 0; v < cfg.n; ++v) {
        if (r.corrupt[v]) continue;
        EXPECT_LT(r.commits.get(v, k).round, next_slot_start)
            << "node " << v << " slot " << k << " adv " << adv;
      }
    }
  }
}

TEST(Sequentiality, QuadCommitRoundsAreSlotOrdered) {
  quad::QuadConfig cfg;
  cfg.n = 9;
  cfg.f = 5;
  cfg.slots = 9;
  cfg.seed = 23;
  cfg.adversary = "conspiracy";
  auto r = quad::run_quadratic(cfg);
  ASSERT_TRUE(check_all(r).empty());
  const quad::Schedule sched{cfg.n, cfg.f};
  for (Slot k = 1; k < cfg.slots; ++k) {
    for (NodeId v = cfg.f; v < cfg.n; ++v) {
      EXPECT_LT(r.commits.get(v, k).round, k * sched.rounds_per_slot());
    }
  }
}

TEST(Sequentiality, CausalInputsChainThroughCommits) {
  // input_with_log: slot k's payload = f(committed value at slot k-1).
  // Verify the committed chain respects the recurrence at every honest
  // node even with Byzantine senders interleaved.
  linear::LinearConfig cfg;
  cfg.n = 12;
  cfg.f = 4;
  cfg.slots = 10;
  cfg.seed = 29;
  cfg.adversary = "silent";
  cfg.input_with_log = [&cfg](Slot k, const CommitLog& log) -> Value {
    Value parent = 1;
    if (k > 1) {
      const NodeId sender = (k - 1) % cfg.n;
      if (log.has(sender, k - 1)) parent = log.get(sender, k - 1).value;
    }
    return parent * 31 + k;
  };
  auto r = linear::run_linear(cfg);
  ASSERT_TRUE(check_all(r).empty());

  // Recompute the expected chain from the committed values themselves.
  for (Slot k = 2; k <= cfg.slots; ++k) {
    const NodeId sender = r.senders[k];
    if (r.corrupt[sender]) continue;  // corrupt senders: validity N/A
    Value parent = 1;
    const NodeId prev_sender = (k - 1) % cfg.n;
    if (r.commits.has(prev_sender, k - 1)) {
      parent = r.commits.get(prev_sender, k - 1).value;
    }
    const Value expected = parent * 31 + k;
    for (NodeId v = 0; v < cfg.n; ++v) {
      if (r.corrupt[v]) continue;
      EXPECT_EQ(r.commits.get(v, k).value, expected)
          << "slot " << k << " node " << v;
    }
  }
}

TEST(Sequentiality, CausalInputsSeeIdenticalPrefixEverywhere) {
  // Consistency makes "the value committed at slot k-1" well-defined: any
  // honest node's view of the prefix gives the same causal inputs. This is
  // also Section 2's atomic-broadcast remark: reading each honest node's
  // commits in slot order gives one totally ordered log.
  linear::LinearConfig cfg;
  cfg.n = 12;
  cfg.f = 4;
  cfg.slots = 8;
  cfg.seed = 31;
  cfg.adversary = "mixed";
  auto r = linear::run_linear(cfg);
  ASSERT_TRUE(check_all(r).empty());
  // Fold each honest node's committed values in slot order; all folds
  // must agree.
  std::uint64_t first_fold = 0;
  bool have = false;
  for (NodeId v = 0; v < cfg.n; ++v) {
    if (!r.is_honest(v)) continue;
    std::uint64_t fold = 0x12345;
    for (Slot k = 1; k <= cfg.slots; ++k) {
      ASSERT_TRUE(r.commits.has(v, k)) << "node " << v << " slot " << k;
      fold = fold * 1099511628211ULL ^ r.commits.get(v, k).value;
    }
    if (!have) {
      first_fold = fold;
      have = true;
    }
    EXPECT_EQ(fold, first_fold) << "node " << v;
  }
  EXPECT_TRUE(have);
}

}  // namespace
}  // namespace ambb
