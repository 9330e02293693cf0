// Lemma-level invariants of Algorithm 4, checked by inspecting the live
// actors through the driver's test hooks.
//
//   - Lemma 3 corollary: no corrupt-proof ever forms on an honest node
//     (otherwise honest-leader epochs could be skipped and termination
//     would break) under every implemented adversary.
//   - Accusation bookkeeping: honest nodes never accuse honest nodes under
//     the implemented adversaries; accusations are monotone and within
//     budget.
//   - Expensive-epoch bound: total query2 emissions by one honest node
//     are bounded by f (each consumes a fresh accusation).
//   - Share table: the run-wide accusation share table holds only valid
//     shares, one for each pair a node accepted (tests/share_table.hpp).
#include "bb/linear_bb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "share_table.hpp"

namespace ambb::linear {
namespace {

class LinearInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(LinearInvariants, NoCorruptProofOnHonestNodes) {
  LinearConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.slots = 10;
  cfg.seed = 11;
  cfg.adversary = GetParam();
  cfg.inspect = [&](Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (sim.is_corrupt(u)) continue;
      auto* node = dynamic_cast<LinearNode*>(sim.actor(u));
      ASSERT_NE(node, nullptr);
      for (NodeId v = 0; v < cfg.n; ++v) {
        if (sim.is_corrupt(v)) continue;
        EXPECT_FALSE(node->has_corrupt_proof(v))
            << "honest node " << u << " holds a corrupt-proof on honest "
            << v << " under adversary " << cfg.adversary;
      }
    }
  };
  auto r = run_linear(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

TEST_P(LinearInvariants, HonestNodesNeverAccuseHonestNodes) {
  LinearConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.slots = 10;
  cfg.seed = 29;
  cfg.adversary = GetParam();
  cfg.inspect = [&](Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (sim.is_corrupt(u)) continue;
      auto* node = dynamic_cast<LinearNode*>(sim.actor(u));
      ASSERT_NE(node, nullptr);
      for (NodeId v = 0; v < cfg.n; ++v) {
        if (sim.is_corrupt(v) || v == u) continue;
        EXPECT_FALSE(node->accused(v))
            << "honest " << u << " accused honest " << v << " under "
            << cfg.adversary;
      }
    }
  };
  auto r = run_linear(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

TEST_P(LinearInvariants, Query2BoundedByFreshAccusations) {
  LinearConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.slots = 12;
  cfg.seed = 31;
  cfg.adversary = GetParam();
  cfg.inspect = [&](Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      auto* node = dynamic_cast<LinearNode*>(sim.actor(u));
      // The counter FloodDev::next_wake reads tracks the accusation set,
      // for Byzantine LinearNodes too.
      std::uint32_t accused = 0;
      if (node != nullptr) {
        for (NodeId v = 0; v < cfg.n; ++v) accused += node->accused(v);
        EXPECT_EQ(node->accused_others(),
                  accused - (node->accused(u) ? 1 : 0))
            << "node " << u << " under " << cfg.adversary;
      }
      if (sim.is_corrupt(u)) continue;
      ASSERT_NE(node, nullptr);
      // Each query2 consumes a fresh accusation by u, of which there can
      // be at most f against corrupt nodes (honest are never accused).
      EXPECT_LE(node->expensive_epochs(), cfg.f)
          << "node " << u << " under " << cfg.adversary;
      EXPECT_LE(accused, cfg.f + 1)
          << "node " << u << " under " << cfg.adversary;
    }
  };
  auto r = run_linear(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

INSTANTIATE_TEST_SUITE_P(Adversaries, LinearInvariants,
                         ::testing::Values("none", "silent", "equivocate",
                                           "selective", "flood", "mixed",
                                           "adaptive-erase"),
                         [](const auto& info) {
                           std::string s = info.param;
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

TEST(LinearInvariants, AccusationKnowledgeMonotone) {
  // Accusation sets only grow across rounds (monotonicity underpins the
  // amortization argument).
  LinearConfig cfg;
  cfg.n = 12;
  cfg.f = 4;
  cfg.slots = 6;
  cfg.seed = 17;
  cfg.adversary = "mixed";
  std::vector<std::size_t> last_counts(cfg.n, 0);
  cfg.on_round_end = [&](Round, Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (sim.is_corrupt(u)) continue;
      auto* node = dynamic_cast<LinearNode*>(sim.actor(u));
      if (node == nullptr) continue;
      std::size_t total = 0;
      for (NodeId w = 0; w < cfg.n; ++w) {
        for (NodeId v = 0; v < cfg.n; ++v) {
          if (node->seen_accuse(w, v)) ++total;
        }
      }
      ASSERT_GE(total, last_counts[u]);
      last_counts[u] = total;
    }
  };
  auto r = run_linear(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

class ShareTable : public ::testing::TestWithParam<std::string> {};

TEST_P(ShareTable, HoldsOnlyValidSharesOfAcceptedPairs) {
  LinearConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.slots = 8;
  cfg.seed = 11;
  cfg.adversary = "mixed";
  cfg.net = GetParam();
  bool sound = true;
  std::uint64_t accepted = 0;
  cfg.on_round_end = [&](Round, Sim& sim) {
    for (NodeId u = 0; u < cfg.n && sound; ++u) {
      if (const auto* node = dynamic_cast<const LinearNode*>(sim.actor(u))) {
        sound = share_table::expect_sound(node->ctx(), sim);
        return;
      }
    }
  };
  cfg.inspect = [&](Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      const auto* node = dynamic_cast<const LinearNode*>(sim.actor(u));
      for (NodeId a = 0; a < cfg.n && node != nullptr; ++a) {
        for (NodeId t = 0; t < cfg.n; ++t) accepted += node->seen_accuse(a, t);
      }
    }
  };
  run_linear(cfg);
  EXPECT_GT(accepted, 0u) << "no accusation was ever accepted";
}

INSTANTIATE_TEST_SUITE_P(Nets, ShareTable,
                         ::testing::Values("lockstep", "bounded:2"),
                         [](const auto& info) {
                           std::string s = info.param;
                           std::replace(s.begin(), s.end(), ':', '_');
                           return s;
                         });

TEST(LinearInvariants, SilentLeadersGetConvictedExactlyOnce) {
  // Under the all-silent adversary every corrupt node ends up with a
  // corrupt-proof at every honest node, and stays convicted.
  LinearConfig cfg;
  cfg.n = 16;
  cfg.f = 5;
  cfg.slots = 12;
  cfg.seed = 3;
  cfg.adversary = "silent";
  cfg.inspect = [&](Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (sim.is_corrupt(u)) continue;
      auto* node = dynamic_cast<LinearNode*>(sim.actor(u));
      ASSERT_NE(node, nullptr);
      for (NodeId v = 0; v < cfg.f; ++v) {
        EXPECT_TRUE(node->has_corrupt_proof(v))
            << "silent corrupt node " << v << " not convicted at " << u;
      }
    }
  };
  auto r = run_linear(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

}  // namespace
}  // namespace ambb::linear
