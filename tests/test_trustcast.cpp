// TrustCast (Algorithm 5.1) properties, verified on live executions of
// Algorithm 5.2 through the driver's test hooks:
//   Integrity:        honest-honest trust edges are never removed.
//   Termination:      by TrustCast round n each honest node has the
//                     sender's value or removed the sender.
//   Transferability:  G_u(t+1) is a subgraph of G_v(t) for honest u, v.
#include "bb/quadratic_bb.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "trace/trace.hpp"

namespace ambb::quad {
namespace {

class TrustCastProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(TrustCastProperties, IntegrityHonestEdgesSurvive) {
  QuadConfig cfg;
  cfg.n = 10;
  cfg.f = 5;
  cfg.slots = 12;
  cfg.seed = 5;
  cfg.adversary = GetParam();
  cfg.inspect = [&](Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (sim.is_corrupt(u)) continue;
      auto* node = dynamic_cast<QuadNode*>(sim.actor(u));
      ASSERT_NE(node, nullptr);
      const TrustGraph& g = node->engine().graph();
      for (NodeId a = 0; a < cfg.n; ++a) {
        if (sim.is_corrupt(a)) continue;
        EXPECT_TRUE(g.has_vertex(a))
            << "honest vertex " << a << " missing at " << u;
        for (NodeId b = 0; b < cfg.n; ++b) {
          if (sim.is_corrupt(b) || a == b) continue;
          EXPECT_TRUE(g.has_edge(a, b))
              << "honest edge (" << a << "," << b << ") removed at node "
              << u << " under " << cfg.adversary;
        }
      }
    }
  };
  auto r = run_quadratic(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

TEST_P(TrustCastProperties, TransferabilityAcrossRounds) {
  QuadConfig cfg;
  cfg.n = 8;
  cfg.f = 4;
  cfg.slots = 4;
  cfg.seed = 13;
  cfg.adversary = GetParam();

  // Snapshot every honest node's graph each round; check
  // G_u(t+1) subgraph-of G_v(t) for all honest pairs.
  std::map<NodeId, TrustGraph> prev;
  cfg.on_round_end = [&](Round r, Sim& sim) {
    std::map<NodeId, TrustGraph> cur;
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (sim.is_corrupt(u)) continue;
      auto* node = dynamic_cast<QuadNode*>(sim.actor(u));
      if (node == nullptr) continue;
      cur.emplace(u, node->engine().graph());
    }
    if (!prev.empty()) {
      for (const auto& [u, gu] : cur) {
        for (const auto& [v, gv] : prev) {
          EXPECT_TRUE(gu.is_subgraph_of(gv))
              << "round " << r << ": G_" << u << "(t+1) not within G_" << v
              << "(t) under " << cfg.adversary;
        }
      }
    }
    prev = std::move(cur);
  };
  auto r = run_quadratic(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

TEST_P(TrustCastProperties, TerminationValueOrRemoval) {
  QuadConfig cfg;
  cfg.n = 9;
  cfg.f = 5;
  cfg.slots = 9;
  cfg.seed = 23;
  cfg.adversary = GetParam();
  const std::uint64_t rps = Schedule{cfg.n, cfg.f}.rounds_per_slot();
  cfg.on_round_end = [&](Round r, Sim& sim) {
    // At the end of TrustCast round n of each slot.
    if (r % rps != cfg.n) return;
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (sim.is_corrupt(u)) continue;
      auto* node = dynamic_cast<QuadNode*>(sim.actor(u));
      ASSERT_NE(node, nullptr);
      const bool has_value = node->engine().received_value().has_value();
      const bool sender_gone = !node->engine().sender_present();
      EXPECT_TRUE(has_value || sender_gone)
          << "round " << r << " node " << u << " under " << cfg.adversary;
    }
  };
  auto r = run_quadratic(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

INSTANTIATE_TEST_SUITE_P(Adversaries, TrustCastProperties,
                         ::testing::Values("none", "silent", "equivocate",
                                           "conspiracy", "lateprop",
                                           "floodaccuse"),
                         [](const auto& info) { return info.param; });

TEST(TrustCastEngine, HonestSenderKeepsCompleteGraphWithoutFaults) {
  QuadConfig cfg;
  cfg.n = 8;
  cfg.f = 3;
  cfg.slots = 4;
  cfg.seed = 1;
  cfg.adversary = "none";
  cfg.inspect = [&](Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      auto* node = dynamic_cast<QuadNode*>(sim.actor(u));
      ASSERT_NE(node, nullptr);
      EXPECT_EQ(node->engine().graph().edge_count(),
                static_cast<std::uint64_t>(cfg.n) * (cfg.n - 1) / 2);
    }
  };
  auto r = run_quadratic(cfg);
  EXPECT_TRUE(check_all(r).empty());
}

TEST(TrustCastEngine, SilentSenderRemovedEverywhere) {
  QuadConfig cfg;
  cfg.n = 8;
  cfg.f = 3;
  cfg.slots = 1;  // slot 1 sender = node 0 = corrupt silent
  cfg.seed = 1;
  cfg.adversary = "silent";
  trace::CollectorSink sink;
  cfg.trace = &sink;
  cfg.inspect = [&](Sim& sim) {
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (sim.is_corrupt(u)) continue;
      auto* node = dynamic_cast<QuadNode*>(sim.actor(u));
      ASSERT_NE(node, nullptr);
      EXPECT_FALSE(node->engine().graph().has_vertex(0));
    }
  };
  auto r = run_quadratic(cfg);
  ASSERT_TRUE(check_all(r).empty());
  // Every honest node votes the silent sender corrupt.
  std::vector<bool> voted(cfg.n, false);
  for (const trace::Event& e : sink.events()) {
    if (e.kind == trace::EventKind::kCorruptVote && e.subject == 0) {
      voted[e.node] = true;
    }
  }
  for (NodeId u = cfg.f; u < cfg.n; ++u) {
    EXPECT_TRUE(voted[u]) << "node " << u;
  }
  // Everyone commits bot for the silent sender's slot.
  for (NodeId u = cfg.f; u < cfg.n; ++u) {
    EXPECT_EQ(r.commits.get(u, 1).value, kBotValue);
  }
}

}  // namespace
}  // namespace ambb::quad
