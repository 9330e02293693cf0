#include "graph/trust_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ambb {
namespace {

TEST(TrustGraph, StartsComplete) {
  TrustGraph g(5);
  EXPECT_EQ(g.vertex_count(), 5u);
  EXPECT_EQ(g.edge_count(), 10u);  // C(5,2)
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_TRUE(g.has_vertex(u));
    for (NodeId v = 0; v < 5; ++v) {
      if (u != v) {
        EXPECT_TRUE(g.has_edge(u, v));
      }
    }
  }
}

TEST(TrustGraph, NoSelfLoops) {
  TrustGraph g(4);
  EXPECT_FALSE(g.has_edge(2, 2));
}

TEST(TrustGraph, RemoveEdgeIsSymmetric) {
  TrustGraph g(4);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 5u);
}

TEST(TrustGraph, RemoveEdgeIdempotent) {
  TrustGraph g(4);
  g.remove_edge(0, 1);
  g.remove_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 5u);
}

TEST(TrustGraph, RemoveVertexDropsIncidence) {
  TrustGraph g(4);
  g.remove_vertex(3);
  EXPECT_FALSE(g.has_vertex(3));
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(TrustGraph, DistancesOnPath) {
  TrustGraph g(4);
  // Reduce the complete graph to the path 0-1-2-3.
  g.remove_edge(0, 2);
  g.remove_edge(0, 3);
  g.remove_edge(1, 3);
  auto d = g.distances_from(0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], 2u);
  EXPECT_EQ(d[3], 3u);
}

TEST(TrustGraph, DistancesUnreachable) {
  TrustGraph g(3);
  g.remove_edge(0, 1);
  g.remove_edge(0, 2);
  auto d = g.distances_from(0);
  EXPECT_EQ(d[1], TrustGraph::kUnreachable);
  EXPECT_EQ(d[2], TrustGraph::kUnreachable);
}

TEST(TrustGraph, PruneRemovesUnreachable) {
  TrustGraph g(4);
  g.remove_edge(0, 3);
  g.remove_edge(1, 3);
  g.remove_edge(2, 3);
  g.prune_unconnected(0);
  EXPECT_FALSE(g.has_vertex(3));
  EXPECT_EQ(g.vertex_count(), 3u);
}

TEST(TrustGraph, PruneKeepsIndirectlyConnected) {
  TrustGraph g(4);
  g.remove_edge(0, 3);  // 3 still reachable via 1 and 2
  g.prune_unconnected(0);
  EXPECT_TRUE(g.has_vertex(3));
}

TEST(TrustGraph, SubgraphRelation) {
  TrustGraph a(4), b(4);
  EXPECT_TRUE(a.is_subgraph_of(b));
  a.remove_edge(0, 1);
  EXPECT_TRUE(a.is_subgraph_of(b));
  EXPECT_FALSE(b.is_subgraph_of(a));
  b.remove_edge(0, 1);
  b.remove_edge(2, 3);
  EXPECT_FALSE(a.is_subgraph_of(b));
}

TEST(TrustGraph, SubgraphIgnoresRemovedVertices) {
  TrustGraph a(4), b(4);
  a.remove_vertex(2);
  EXPECT_TRUE(a.is_subgraph_of(b));
  b.remove_vertex(3);
  EXPECT_FALSE(a.is_subgraph_of(b));  // a still has vertex 3
}

TEST(TrustGraph, PruneToleratesMissingOwner) {
  TrustGraph g(3);
  g.remove_vertex(0);
  EXPECT_NO_THROW(g.prune_unconnected(0));
}

TEST(TrustGraph, DistancesFromRemovedVertexAllUnreachable) {
  TrustGraph g(3);
  g.remove_vertex(1);
  auto d = g.distances_from(1);
  for (auto x : d) EXPECT_EQ(x, TrustGraph::kUnreachable);
}

// ---------------------------------------------------------------------------
// Differential test: the packed word-parallel graph against a plain
// adjacency-list graph with the deque BFS of the implementation it
// replaced, kept here as the reference. Seeded random sequences of the
// three mutators run on both, and every observer must agree after every
// operation, at sizes around the 64-bit word boundaries.
// ---------------------------------------------------------------------------

class RefGraph {
 public:
  explicit RefGraph(std::uint32_t n)
      : n_(n), present_(n, 1), adj_(n), edge_(n, std::vector<char>(n)) {
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u != v) adj_[u].push_back(v);
        edge_[u][v] = u != v ? 1 : 0;
      }
    }
  }

  bool has_vertex(NodeId v) const { return present_[v]; }
  bool has_edge(NodeId u, NodeId v) const {
    return present_[u] && present_[v] && edge_[u][v];
  }
  const std::vector<NodeId>& neighbors(NodeId v) const { return adj_[v]; }

  void remove_edge(NodeId u, NodeId v) {
    if (u == v) return;
    unlist(u, v);
    unlist(v, u);
  }

  void remove_vertex(NodeId v) {
    present_[v] = 0;
    for (NodeId u : adj_[v]) unlist(u, v);
    adj_[v].clear();
  }

  std::uint32_t vertex_count() const {
    return static_cast<std::uint32_t>(
        std::count(present_.begin(), present_.end(), 1));
  }

  std::uint64_t edge_count() const {
    std::uint64_t twice = 0;
    for (NodeId v = 0; v < n_; ++v) {
      if (present_[v]) twice += adj_[v].size();
    }
    return twice / 2;
  }

  std::vector<std::uint32_t> distances_from(NodeId src) const {
    std::vector<std::uint32_t> dist(n_, TrustGraph::kUnreachable);
    if (!present_[src]) return dist;
    dist[src] = 0;
    std::deque<NodeId> queue{src};
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : adj_[u]) {
        if (present_[v] && dist[v] == TrustGraph::kUnreachable) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
    return dist;
  }

  void prune_unconnected(NodeId owner) {
    if (!present_[owner]) return;
    auto dist = distances_from(owner);
    for (NodeId v = 0; v < n_; ++v) {
      if (present_[v] && dist[v] == TrustGraph::kUnreachable) {
        remove_vertex(v);
      }
    }
  }

  bool is_subgraph_of(const RefGraph& other) const {
    for (NodeId u = 0; u < n_; ++u) {
      if (!present_[u]) continue;
      if (!other.present_[u]) return false;
      for (NodeId v : adj_[u]) {
        if (present_[v] && !other.has_edge(u, v)) return false;
      }
    }
    return true;
  }

 private:
  void unlist(NodeId u, NodeId v) {
    edge_[u][v] = 0;
    auto it = std::find(adj_[u].begin(), adj_[u].end(), v);
    if (it != adj_[u].end()) adj_[u].erase(it);
  }

  std::uint32_t n_;
  // char, not bool: bit-packed vector<bool> slows the sanitizer lanes.
  std::vector<char> present_;
  std::vector<std::vector<NodeId>> adj_;  ///< ascending neighbor lists
  std::vector<std::vector<char>> edge_;   ///< the same edges, for lookups
};

/// Every observer of `g` equals the reference's; `prev_g` / `prev_ref` are
/// the states before the last operation (for is_subgraph_of both ways).
void expect_same(const TrustGraph& g, const RefGraph& ref,
                 const TrustGraph& prev_g, const RefGraph& prev_ref,
                 std::uint32_t n) {
  ASSERT_EQ(g.vertex_count(), ref.vertex_count());
  ASSERT_EQ(g.edge_count(), ref.edge_count());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(g.has_vertex(u), ref.has_vertex(u)) << "vertex " << u;
    for (NodeId v = 0; v < n; ++v) {
      if (g.has_edge(u, v) != ref.has_edge(u, v)) {
        FAIL() << "edge " << u << "-" << v;
      }
    }
    ASSERT_EQ(g.distances_from(u), ref.distances_from(u)) << "source " << u;
  }
  ASSERT_EQ(g.is_subgraph_of(prev_g), ref.is_subgraph_of(prev_ref));
  ASSERT_EQ(prev_g.is_subgraph_of(g), prev_ref.is_subgraph_of(ref));
}

class TrustGraphDifferential
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TrustGraphDifferential, MatchesAdjacencyListReference) {
  const std::uint32_t n = GetParam();
  // Enough operations to cut a group (below) off at least once; the
  // all-pairs check is O(n^3) per operation, so the sizes past two words
  // take one seed.
  const std::uint32_t ops = n < 8 ? 40 : n * 3 / 2 + 20;
  const std::vector<std::uint64_t> seeds =
      n < 100 ? std::vector<std::uint64_t>{1, 2}
              : std::vector<std::uint64_t>{1};
  std::uint64_t pruned_vertices = 0;
  std::uint64_t pruned_edges = 0;
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
    Rng rng(seed * 1000 + n);
    TrustGraph g(n);
    RefGraph ref(n);
    // Most operations cut the group {a, b} off from the rest but keep
    // its inner edge, so prunes drop components with edges of their own
    // instead of the graph staying one dense blob; once the group is cut
    // off a prune follows and a new group is drawn from the present
    // vertices. Below four vertices the group is the single vertex a == b.
    const auto draw_group = [&](NodeId& a, NodeId& b) {
      std::vector<NodeId> present;
      for (NodeId v = 0; v < n; ++v) {
        if (ref.has_vertex(v)) present.push_back(v);
      }
      if (present.empty()) return;
      rng.shuffle(present);
      a = present[0];
      b = n < 4 || present.size() < 2 ? a : present[1];
    };
    NodeId a = 0;
    NodeId b = 0;
    draw_group(a, b);
    for (std::uint32_t i = 0; i < ops; ++i) {
      const TrustGraph prev_g = g;
      const RefGraph prev_ref = ref;
      std::vector<std::pair<NodeId, NodeId>> cut;  // (member, outsider)
      for (NodeId m : {a, b}) {
        for (NodeId w : ref.neighbors(m)) {
          if (w != a && w != b) cut.emplace_back(m, w);
        }
      }
      const bool isolated = cut.empty();
      // Every eighth operation is a random one; the rest cut an outside
      // edge of the group or drop the outsider outright (which also
      // shrinks the graph and so the cost of the check).
      const std::uint64_t pick =
          isolated ? 3 : (i % 8 == 7 ? rng.uniform(3) + 1 : 0);
      NodeId u = static_cast<NodeId>(rng.uniform(n));
      const NodeId v = static_cast<NodeId>(rng.uniform(n));
      if (isolated) {
        // Prune from a present vertex outside the group.
        for (std::uint32_t k = 0; k < n; ++k, u = (u + 1) % n) {
          if (u != a && u != b && ref.has_vertex(u)) break;
        }
      }
      if (pick == 0) {
        const auto [m, w] = cut[rng.uniform(cut.size())];
        if (rng.uniform(4) == 0) {
          g.remove_edge(m, w);
          ref.remove_edge(m, w);
        } else {
          g.remove_vertex(w);
          ref.remove_vertex(w);
        }
      } else if (pick == 1) {
        g.remove_edge(u, v);
        ref.remove_edge(u, v);
      } else if (pick == 2) {
        g.remove_vertex(v);
        ref.remove_vertex(v);
      } else {
        g.prune_unconnected(u);
        ref.prune_unconnected(u);
        pruned_vertices += prev_ref.vertex_count() - ref.vertex_count();
        pruned_edges += prev_ref.edge_count() - ref.edge_count();
        if (isolated) draw_group(a, b);
      }
      expect_same(g, ref, prev_g, prev_ref, n);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  if (n > 1) {
    EXPECT_GT(pruned_vertices, 0u) << "no prune ever dropped a vertex";
  }
  if (n > 3) {
    EXPECT_GT(pruned_edges, 0u) << "no prune ever dropped an edge";
  }
}

/// Every observer of `a` equals `b`'s.
void expect_equal_graphs(const TrustGraph& a, const TrustGraph& b,
                         std::uint32_t n) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(a.has_vertex(u), b.has_vertex(u)) << "vertex " << u;
    for (NodeId v = 0; v < n; ++v) {
      if (a.has_edge(u, v) != b.has_edge(u, v)) {
        FAIL() << "edge " << u << "-" << v;
      }
    }
    ASSERT_EQ(a.distances_from(u), b.distances_from(u)) << "source " << u;
  }
  ASSERT_TRUE(a.is_subgraph_of(b));
  ASSERT_TRUE(b.is_subgraph_of(a));
}

// TrustCast prunes lazily (DESIGN.md §18): an inbox's accusations remove
// their edges and one prune follows. That must give the graph a prune
// after every removal gives, whatever the batch: edges only disappear, so
// a vertex cut off from the owner stays cut off, and a removal that
// touches a vertex due to be pruned clears only bits the prune clears.
TEST_P(TrustGraphDifferential, OnePruneAfterABatchEqualsOnePerEdge) {
  const std::uint32_t n = GetParam();
  const std::vector<std::uint64_t> seeds =
      n < 100 ? std::vector<std::uint64_t>{1, 2}
              : std::vector<std::uint64_t>{1};
  std::uint64_t pruned_vertices = 0;
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
    Rng rng(seed * 1000 + n);
    const auto owner = static_cast<NodeId>(rng.uniform(n));
    TrustGraph lazy(n);
    TrustGraph eager(n);
    for (std::uint32_t batch = 0; batch < 12; ++batch) {
      // A batch cuts some or (every other time) all of the edges between
      // a group {a, b} and the rest, then removes edges that touch a, so
      // some removals reach vertices a per-edge prune already dropped.
      std::vector<NodeId> present;
      for (NodeId v = 0; v < n; ++v) {
        if (v != owner && eager.has_vertex(v)) present.push_back(v);
      }
      if (present.empty()) break;
      rng.shuffle(present);
      const NodeId a = present[0];
      const NodeId b = present.size() < 2 ? a : present[1];
      std::vector<std::pair<NodeId, NodeId>> edges;
      for (NodeId m : {a, b}) {
        for (NodeId w = 0; w < n; ++w) {
          if (w != a && w != b) edges.emplace_back(m, w);
        }
      }
      rng.shuffle(edges);
      if (batch % 2 == 1) edges.resize(rng.uniform(edges.size()) + 1);
      if (a != b) edges.emplace_back(a, b);
      for (int i = 0; i < 4; ++i) {
        edges.emplace_back(a, static_cast<NodeId>(rng.uniform(n)));
        edges.emplace_back(static_cast<NodeId>(rng.uniform(n)),
                           static_cast<NodeId>(rng.uniform(n)));
      }
      const std::uint32_t before = eager.vertex_count();
      for (const auto& [u, v] : edges) {
        lazy.remove_edge(u, v);
        eager.remove_edge(u, v);
        eager.prune_unconnected(owner);
      }
      lazy.prune_unconnected(owner);
      pruned_vertices += before - eager.vertex_count();
      expect_equal_graphs(lazy, eager, n);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  if (n > 1) {
    EXPECT_GT(pruned_vertices, 0u) << "no batch ever cut a vertex off";
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, TrustGraphDifferential,
                         ::testing::Values(1u, 2u, 3u, 63u, 64u, 65u, 127u,
                                           128u, 129u, 200u));

}  // namespace
}  // namespace ambb
