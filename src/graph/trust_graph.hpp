// Trust graph for TrustCast (Algorithm 5.1, simplified from Wan et al.).
//
// Each node maintains an undirected graph over the n nodes whose edges
// represent pairwise trust. Edges disappear when accusations are observed;
// vertices disappear when they become unconnected from the owner. The
// protocol invariants (transferability / termination / integrity) are
// properties of how the owning node updates this structure.
//
// Layout (DESIGN.md §18): presence and adjacency are packed 64-bit words,
// one row of ceil(n/64) words per vertex, and BFS expands a whole frontier
// per step (next = OR(rows of frontier) & present & ~reached). The BFS
// scratch words are members, so after construction remove_edge,
// remove_vertex and prune_unconnected never touch the heap; const
// queries share that scratch too, so one graph must not be read from two
// threads at once (each node owns its graph). Adjacency bits only ever
// join two present vertices, and the bits past n in each row's last word
// stay zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace ambb {

class TrustGraph {
 public:
  /// Complete graph over n vertices.
  explicit TrustGraph(std::uint32_t n);

  bool has_vertex(NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const;

  /// Remove the edge (u, v); no-op if absent or if a vertex is gone.
  void remove_edge(NodeId u, NodeId v);

  /// Remove vertex v and all incident edges.
  void remove_vertex(NodeId v);

  std::uint32_t vertex_count() const;
  std::uint64_t edge_count() const;

  /// BFS hop distances from src over present vertices; kUnreachable for
  /// unreachable or absent vertices.
  static constexpr std::uint32_t kUnreachable = 0xffffffff;
  std::vector<std::uint32_t> distances_from(NodeId src) const;

  /// Remove every vertex with no path to `owner` (TrustCast's rule
  /// "remove all vertices unconnected with vertex u"), in one pass over
  /// the rows; the result equals removing them one by one.
  void prune_unconnected(NodeId owner);

  /// True iff this graph's vertices and edges are a subset of other's
  /// (the transferability property quantifies over this relation).
  bool is_subgraph_of(const TrustGraph& other) const;

 private:
  const std::uint64_t* row(NodeId v) const { return &adj_[v * words_]; }
  std::uint64_t* row(NodeId v) { return &adj_[v * words_]; }

  /// Frontier BFS from src (present) into reached_; calls on_layer(d)
  /// with next_ holding the vertices at distance d >= 1.
  template <typename OnLayer>
  void bfs(NodeId src, OnLayer&& on_layer) const;

  std::uint32_t n_;
  std::size_t words_;                  ///< words per row: ceil(n / 64)
  std::vector<std::uint64_t> present_;
  std::vector<std::uint64_t> adj_;     ///< n rows of words_ words
  // BFS scratch: not state, and not safe for concurrent calls on one graph.
  mutable std::vector<std::uint64_t> reached_;
  mutable std::vector<std::uint64_t> frontier_;
  mutable std::vector<std::uint64_t> next_;
};

}  // namespace ambb
