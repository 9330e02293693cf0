#include "graph/trust_graph.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace ambb {

namespace {

constexpr std::uint64_t bit(NodeId v) { return std::uint64_t{1} << (v & 63); }

}  // namespace

TrustGraph::TrustGraph(std::uint32_t n)
    : n_(n),
      words_((static_cast<std::size_t>(n) + 63) / 64),
      present_(words_, ~std::uint64_t{0}),
      adj_(static_cast<std::size_t>(n) * words_),
      reached_(words_),
      frontier_(words_),
      next_(words_) {
  AMBB_CHECK(n >= 1);
  if (n % 64 != 0) present_.back() = (std::uint64_t{1} << (n % 64)) - 1;
  for (NodeId v = 0; v < n; ++v) {
    std::copy(present_.begin(), present_.end(), row(v));
    row(v)[v >> 6] &= ~bit(v);  // no self-loops
  }
}

bool TrustGraph::has_vertex(NodeId v) const {
  AMBB_CHECK(v < n_);
  return (present_[v >> 6] & bit(v)) != 0;
}

bool TrustGraph::has_edge(NodeId u, NodeId v) const {
  AMBB_CHECK(u < n_ && v < n_);
  return (row(u)[v >> 6] & bit(v)) != 0;
}

void TrustGraph::remove_edge(NodeId u, NodeId v) {
  AMBB_CHECK(u < n_ && v < n_);
  row(u)[v >> 6] &= ~bit(v);
  row(v)[u >> 6] &= ~bit(u);
}

void TrustGraph::remove_vertex(NodeId v) {
  AMBB_CHECK(v < n_);
  present_[v >> 6] &= ~bit(v);
  for (NodeId u = 0; u < n_; ++u) row(u)[v >> 6] &= ~bit(v);
  std::fill_n(row(v), words_, 0);
}

std::uint32_t TrustGraph::vertex_count() const {
  std::uint32_t c = 0;
  for (std::uint64_t w : present_) {
    c += static_cast<std::uint32_t>(std::popcount(w));
  }
  return c;
}

std::uint64_t TrustGraph::edge_count() const {
  std::uint64_t twice = 0;
  for (std::uint64_t w : adj_) {
    twice += static_cast<std::uint64_t>(std::popcount(w));
  }
  return twice / 2;
}

template <typename OnLayer>
void TrustGraph::bfs(NodeId src, OnLayer&& on_layer) const {
  std::fill(reached_.begin(), reached_.end(), 0);
  std::fill(frontier_.begin(), frontier_.end(), 0);
  reached_[src >> 6] = frontier_[src >> 6] = bit(src);
  for (std::uint32_t d = 1;; ++d) {
    std::fill(next_.begin(), next_.end(), 0);
    for (std::size_t fw = 0; fw < words_; ++fw) {
      for (std::uint64_t w = frontier_[fw]; w != 0; w &= w - 1) {
        const auto u = static_cast<NodeId>(fw * 64 + std::countr_zero(w));
        const std::uint64_t* r = row(u);
        for (std::size_t i = 0; i < words_; ++i) next_[i] |= r[i];
      }
    }
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < words_; ++i) {
      next_[i] &= present_[i] & ~reached_[i];
      reached_[i] |= next_[i];
      any |= next_[i];
    }
    if (any == 0) return;
    on_layer(d);
    frontier_.swap(next_);
  }
}

std::vector<std::uint32_t> TrustGraph::distances_from(NodeId src) const {
  AMBB_CHECK(src < n_);
  std::vector<std::uint32_t> dist(n_, kUnreachable);
  if (!has_vertex(src)) return dist;
  dist[src] = 0;
  bfs(src, [&](std::uint32_t d) {
    for (std::size_t i = 0; i < words_; ++i) {
      for (std::uint64_t w = next_[i]; w != 0; w &= w - 1) {
        dist[i * 64 + static_cast<std::size_t>(std::countr_zero(w))] = d;
      }
    }
  });
  return dist;
}

void TrustGraph::prune_unconnected(NodeId owner) {
  AMBB_CHECK(owner < n_);
  // An honest owner never removes itself; a Byzantine node replaying the
  // honest logic can (e.g. after equivocating as sender) — tolerate it.
  if (!has_vertex(owner)) return;
  bfs(owner, [](std::uint32_t) {});
  if (std::equal(reached_.begin(), reached_.end(), present_.begin())) return;
  present_ = reached_;  // same size: copies words, no allocation
  for (NodeId v = 0; v < n_; ++v) {
    std::uint64_t* r = row(v);
    if ((present_[v >> 6] & bit(v)) == 0) {
      std::fill_n(r, words_, 0);
    } else {
      for (std::size_t i = 0; i < words_; ++i) r[i] &= present_[i];
    }
  }
}

bool TrustGraph::is_subgraph_of(const TrustGraph& other) const {
  AMBB_CHECK(n_ == other.n_);
  for (std::size_t i = 0; i < words_; ++i) {
    if ((present_[i] & ~other.present_[i]) != 0) return false;
  }
  for (std::size_t i = 0; i < adj_.size(); ++i) {
    if ((adj_[i] & ~other.adj_[i]) != 0) return false;
  }
  return true;
}

}  // namespace ambb
