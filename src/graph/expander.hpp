// Constant-degree expander graphs.
//
// Algorithm 4 uses an (n, 2eps, 1-2eps)-expander G_eps known to all nodes:
// every vertex set S with |S| = ceil(2eps*n) has more than (1-2eps)n
// neighbors. We construct candidates as unions of random Hamiltonian
// cycles (degree-d regular multigraphs with duplicates collapsed), then
// certify expansion by (a) a spectral bound via power iteration and (b)
// Monte-Carlo subset sampling. Exact expansion verification is co-NP-hard;
// random d-regular graphs are Ramanujan-like whp, and the sampled check is
// what the simulation's safety actually exercises.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ambb {

class Graph {
 public:
  explicit Graph(std::uint32_t n);

  std::uint32_t n() const { return n_; }

  void add_edge(std::uint32_t u, std::uint32_t v);
  bool has_edge(std::uint32_t u, std::uint32_t v) const;

  const std::vector<std::uint32_t>& neighbors(std::uint32_t u) const {
    return adj_[u];
  }
  std::uint32_t max_degree() const;
  std::uint64_t edge_count() const;

  /// |N(S)|: number of vertices adjacent to at least one vertex of S
  /// (may include members of S, as in the paper's definition).
  std::uint32_t neighborhood_size(const std::vector<std::uint32_t>& s) const;

 private:
  std::uint32_t n_;
  std::vector<std::vector<std::uint32_t>> adj_;
};

/// Union of ceil(d/2) uniformly random Hamiltonian cycles; duplicates
/// collapsed, so degrees are <= 2*ceil(d/2) and typically == for n >> d.
Graph random_regular_graph(std::uint32_t n, std::uint32_t d, Rng& rng);

/// Second-largest absolute adjacency eigenvalue estimated by power
/// iteration on the component orthogonal to the all-ones vector. Smaller
/// is better; d-regular Ramanujan graphs achieve ~2*sqrt(d-1).
double second_eigenvalue_estimate(const Graph& g, Rng& rng,
                                  int iters = 200);

/// Monte-Carlo check of (n, alpha, beta)-expansion: samples random vertex
/// sets S of size ceil(alpha*n) and verifies |N(S)| > beta*n for all of
/// them. Returns false on the first violated sample.
bool sampled_expansion_check(const Graph& g, double alpha, double beta,
                             int samples, Rng& rng);

/// Deterministically build an (n, 2eps, 1-2eps)-expander for Algorithm 4:
/// tries growing degrees / fresh seeds until the sampled check passes.
/// All nodes calling this with the same (n, eps, seed) get the same graph,
/// modeling the paper's "known to all nodes".
Graph build_expander(std::uint32_t n, double eps, std::uint64_t seed,
                     int samples = 200);

}  // namespace ambb
