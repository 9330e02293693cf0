// Experiment F6 — Section 3 / Lemma 1's precondition: constant-degree
// (n, 2eps, 1-2eps)-expanders exist and our construction finds them.
// Reports degree, spectral gap estimate, and sampled-expansion quality
// across n and eps.
#include "bench_common.hpp"

#include "common/rng.hpp"
#include "graph/expander.hpp"

namespace ambb::bench {
namespace {

void run_table() {
  print_header(
      "F6 / Section 3: (n, 2eps, 1-2eps)-expander construction",
      "constant degree suffices for any fixed eps; degree is independent "
      "of n");

  // Each (eps, n) cell is an independent construction with its own RNGs;
  // run the grid through the engine's generic map (results come back in
  // grid order regardless of AMBB_BENCH_JOBS).
  struct Cell {
    double eps;
    std::uint32_t n;
    std::uint32_t max_degree;
    double lambda;
    bool ok;
  };
  std::vector<Cell> grid;
  for (double eps : {0.05, 0.1, 0.2}) {
    for (std::uint32_t n : {32u, 64u, 128u, 256u}) {
      grid.push_back(Cell{eps, n, 0, 0.0, false});
    }
  }
  const std::vector<Cell> cells = engine::parallel_map(
      grid.size(), bench_jobs(), [&grid](std::size_t i) {
        Cell c = grid[i];
        Graph g = build_expander(c.n, c.eps, 99);
        Rng rng(1234);
        c.lambda = second_eigenvalue_estimate(g, rng);
        Rng check(777);
        c.ok = sampled_expansion_check(g, 2 * c.eps, 1 - 2 * c.eps, 500,
                                       check);
        c.max_degree = g.max_degree();
        return c;
      });

  TextTable t({"n", "eps", "alpha=2eps", "beta=1-2eps", "max degree",
               "lambda2 estimate", "sampled check (500)"});
  for (const Cell& c : cells) {
    // A failed expansion check invalidates every downstream cost claim;
    // count it so the binary exits non-zero.
    if (!c.ok) ++state().violations;
    t.add_row({std::to_string(c.n), TextTable::num(c.eps, 2),
               TextTable::num(2 * c.eps, 2), TextTable::num(1 - 2 * c.eps, 2),
               std::to_string(c.max_degree), TextTable::num(c.lambda, 1),
               c.ok ? "pass" : "FAIL"});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Reading: for fixed eps the degree column is constant once n exceeds "
      "the base degree (small n fall back to\nthe complete graph); lambda2 "
      "well below the degree certifies spectral expansion.\n");
}

}  // namespace
}  // namespace ambb::bench

int main() {
  ambb::bench::run_table();
  return ambb::bench::finish_bench("f6_expander");
}
