#include "graph/expander.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace ambb {
namespace {

TEST(Graph, AddEdgeSymmetricNoDuplicates) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // duplicate, collapsed
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, SelfLoopRejected) {
  Graph g(4);
  EXPECT_THROW(g.add_edge(2, 2), CheckError);
}

TEST(Graph, NeighborhoodSize) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  // N({0, 3}) = {1, 2, 4}
  EXPECT_EQ(g.neighborhood_size({0, 3}), 3u);
  // N({1}) = {0}
  EXPECT_EQ(g.neighborhood_size({1}), 1u);
}

TEST(RandomRegular, DegreesNearTarget) {
  Rng rng(3);
  Graph g = random_regular_graph(100, 8, rng);
  for (std::uint32_t v = 0; v < 100; ++v) {
    EXPECT_GE(g.neighbors(v).size(), 4u);
    EXPECT_LE(g.neighbors(v).size(), 8u);
  }
}

TEST(RandomRegular, DeterministicGivenRngState) {
  Rng r1(9), r2(9);
  Graph a = random_regular_graph(40, 6, r1);
  Graph b = random_regular_graph(40, 6, r2);
  for (std::uint32_t v = 0; v < 40; ++v) {
    EXPECT_EQ(a.neighbors(v), b.neighbors(v));
  }
}

TEST(Spectral, SecondEigenvalueBelowDegree) {
  Rng rng(5);
  Graph g = random_regular_graph(128, 10, rng);
  Rng r2 = rng.fork();
  const double lambda = second_eigenvalue_estimate(g, r2);
  // Random regular graphs are near-Ramanujan: lambda2 well below d.
  EXPECT_LT(lambda, 10.0);
  EXPECT_GT(lambda, 0.0);
}

TEST(Expansion, SampledCheckAcceptsGoodGraph) {
  Rng rng(7);
  Graph g = random_regular_graph(100, 16, rng);
  Rng r2 = rng.fork();
  EXPECT_TRUE(sampled_expansion_check(g, 0.2, 0.5, 100, r2));
}

TEST(Expansion, SampledCheckRejectsNonExpandingGraph) {
  // A perfect matching: |N(S)| = |S| for every S, so no sample can beat
  // beta * n = 12 > 10 = |S|.
  Graph g(20);
  for (std::uint32_t i = 0; i < 10; ++i) g.add_edge(2 * i, 2 * i + 1);
  Rng rng(11);
  EXPECT_FALSE(sampled_expansion_check(g, 0.5, 0.6, 200, rng));
}

struct ExpanderParam {
  std::uint32_t n;
  double eps;
};

class BuildExpanderTest : public ::testing::TestWithParam<ExpanderParam> {};

TEST_P(BuildExpanderTest, MeetsPaperParameters) {
  const auto [n, eps] = GetParam();
  Graph g = build_expander(n, eps, 1234);
  // Independent re-check with a different sampler seed: the graph must be
  // an (n, 2eps, 1-2eps)-expander on fresh random subsets.
  Rng rng(999);
  EXPECT_TRUE(sampled_expansion_check(g, 2 * eps, 1 - 2 * eps, 300, rng));
  // Constant degree: independent of n for fixed eps.
  EXPECT_LE(g.max_degree(), std::max<std::uint32_t>(
                                64, static_cast<std::uint32_t>(16.0 / eps)));
}

// Includes the F6 figure's grid: eps in {0.05, 0.1, 0.2} x n in {32, 64,
// 128, 256}.
INSTANTIATE_TEST_SUITE_P(
    Sweep, BuildExpanderTest,
    ::testing::Values(ExpanderParam{16, 0.1}, ExpanderParam{32, 0.1},
                      ExpanderParam{64, 0.1}, ExpanderParam{128, 0.1},
                      ExpanderParam{64, 0.05}, ExpanderParam{64, 0.2},
                      ExpanderParam{48, 0.15}, ExpanderParam{256, 0.1},
                      ExpanderParam{32, 0.05}, ExpanderParam{128, 0.05},
                      ExpanderParam{256, 0.05}, ExpanderParam{32, 0.2},
                      ExpanderParam{128, 0.2}, ExpanderParam{256, 0.2}));

TEST(BuildExpander, DeterministicForSameSeed) {
  Graph a = build_expander(50, 0.1, 77);
  Graph b = build_expander(50, 0.1, 77);
  for (std::uint32_t v = 0; v < 50; ++v) {
    EXPECT_EQ(a.neighbors(v), b.neighbors(v));
  }
}

TEST(BuildExpander, RejectsBadEps) {
  EXPECT_THROW(build_expander(16, 0.0, 1), CheckError);
  EXPECT_THROW(build_expander(16, 0.5, 1), CheckError);
}

}  // namespace
}  // namespace ambb
