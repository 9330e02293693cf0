// Merkle-tree commitment (src/crypto/merkle.hpp): proof round trips for
// every (n_leaves, index), domain separation between leaf and interior
// hashes, index binding in the leaf hash, and rejection of out-of-range
// indices, wrong-length paths and cross-leaf replays.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"

namespace ambb {
namespace {

std::vector<Digest> demo_leaves(std::uint32_t n) {
  std::vector<Digest> leaves;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> chunk = {static_cast<std::uint8_t>(i * 3),
                                       static_cast<std::uint8_t>(i + 1)};
    leaves.push_back(merkle::leaf_hash(i, chunk));
  }
  return leaves;
}

TEST(Merkle, ProofsRoundTripForEveryLeafCountAndIndex) {
  for (std::uint32_t n = 1; n <= 17; ++n) {
    const auto leaves = demo_leaves(n);
    const auto tree = merkle::Tree::build(leaves);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto path = tree.prove(i);
      EXPECT_TRUE(merkle::verify(tree.root(), n, i, leaves[i], path))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Merkle, PathLengthIsCeilLog2) {
  EXPECT_EQ(merkle::Tree::build(demo_leaves(1)).prove(0).size(), 0u);
  EXPECT_EQ(merkle::Tree::build(demo_leaves(2)).prove(1).size(), 1u);
  EXPECT_EQ(merkle::Tree::build(demo_leaves(5)).prove(4).size(), 3u);
  EXPECT_EQ(merkle::Tree::build(demo_leaves(8)).prove(0).size(), 3u);
  EXPECT_EQ(merkle::Tree::build(demo_leaves(9)).prove(8).size(), 4u);
}

TEST(Merkle, LeafHashBindsTheColumnIndex) {
  const std::vector<std::uint8_t> chunk = {1, 2, 3};
  EXPECT_NE(merkle::leaf_hash(0, chunk), merkle::leaf_hash(1, chunk));

  // A valid (chunk, path) for column i never verifies at column j: the
  // verifier recomputes leaf_hash(j, chunk), which differs.
  const auto leaves = demo_leaves(8);
  const auto tree = merkle::Tree::build(leaves);
  EXPECT_FALSE(merkle::verify(tree.root(), 8, 3, leaves[2], tree.prove(2)));
}

TEST(Merkle, DomainSeparationLeafVsInterior) {
  // An interior digest replayed as a leaf must not verify one level up:
  // leaf and node hashes use distinct prefix bytes, so node_hash(a, b)
  // is never equal to any leaf_hash(i, chunk) preimage collision short
  // of breaking SHA-256. Check the hashes differ even over identical
  // byte content.
  const std::vector<std::uint8_t> as_bytes(64, 0xab);
  Digest l, r;
  l.fill(0xab);
  r.fill(0xab);
  const Digest node = merkle::node_hash(l, r);
  // leaf_hash prepends 0x00 || index; build the closest leaf encoding.
  const Digest leaf = merkle::leaf_hash(0xabababab, as_bytes);
  EXPECT_NE(node, leaf);
}

TEST(Merkle, RejectsOutOfRangeAndWrongLengthPaths) {
  const auto leaves = demo_leaves(6);
  const auto tree = merkle::Tree::build(leaves);
  auto path = tree.prove(2);
  EXPECT_FALSE(merkle::verify(tree.root(), 6, 6, leaves[2], path));  // i >= n
  auto long_path = path;
  long_path.push_back(Digest{});
  EXPECT_FALSE(merkle::verify(tree.root(), 6, 2, leaves[2], long_path));
  auto short_path = path;
  short_path.pop_back();
  EXPECT_FALSE(merkle::verify(tree.root(), 6, 2, leaves[2], short_path));

  // Tampering with any path element breaks verification.
  for (std::size_t lvl = 0; lvl < path.size(); ++lvl) {
    auto bad = path;
    bad[lvl][0] ^= 1;
    EXPECT_FALSE(merkle::verify(tree.root(), 6, 2, leaves[2], bad)) << lvl;
  }
}

TEST(Merkle, RootDependsOnEveryLeaf) {
  const auto leaves = demo_leaves(7);
  const auto root = merkle::Tree::build(leaves).root();
  for (std::uint32_t i = 0; i < 7; ++i) {
    auto mutated = leaves;
    mutated[i][0] ^= 1;
    EXPECT_NE(merkle::Tree::build(mutated).root(), root) << i;
  }
  // Appending a leaf (crossing into the next power of two or not) moves
  // the root too.
  auto extended = leaves;
  extended.push_back(merkle::leaf_hash(7, std::vector<std::uint8_t>{9}));
  EXPECT_NE(merkle::Tree::build(extended).root(), root);
}

}  // namespace
}  // namespace ambb
