// Merkle-tree commitment over erasure-coded chunks (DESIGN.md §13).
//
// The extension protocol's base-BB phase agrees only on a root digest;
// each dispersed chunk travels with its authentication path so receivers
// can verify it is THE column the committed codeword has at that index.
// Leaf and interior hashes are domain-separated (0x00 / 0x01 prefix
// bytes) so a proof for an interior node can never be replayed as a
// chunk, and the leaf hash binds the column index so a valid chunk for
// column i cannot be presented as column j.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace ambb::merkle {

/// H(0x00 || index || chunk): the commitment to one column.
Digest leaf_hash(std::uint32_t index, std::span<const std::uint8_t> chunk);

/// H(0x01 || left || right): one interior node.
Digest node_hash(const Digest& left, const Digest& right);

/// Authentication path for one leaf: the sibling digest at every level,
/// leaf-adjacent first. Length = ceil(log2(n_leaves)) (0 for one leaf).
using Path = std::vector<Digest>;

/// Complete binary Merkle tree over n leaves, padded to the next power of
/// two with all-zero digests (a zero digest is never a valid leaf_hash
/// preimage under the domain separation above, SHA-256 assumed
/// collision-resistant).
class Tree {
 public:
  static Tree build(const std::vector<Digest>& leaves);

  const Digest& root() const { return levels_.back()[0]; }

  Path prove(std::uint32_t index) const;

 private:
  std::uint32_t n_leaves_ = 0;
  /// levels_[0] = padded leaves, levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
};

/// Verify that `leaf` sits at `index` of the tree with the given root over
/// `n_leaves` leaves. Rejects out-of-range indices and wrong-length paths.
bool verify(const Digest& root, std::uint32_t n_leaves, std::uint32_t index,
            const Digest& leaf, const Path& path);

}  // namespace ambb::merkle
