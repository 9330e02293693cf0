// Golden determinism regression: for fixed (protocol, n, f, slots, seed,
// adversary, net), the ledger totals, the round count, the per-slot and
// per-kind cost vectors, the corrupt set, the slot senders and inputs,
// the full commit log and the JSONL trace bytes must be bit-for-bit what
// the capture produced. The first seven rows were extracted from the seed
// implementation (one Envelope per (sender, recipient) copy, per-envelope
// std::function accounting) before the shared-record rewrite; the rest
// pin every registry row, one schedule-adversary row and one bounded-delay
// row per base family, captured before the per-family drivers were folded
// into one. Any drift here means a change altered an execution, not just
// its speed.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>

#include "runner/registry.hpp"
#include "trace/trace.hpp"

namespace ambb {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::uint64_t commit_hash(const RunResult& r) {
  std::uint64_t h = kFnvOffset;
  for (Slot k = 1; k <= r.slots; ++k) {
    for (NodeId v = 0; v < r.n; ++v) {
      if (!r.commits.has(v, k)) {
        h = fnv1a(h, 0xDEADULL);
        continue;
      }
      const CommitRecord& c = r.commits.get(v, k);
      h = fnv1a(h, c.value);
      h = fnv1a(h, c.round);
    }
  }
  return h;
}

std::uint64_t per_slot_hash(const RunResult& r) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t b : r.per_slot_bits) h = fnv1a(h, b);
  return h;
}

template <class V>
std::uint64_t fold(std::uint64_t h, const V& xs) {
  h = fnv1a(h, xs.size());
  for (const auto& x : xs) h = fnv1a(h, static_cast<std::uint64_t>(x));
  return h;
}

/// Everything RunResult carries besides the ledger totals, the per-slot
/// vector and the commit log.
std::uint64_t meta_hash(const RunResult& r) {
  std::uint64_t h = kFnvOffset;
  h = fold(h, r.per_kind_bits);
  h = fold(h, r.corrupt);
  h = fold(h, r.senders);
  h = fold(h, r.sender_inputs);
  return h;
}

/// FNV-1a over the bytes of a JSONL trace.
std::uint64_t bytes_hash(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Golden {
  const char* proto;
  std::uint32_t n, f;
  Slot slots;
  std::uint64_t seed;
  const char* adversary;
  const char* net;
  std::uint64_t honest_bits;
  std::uint64_t adversary_bits;
  std::uint64_t honest_msgs;
  Round rounds;
  std::uint64_t per_slot_hash;
  std::uint64_t commit_hash;
  std::uint64_t meta_hash;
  std::uint64_t jsonl_hash;
};

/// Corrupts node 1 from the start and silences it, then corrupts the
/// slot-1 sender (node 0) after the fact and erases its round-1 copies
/// to odd nodes: two corruptions, within every family's budget below.
constexpr const char* kSched =
    "sched:corrupt(0,1);silence(1,0,*);corrupt(2,0);erase(1,0,1000,2,1)";

// Columns: protocol, n, f, slots, seed, adversary, net; honest bits,
// adversary bits, honest messages, rounds; per-slot, commit, meta and
// JSONL hashes.
constexpr Golden kGolden[] = {
    {"linear", 8u, 3u, 4u, 42ull, "mixed", "lockstep",
     302148ull, 154795ull, 661ull, 220ull,
     0xcea0288dedc4bf5dull, 0xe38d8413f9d15134ull,
     0x7c9928666e9f5c80ull, 0xd0aa0e2928bd86b1ull},
    {"linear", 8u, 3u, 4u, 42ull, "adaptive-erase", "lockstep",
     359377ull, 1716ull, 726ull, 220ull,
     0xfd5102a55c1619ebull, 0x98a0974e5af3ad6dull,
     0x11b7915c3d4e5f40ull, 0x4ff6a365707d10a4ull},
    {"quadratic", 8u, 4u, 4u, 42ull, "equivocate", "lockstep",
     377216ull, 356056ull, 1008ull, 60ull,
     0xe02eeefdcf551ca3ull, 0xf5a8a45b9af08783ull,
     0x5b0ba19619a26726ull, 0x1824b896db3b2891ull},
    {"quadratic", 8u, 4u, 4u, 42ull, "conspiracy", "lockstep",
     348880ull, 73088ull, 1008ull, 60ull,
     0xe6c85eae9e696ee4ull, 0xbb6b81897e63558bull,
     0xfcb7b3df436d42b5ull, 0xbd66679c9870577cull},
    {"dolev-strong", 8u, 4u, 3u, 42ull, "stagger", "lockstep",
     204708ull, 97887ull, 168ull, 18ull,
     0x623f7c38ed8f5808ull, 0xfedf54da0e857183ull,
     0xd79dc9555f8667b6ull, 0x3062f807a81b06b4ull},
    {"dolev-strong-msig", 8u, 4u, 3u, 42ull, "equivocate", "lockstep",
     96768ull, 110592ull, 168ull, 18ull,
     0x75649199436ad97dull, 0xfedf54da0e857183ull,
     0xfff479e6893a7c4bull, 0x57fc3bcadb417ad7ull},
    {"phase-king", 10u, 3u, 3u, 42ull, "confuse", "lockstep",
     133803ull, 192264ull, 1539ull, 42ull,
     0x3116ff46abc99a1eull, 0xf979075daad8bf43ull,
     0xcf490d4534014098ull, 0x070e41279f12281cull},
    {"mr-baseline", 8u, 3u, 4u, 42ull, "mixed", "lockstep",
     349847ull, 225389ull, 734ull, 220ull,
     0x77b85fe2bbc23774ull, 0x97698bb7eb785640ull,
     0x1608449d72a81b06ull, 0x986ee599ed6256b7ull},
    {"linear-nomem", 8u, 3u, 4u, 42ull, "flood", "lockstep",
     448345ull, 424695ull, 913ull, 220ull,
     0x3e777d43b92bb115ull, 0x0ae4a9591a744053ull,
     0x7b52a7dddd1b5c8cull, 0x5552ce71d2d98c62ull},
    {"linear-noquery", 8u, 3u, 4u, 42ull, "silent", "lockstep",
     313456ull, 0ull, 697ull, 220ull,
     0x97e8a19196224597ull, 0xfb2681872e62cd83ull,
     0xd800cbc332c7142aull, 0x75a17ac91594c801ull},
    {"hotstuff", 8u, 2u, 4u, 42ull, "selective", "lockstep",
     49022ull, 29614ull, 86ull, 24ull,
     0x606a715decdad423ull, 0x64e034f9cdfda7ebull,
     0xf49e3f68b3524d87ull, 0xd80ba7280debf4ebull},
    {"ext:linear", 8u, 3u, 3u, 42ull, kSched, "lockstep",
     2397227ull, 12110ull, 4258ull, 1492ull,
     0x8ccd3fa6db933e44ull, 0x699df89272804bb3ull,
     0xac89d7f311a603f2ull, 0xd88ba46beb3b2989ull},
    {"ext:quadratic", 8u, 3u, 3u, 42ull, "none", "lockstep",
     1095864ull, 0ull, 1704ull, 385ull,
     0xc139ef73fe644528ull, 0x9718afec10e06d73ull,
     0xe797db56f0c497e8ull, 0xce86b0cfd8c36457ull},
    {"ext:dolev-strong", 8u, 3u, 3u, 42ull, "fuzz", "lockstep",
     1421567ull, 16954ull, 1690ull, 142ull,
     0xa2351539b8db15f4ull, 0x40708ae968a16a33ull,
     0x58b39b62273aa2beull, 0x41234c76ae36cad1ull},
    {"ext:dolev-strong-msig", 8u, 3u, 3u, 42ull, "none", "bounded:2",
     831117ull, 0ull, 1347ull, 142ull,
     0x3519e7e65f46ba30ull, 0x95122e7bb4018203ull,
     0xe0c40e7aaae2f8b2ull, 0x2fd9dba39ea3258cull},
    {"linear", 8u, 3u, 4u, 42ull, kSched, "lockstep",
     353013ull, 54641ull, 762ull, 220ull,
     0xfab7c28a45e5d28eull, 0x4cf32f7369d97843ull,
     0x4539b33769703de9ull, 0x3aa9816c634273a6ull},
    {"quadratic", 8u, 4u, 4u, 42ull, kSched, "lockstep",
     262927ull, 45063ull, 721ull, 60ull,
     0x7a5c9b9cbf7655abull, 0x76b6db5c7a11dc53ull,
     0xf8759e22482069d0ull, 0xcfc5fa3b4898f424ull},
    {"dolev-strong", 8u, 4u, 3u, 42ull, kSched, "lockstep",
     71904ull, 13433ull, 91ull, 18ull,
     0x08332bc2876f8e1full, 0xd916c99d1d8ca72eull,
     0xccf4ae50a5da2769ull, 0xba2c139b107af1daull},
    {"phase-king", 10u, 3u, 3u, 42ull, kSched, "lockstep",
     411336ull, 53758ull, 1800ull, 42ull,
     0x163511b6f08d9f3dull, 0xc6ebe462bbe5bcc3ull,
     0xa51ce50b78ea2fedull, 0x4ccb7cea9da5ba90ull},
    {"hotstuff", 8u, 2u, 4u, 42ull, kSched, "lockstep",
     42741ull, 2284ull, 75ull, 24ull,
     0x059a3270e50c0a28ull, 0xbd566bc227f84253ull,
     0x408a263d4efd1b20ull, 0xa966410f8c0ac0e6ull},
    {"linear", 8u, 3u, 4u, 42ull, "mixed", "bounded:2",
     164294ull, 80608ull, 543ull, 220ull,
     0xd99cf93122c33e83ull, 0x06816bd16438a6c3ull,
     0x6c73b4bcbf1e9268ull, 0x4d61ece14ef66620ull},
    {"quadratic", 8u, 4u, 4u, 42ull, "equivocate", "bounded:2",
     662144ull, 640984ull, 1904ull, 60ull,
     0x23ddfde8ff19e88aull, 0xf5a8a45b9af08783ull,
     0x0994d1e53b8eca9dull, 0x81885ef400283c07ull},
    {"dolev-strong", 8u, 4u, 3u, 42ull, "stagger", "bounded:2",
     106722ull, 98958ull, 98ull, 18ull,
     0xdfeaf1328d99b75eull, 0xb47f2e7cf1eef87eull,
     0x345d555c5adb5e37ull, 0x32cb2ed25f95d351ull},
    {"phase-king", 10u, 3u, 3u, 42ull, "confuse", "bounded:2",
     152235ull, 192264ull, 1539ull, 42ull,
     0xd5f103b393c3f504ull, 0xf979075daad8bf43ull,
     0x01c16e5abee3881eull, 0x85832788db2977a2ull},
    {"hotstuff", 8u, 2u, 4u, 42ull, "selective", "bounded:2",
     13133ull, 9707ull, 23ull, 24ull,
     0x8db9b3241c95bd4dull, 0x06816bd16438a6c3ull,
     0x2f62ba3dc90fc25cull, 0xa16128d2aa70245full},
};

class DeterminismGolden : public ::testing::TestWithParam<std::size_t> {};

CommonParams params_of(const Golden& g) {
  CommonParams p;
  p.n = g.n;
  p.f = g.f;
  p.slots = g.slots;
  p.seed = g.seed;
  p.adversary = g.adversary;
  p.net = g.net;
  return p;
}

std::string label(const Golden& g) {
  return std::string(g.proto) + "/" + g.adversary + "/" + g.net;
}

TEST_P(DeterminismGolden, MatchesCaptureBitForBit) {
  const Golden& g = kGolden[GetParam()];
  std::ostringstream jsonl;
  trace::JsonlSink sink(jsonl);
  RunResult r = protocol(g.proto).run(RunRequest(params_of(g), &sink));

  EXPECT_EQ(r.honest_bits, g.honest_bits) << label(g);
  EXPECT_EQ(r.adversary_bits, g.adversary_bits) << label(g);
  EXPECT_EQ(r.honest_msgs, g.honest_msgs) << label(g);
  EXPECT_EQ(r.rounds, g.rounds) << label(g);
  EXPECT_EQ(per_slot_hash(r), g.per_slot_hash)
      << label(g) << ": per_slot_bits drifted";
  EXPECT_EQ(commit_hash(r), g.commit_hash)
      << label(g) << ": commit log drifted";
  EXPECT_EQ(meta_hash(r), g.meta_hash)
      << label(g) << ": per-kind bits, corrupt set, senders or inputs drifted";
  EXPECT_EQ(bytes_hash(jsonl.str()), g.jsonl_hash)
      << label(g) << ": JSONL trace drifted";
}

TEST_P(DeterminismGolden, RepeatedUntracedRunsAreIdentical) {
  const Golden& g = kGolden[GetParam()];
  RunResult a = protocol(g.proto).run(params_of(g));
  RunResult b = protocol(g.proto).run(params_of(g));
  EXPECT_EQ(a.honest_bits, g.honest_bits) << label(g);
  EXPECT_EQ(a.honest_bits, b.honest_bits);
  EXPECT_EQ(a.per_slot_bits, b.per_slot_bits);
  EXPECT_EQ(commit_hash(a), g.commit_hash) << label(g);
  EXPECT_EQ(commit_hash(a), commit_hash(b));
  EXPECT_EQ(meta_hash(a), meta_hash(b));
}

INSTANTIATE_TEST_SUITE_P(
    Captures, DeterminismGolden,
    ::testing::Range(std::size_t{0}, std::size_t{std::size(kGolden)}),
    [](const auto& info) {
      const Golden& g = kGolden[info.param];
      std::string s = g.proto;
      s += "_";
      s += g.adversary == std::string(kSched) ? "sched" : g.adversary;
      if (g.net != std::string("lockstep")) s += std::string("_") + g.net;
      for (char& c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace ambb
