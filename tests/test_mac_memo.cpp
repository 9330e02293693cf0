// Run-level guard on KeyRegistry's MAC memo (DESIGN.md §14). In a
// broadcast run every recipient re-checks the same threshold shares and
// signatures, so all but the first check of each (owner, domain, digest)
// must be served from the memo. A slot index that drops part of the key
// shows up here as a collapsed hit ratio and an eviction on almost every
// miss, even while every unit test of the cache still passes.
#include <gtest/gtest.h>

#include <cstdint>

#include "crypto/signer.hpp"
#include "runner/registry.hpp"

namespace ambb {
namespace {

/// The calling thread's MAC memo counters, as a delta across one run.
VerifyCache::Stats run_delta(const char* name, const CommonParams& p) {
  const VerifyCache::Stats before = KeyRegistry::mac_cache_stats();
  protocol(name).run(p);
  const VerifyCache::Stats after = KeyRegistry::mac_cache_stats();
  return {after.hits - before.hits, after.misses - before.misses,
          after.evictions - before.evictions};
}

void expect_memo_hits(const VerifyCache::Stats& s) {
  ASSERT_GT(s.misses, 0u);
  const double ratio =
      static_cast<double>(s.hits) / static_cast<double>(s.hits + s.misses);
  EXPECT_GE(ratio, 0.8) << s.hits << " hits, " << s.misses << " misses";
  // At most 5% of misses may overwrite a live entry: the rest are the
  // first sighting of each key, which no cache can avoid.
  EXPECT_LE(s.evictions * 20, s.misses)
      << s.evictions << " evictions, " << s.misses << " misses";
}

TEST(MacMemo, LinearMixedRunHits) {
  CommonParams p;
  p.n = 32;
  p.slots = 16;
  p.seed = 1;
  p.adversary = "mixed";
  expect_memo_hits(run_delta("linear", p));
}

TEST(MacMemo, QuadraticSilentRunHits) {
  CommonParams p;
  p.n = 16;
  p.slots = 16;
  p.seed = 1;
  p.adversary = "silent";
  expect_memo_hits(run_delta("quadratic", p));
}

}  // namespace
}  // namespace ambb
