// Run-level guards on the two verify caches. KeyRegistry's MAC memo
// (DESIGN.md §14): when every recipient re-checks the same threshold
// shares and signatures, all but the first check of each (owner, domain,
// digest) must be served from the memo. A slot index that drops part of
// the key shows up here as a collapsed hit ratio and an eviction on
// almost every miss, even while every unit test of the cache still
// passes. Under lock-step, both Algorithm 4 and Algorithm 5.2 check each
// multicast or group once for all its recipients (RecordVerdicts,
// DESIGN.md §19 and §22), so the memo cases run on the timing path,
// where no delivery carries a record id and each recipient checks for
// itself; the lock-step cases guard the per-record verdicts instead.
// There the MAC memo is the only memo a repeated check reaches: no
// last-arguments memo sits in front of KeyRegistry::verify or
// ThresholdScheme::verify, so these bounded:0 cases are its guard.
#include <gtest/gtest.h>

#include <cstdint>

#include "crypto/signer.hpp"
#include "runner/registry.hpp"
#include "sim/net.hpp"

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

/// Requires at least 0.8 of the run's RecordVerdicts lookups to hit.
void expect_verdict_hits(const char* name, const CommonParams& p) {
  const RecordVerdicts::Stats before = RecordVerdicts::stats();
  protocol(name).run(p);
  const RecordVerdicts::Stats after = RecordVerdicts::stats();
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  ASSERT_GT(misses, 0u);
  EXPECT_GE(static_cast<double>(hits),
            0.8 * static_cast<double>(hits + misses))
      << hits << " hits, " << misses << " misses";
}

CommonParams linear_mixed() {
  CommonParams p;
  p.n = 32;
  p.slots = 16;
  p.seed = 1;
  p.adversary = "mixed";
  return p;
}

TEST(MacMemo, LinearMixedRunHits) {
  CommonParams p = linear_mixed();
  p.net = "bounded:0";  // the timing path: every recipient checks itself
  expect_memo_hits(run_delta("linear", p));
}

TEST(RecordVerdicts, LinearMixedLockstepRunHits) {
  // Proposals, certificates and accusations are multicasts and their
  // forwards are groups, so most checks repeat one a recipient of the
  // same record already made.
  expect_verdict_hits("linear", linear_mixed());
}

CommonParams quadratic_silent() {
  CommonParams p;
  p.n = 16;
  p.slots = 16;
  p.seed = 1;
  p.adversary = "silent";
  return p;
}

TEST(MacMemo, QuadraticSilentRunHits) {
  CommonParams p = quadratic_silent();
  p.net = "bounded:0";  // the timing path: every recipient checks itself
  expect_memo_hits(run_delta("quadratic", p));
}

TEST(RecordVerdicts, QuadraticSilentLockstepRunHits) {
  // Each accusation and vote multicast reaches all 16 nodes, so all but
  // the first check of each record must be served from the verdicts.
  expect_verdict_hits("quadratic", quadratic_silent());
}

}  // namespace
}  // namespace ambb
