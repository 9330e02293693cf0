// Deterministic parallel experiment engine.
//
// ambb_sweep and the parameter-sweep tests expand (protocol x n x f x L x
// adversary x seed) grids whose cells are INDEPENDENT executions: every
// driver builds its own Simulation, CostLedger, KeyRegistry and
// seed-derived RNG, so nothing is shared between cells (see the
// thread-safety note on TrafficView in sim/net.hpp for what must NOT be
// shared). The engine exploits exactly that independence and nothing
// more: a fixed pool of std::thread workers drains a pre-expanded job
// vector by atomic index — no work stealing, no inter-job communication
// — and every result lands in the slot of its submission index.
//
// Determinism contract: the aggregated output is a pure function of the
// job vector. Execution order across workers is arbitrary, but each job
// is a deterministic closed computation and results are reported in
// submission order, so running with --jobs 1 and --jobs N produces
// byte-identical aggregates (bit totals, per-slot costs, commit logs).
// Wall-clock fields are measurement metadata and are exempt.
//
// Failure isolation: a job that throws (AMBB_CHECK/CheckError or any
// std::exception) or whose BB property check fails is captured as a
// structured failure in its JobOutcome; the remaining jobs run to
// completion. Callers decide whether failures are fatal (ambb_sweep and
// ambb_fuzz exit non-zero; tests assert).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runner/result.hpp"

namespace ambb::engine {

/// Worker-pool size for a requested --jobs value: 0 means "one per
/// hardware thread" (at least 1 if the runtime cannot tell).
unsigned resolve_jobs(unsigned requested);

/// Run fn(i) for i in [0, count) on `jobs` workers and return the results
/// in index order. fn must be safe to call concurrently for DISTINCT
/// indices; the engine never calls the same index twice. Exceptions are
/// NOT isolated here (this is the raw primitive): the first throwing
/// index, in index order, is rethrown after all workers drain.
template <class Fn>
auto parallel_map(std::size_t count, unsigned jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> results(count);
  if (count == 0) return results;
  std::vector<std::exception_ptr> errors(count);

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(resolve_jobs(jobs), count));
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  if (workers <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(drain);
    for (auto& t : pool) t.join();
  }

  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

/// One independent experiment: a self-contained driver closure. The
/// closure must own (or construct) everything it touches — the engine
/// guarantees it is invoked exactly once, possibly on another thread.
struct Job {
  std::string label;
  std::function<RunResult()> run;
  /// Skip the termination check (registry-known liveness failures under
  /// specific adversaries; stalling is the measured claim there).
  bool allow_stall = false;
  /// Skip the validity check. Set by campaign cells whose delay policy
  /// can delay a delivery (engine::to_engine_job): a synchronous
  /// protocol cannot distinguish an honest sender whose dissemination
  /// was delayed from a silent one, so validity — like termination — is
  /// conditional on the synchrony assumption.
  bool allow_invalid = false;
  /// Skip the consistency check. Set by such delaying cells ONLY for
  /// registry rows that declare consistency_needs_sync: a protocol
  /// whose agreement argument is itself a round deadline (the
  /// Dolev-Strong relay step, TrustCast delivery, chunk-dispersal
  /// windows) may legally split under delays — one honest node commits v
  /// while another times out to ⊥. Quorum-intersection rows never set
  /// this; for them consistency is the hard oracle under every network
  /// model.
  bool allow_split = false;
};

/// What became of one job. Exactly one of {completed, error} is
/// meaningful: a job that threw has completed == false, error non-empty
/// and a default-constructed result.
struct JobOutcome {
  std::string label;
  bool completed = false;
  std::string error;
  RunResult result;
  double wall_ms = 0.0;
  /// BB property violations (consistency + validity + termination unless
  /// allow_stall) found in a completed result.
  std::vector<std::string> violations;

};

/// Fixed-pool executor over Jobs, adding per-job timing, property checks
/// and failure isolation on top of parallel_map.
class Engine {
 public:
  /// `jobs` as in resolve_jobs(); the pool is created per run() call, so
  /// an Engine is cheap to construct and stateless between runs.
  explicit Engine(unsigned jobs = 0) : jobs_(resolve_jobs(jobs)) {}

  unsigned jobs() const { return jobs_; }

  /// Execute all jobs; outcomes are in submission order regardless of
  /// completion order.
  std::vector<JobOutcome> run(const std::vector<Job>& jobs) const;

 private:
  unsigned jobs_;
};

}  // namespace ambb::engine
