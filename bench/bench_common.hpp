// Shared helpers for the benchmark harnesses. Each bench binary
// regenerates one artifact of the paper (Table 1 or a quantitative claim
// from Sections 4.2/5.1/5.4/Appendix A — DESIGN.md's experiment index),
// printing the measured rows next to the paper's asymptotic prediction.
//
// Job execution is delegated to the experiment engine (src/engine/):
// each bench expands its grid into independent engine jobs, runs them on
// a fixed worker pool (AMBB_BENCH_JOBS=N; default one worker per
// hardware thread) and consumes the results in submission order. The
// engine's determinism contract makes the printed tables and the
// BENCH_<name>.json measurement fields byte-identical for any job count
// (wall-clock metadata excepted).
//
// Every measured execution is property-checked by the engine, so printed
// numbers always come from correct executions; violations (and jobs
// captured by the engine's failure isolation) make the binary exit
// non-zero. Setting AMBB_BENCH_INJECT_VIOLATION=1 injects a synthetic
// violation into every recorded run, to prove the non-zero-exit
// plumbing works.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "runner/fit.hpp"
#include "runner/registry.hpp"
#include "runner/result.hpp"
#include "runner/table.hpp"

namespace ambb::bench {

using engine::Job;
using engine::RunRecord;

inline void print_header(const char* experiment, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

struct BenchState {
  std::size_t violations = 0;
  std::vector<RunRecord> runs;
  unsigned threads = 1;  ///< worker-pool size of the last run_jobs call
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

inline BenchState& state() {
  static BenchState s;
  return s;
}

/// Worker-pool size for this bench process: AMBB_BENCH_JOBS if set (1 =
/// serial), otherwise 0 = one worker per hardware thread.
inline unsigned bench_jobs() {
  if (const char* e = std::getenv("AMBB_BENCH_JOBS")) {
    const long v = std::strtol(e, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 0;
}

/// Record one engine outcome into the bench state (call in submission
/// order — recording is what pins the printed/serialized order).
inline const RunResult& record_outcome(const engine::JobOutcome& out) {
  std::size_t extra = 0;
  if (std::getenv("AMBB_BENCH_INJECT_VIOLATION") != nullptr) {
    extra = 1;  // synthetic violation: prove the non-zero-exit plumbing
  }
  if (!out.completed) {
    std::printf("!! %s did not complete: %s\n", out.label.c_str(),
                out.error.c_str());
  } else if (!out.violations.empty()) {
    std::printf("!! %s produced %zu property violations (first: %s)\n",
                out.label.c_str(), out.violations.size(),
                out.violations[0].c_str());
  }
  RunRecord rec = engine::to_record(out);
  rec.violations += extra;
  state().violations += rec.violations;
  state().runs.push_back(std::move(rec));
  return out.result;
}

/// Execute a batch of jobs through the engine and return their results
/// in submission order. Failed jobs yield a default-constructed
/// RunResult and are reported as failure rows (non-zero exit).
inline std::vector<RunResult> run_jobs(const std::vector<Job>& jobs) {
  engine::Engine eng(bench_jobs());
  state().threads = eng.jobs();
  std::vector<engine::JobOutcome> outcomes = eng.run(jobs);
  std::vector<RunResult> results;
  results.reserve(outcomes.size());
  for (const auto& out : outcomes) results.push_back(record_outcome(out));
  return results;
}

/// Engine job for a registry protocol at the given params, with an
/// explicit label and stall policy. Benches that predate the registry's
/// auto-label format keep their historical labels (they are pinned by the
/// BENCH_<name>.json goldens), and some deliberately tolerate stalls the
/// registry would not predict (the quantity under test IS the stall).
inline Job registry_job(const std::string& proto, const CommonParams& p,
                        std::string label, bool allow_stall) {
  const ProtocolInfo& info = protocol(proto);
  return Job{std::move(label), [&info, p] { return info.run(p); },
             allow_stall};
}

/// Same, but the stall policy comes from the registry: liveness failures
/// the registry knows about skip the termination check.
inline Job registry_job(const std::string& proto, const CommonParams& p,
                        std::string label) {
  return registry_job(proto, p, std::move(label),
                      may_stall(protocol(proto), p.adversary));
}

/// Same, with the auto-format label "<proto>/<adversary>/n<n>".
inline Job registry_job(const std::string& proto, const CommonParams& p) {
  return registry_job(proto, p,
                      proto + "/" + p.adversary + "/n" + std::to_string(p.n));
}

/// Print the per-run round-stats summary table, write BENCH_<name>.json
/// (schema v2 — see engine/report.hpp), and return the process exit code
/// (non-zero iff any checked run violated a property or failed to
/// complete). Every bench main() ends with `return finish_bench(...)`.
inline int finish_bench(const char* bench_name) {
  BenchState& st = state();

  if (!st.runs.empty()) {
    std::printf("\nPer-run simulator statistics (%zu checked runs):\n",
                st.runs.size());
    TextTable t({"run", "wall ms", "rounds", "records", "deliveries",
                 "erase", "corrupt", "acct ms", "deliver ms"});
    for (const RunRecord& r : st.runs) {
      t.add_row({r.label, TextTable::num(r.wall_ms, 1),
                 std::to_string(r.rounds), std::to_string(r.stats.records),
                 std::to_string(r.stats.deliveries),
                 std::to_string(r.stats.erasures),
                 std::to_string(r.stats.corruptions),
                 TextTable::num(r.stats.ns_accounting / 1e6, 2),
                 TextTable::num(r.stats.ns_delivery / 1e6, 2)});
    }
    std::printf("%s", t.render().c_str());
  }

  const double wall_ms_total =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - st.start)
          .count();
  const std::string path = std::string("BENCH_") + bench_name + ".json";
  if (engine::write_bench_json(path, bench_name, st.runs, st.violations,
                               st.threads, wall_ms_total)) {
    std::printf("\nwrote %s (%zu runs, %u threads)\n", path.c_str(),
                st.runs.size(), st.threads);
  } else {
    std::printf("\n!! could not write %s\n", path.c_str());
  }

  if (st.violations != 0) {
    std::printf("!! %zu property violations across checked runs — "
                "failing the bench\n",
                st.violations);
    return 1;
  }
  return 0;
}

}  // namespace ambb::bench
