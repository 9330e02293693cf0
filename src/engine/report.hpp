// Machine-readable run reporting shared by ambb_sweep and ambb_fuzz: one
// RunRecord per checked execution, serialized to BENCH_<name>.json.
//
// Schema history:
//   v1  (PR 1)  — {bench, violations, runs[]}; serial execution only.
//   v2  (engine) — adds top-level schema_version, threads (worker-pool
//       size used to produce the file), wall_ms_total (harness
//       wall-clock), and a per-run "error" field for jobs captured by
//       the engine's failure isolation. Parallel and serial producers
//       are thereby distinguishable in the perf trajectory; all v1
//       fields are unchanged and remain byte-identical for --jobs 1 vs
//       --jobs N (wall-clock fields excepted — they are measurements).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "sim/stats.hpp"

namespace ambb::engine {

inline constexpr int kBenchSchemaVersion = 2;

/// One checked execution, as written to BENCH_<name>.json.
struct RunRecord {
  std::string label;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  Slot slots = 0;
  Round rounds = 0;
  std::uint64_t honest_bits = 0;
  std::uint64_t adversary_bits = 0;
  double amortized = 0.0;
  double wall_ms = 0.0;
  RoundStatsSummary stats;
  std::size_t violations = 0;
  std::string error;  ///< non-empty iff the job threw instead of finishing
};

/// RunRecord for an engine outcome (violations counted, result folded in).
RunRecord to_record(const JobOutcome& outcome);

/// Serialize records to the v2 BENCH json. `threads` is the worker-pool
/// size that produced the records; `wall_ms_total` the harness wall-clock.
std::string render_bench_json(const std::string& bench_name,
                              const std::vector<RunRecord>& records,
                              std::size_t total_violations, unsigned threads,
                              double wall_ms_total);

/// Write render_bench_json() to `path`; returns false on I/O failure.
bool write_bench_json(const std::string& path, const std::string& bench_name,
                      const std::vector<RunRecord>& records,
                      std::size_t total_violations, unsigned threads,
                      double wall_ms_total);

}  // namespace ambb::engine
