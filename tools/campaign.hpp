// The one run/report tail of ambb_sweep and ambb_fuzz (DESIGN.md §10).
// Each tool only builds its cells as engine::SweepJobs: ambb_sweep
// expands a spec file, ambb_fuzz generates fault schedules. From there
// run_campaign() does the rest for both: --list, the engine run (oracle
// flags from engine::to_engine_job), one run table, the !! lines, a
// "timing summary:" line when a delay policy relaxed oracles, the
// optional figure hook, BENCH_<out>.json, and the exit code: 0 clean,
// 1 any violation, failed job or failed figure claim, 2 nothing to run
// or an I/O failure.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "engine/engine.hpp"
#include "engine/sweep.hpp"

namespace ambb::cli {

/// Figure analysis over a campaign's cells and their outcomes (parallel
/// vectors, submission order, every job completed). Returns how many of
/// the figure's claims failed.
using ReportHook =
    std::function<std::size_t(const std::vector<engine::SweepJob>&,
                              const std::vector<engine::JobOutcome>&)>;

struct Campaign {
  const char* tool = "";  ///< message prefix, e.g. "ambb_sweep"
  std::vector<engine::SweepJob> jobs;  ///< already filtered by the tool
  CommonFlags flags;      ///< jobs (threads), out and filter are read
  bool list = false;      ///< print the labels instead of running
  std::string trace_dir;  ///< one JSONL trace per job when non-empty
  ReportHook report;      ///< runs only when every job completed
};

/// Run the campaign and print its report; returns the exit code.
int run_campaign(const Campaign& c);

}  // namespace ambb::cli
