// ambb_sweep — run declarative experiment sweeps on the parallel engine.
//
//   ambb_sweep --spec FILE [--jobs N] [--filter SUBSTR] [--out NAME]
//              [--net POLICY] [--trace-dir DIR] [--list]
//
//   --spec FILE      sweep specification (format: src/engine/sweep.hpp)
//   --jobs N         worker threads; 0 or omitted = one per hardware
//                    thread; 1 = serial (byte-identical results either
//                    way — that is the engine's determinism contract)
//   --filter SUBSTR  keep only jobs whose label contains SUBSTR
//   --out NAME       write BENCH_<NAME>.json (default: sweep)
//   --net POLICY     delay policy for blocks without their own 'net' key
//                    (DESIGN.md §16): lockstep (default) |
//                    bounded:<delta> | async[:<cap>]
//   --trace-dir DIR  write one JSONL event trace per run into DIR
//                    (created if missing); files are named by submission
//                    order, so --jobs does not change names or contents
//   --list           print the expanded job labels and exit
//
// Per-job failure isolation: a job that throws (AMBB_CHECK) or violates
// a BB property is reported as a structured failure row — and an "error"
// field in the json — instead of killing the sweep; the exit code is
// non-zero iff any job failed.
// A spec file's `report NAME` line then prints that paper figure
// (tools/figures.cpp) unless --filter is set; a failed claim is a violation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/check.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "figures.hpp"
#include "runner/table.hpp"

namespace {

struct Cli {
  std::string spec_path;
  std::string trace_dir;
  ambb::cli::CommonFlags common;
  bool list = false;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ambb_sweep --spec FILE [--jobs N] [--filter SUBSTR] "
               "[--out NAME] [--net POLICY] [--trace-dir DIR] [--list]\n");
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  cli.common.out = "sweep";
  ambb::cli::Parser p("ambb_sweep", argc, argv);
  while (p.next()) {
    bool ok = true;
    if (ambb::cli::handle_common_flag(p, &cli.common, &ok)) {
      if (!ok) return false;
    } else if (p.arg() == "--spec") {
      if (!p.to_str(&cli.spec_path)) return false;
    } else if (p.arg() == "--trace-dir") {
      if (!p.to_str(&cli.trace_dir)) return false;
    } else if (p.arg() == "--list") {
      cli.list = true;
    } else if (p.arg() == "--help" || p.arg() == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      p.unknown();
      return false;
    }
  }
  if (cli.spec_path.empty()) {
    std::fprintf(stderr, "ambb_sweep: --spec is required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ambb;

  Cli cli;
  if (!parse_cli(argc, argv, cli)) {
    usage(stderr);
    return 2;
  }

  std::ifstream in(cli.spec_path);
  if (!in) {
    std::fprintf(stderr, "ambb_sweep: cannot read spec file '%s'\n",
                 cli.spec_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  std::vector<engine::SweepJob> sweep_jobs;
  std::string report;
  try {
    std::vector<engine::SweepSpec> specs =
        engine::parse_spec(text.str(), figures::names(), &report);
    // --net is the default delay policy: blocks with their own 'net' key
    // keep it, everything else inherits the flag.
    if (cli.common.net != "lockstep") {
      for (auto& s : specs) {
        if (s.nets.empty()) s.nets = {cli.common.net};
      }
    }
    sweep_jobs =
        engine::filter_jobs(engine::expand_all(specs), cli.common.filter);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "ambb_sweep: invalid spec: %s\n", e.what());
    return 2;
  }

  if (cli.list) {
    for (const auto& sj : sweep_jobs) std::printf("%s\n", sj.label.c_str());
    std::printf("%zu jobs\n", sweep_jobs.size());
    return 0;
  }
  if (sweep_jobs.empty()) {
    std::fprintf(stderr, "ambb_sweep: nothing to run (filter '%s')\n",
                 cli.common.filter.c_str());
    return 2;
  }

  if (!cli.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "ambb_sweep: cannot create trace dir '%s': %s\n",
                   cli.trace_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  const engine::Engine eng(cli.common.jobs);
  std::printf("ambb_sweep: %zu jobs on %u worker thread%s\n",
              sweep_jobs.size(), eng.jobs(), eng.jobs() == 1 ? "" : "s");

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<engine::JobOutcome> outcomes =
      eng.run(engine::to_engine_jobs(sweep_jobs, cli.trace_dir));
  const double wall_ms_total = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();

  std::vector<engine::RunRecord> records;
  records.reserve(outcomes.size());
  std::size_t violations = 0;
  std::size_t failed_jobs = 0;
  TextTable t({"run", "rounds", "records", "deliveries", "erase", "corrupt",
               "honest bits", "adv bits", "amortized", "wall ms", "status"});
  for (const auto& out : outcomes) {
    engine::RunRecord rec = engine::to_record(out);
    std::string status = "ok";
    if (!out.completed) {
      status = "FAILED";
      ++failed_jobs;
    } else if (!out.violations.empty()) {
      status = "VIOLATION";
    }
    t.add_row({rec.label, std::to_string(rec.rounds),
               std::to_string(rec.stats.records),
               std::to_string(rec.stats.deliveries),
               std::to_string(rec.stats.erasures),
               std::to_string(rec.stats.corruptions),
               TextTable::bits_human(static_cast<double>(rec.honest_bits)),
               TextTable::bits_human(static_cast<double>(rec.adversary_bits)),
               TextTable::bits_human(rec.amortized),
               TextTable::num(rec.wall_ms, 1), status});
    violations += rec.violations;
    records.push_back(std::move(rec));
  }
  std::printf("%s", t.render().c_str());

  // Structured failure rows: what went wrong, per job, after the table.
  for (const auto& out : outcomes) {
    if (!out.completed) {
      std::printf("!! %s did not complete: %s\n", out.label.c_str(),
                  out.error.c_str());
    } else if (!out.violations.empty()) {
      std::printf("!! %s: %zu property violations (first: %s)\n",
                  out.label.c_str(), out.violations.size(),
                  out.violations[0].c_str());
    }
  }

  if (!report.empty() && cli.common.filter.empty() && failed_jobs == 0) {
    try {
      violations += figures::report(report, sweep_jobs, outcomes);
    } catch (const CheckError& e) {  // the spec lacks a job the figure reads
      std::printf("!! report '%s' failed: %s\n", report.c_str(), e.what());
      ++violations;
    }
  }

  const std::string path = "BENCH_" + cli.common.out + ".json";
  if (engine::write_bench_json(path, cli.common.out, records, violations,
                               eng.jobs(), wall_ms_total)) {
    std::printf("wrote %s (%zu runs, %u threads, %.1f ms total)\n",
                path.c_str(), records.size(), eng.jobs(), wall_ms_total);
    if (!cli.trace_dir.empty()) {
      std::printf("wrote %zu event traces to %s/\n", sweep_jobs.size(),
                  cli.trace_dir.c_str());
    }
  } else {
    std::fprintf(stderr, "ambb_sweep: could not write %s\n", path.c_str());
    return 2;
  }

  if (violations != 0 || failed_jobs != 0) {
    std::printf("!! %zu violations, %zu failed jobs — failing the sweep\n",
                violations, failed_jobs);
    return 1;
  }
  return 0;
}
