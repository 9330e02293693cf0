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
// non-zero iff any job failed. Running and reporting is the tail shared
// with ambb_fuzz (campaign.hpp); cells under a delay policy that relaxes
// oracles get its "timing summary:" line.
// A spec file's `report NAME` line then prints that paper figure
// (tools/figures.cpp) unless --filter is set; a failed claim is a violation.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "cli.hpp"
#include "common/check.hpp"
#include "engine/sweep.hpp"
#include "figures.hpp"

namespace {

struct Cli {
  std::string spec_path;
  ambb::cli::Campaign run;  ///< the flags; main adds the jobs
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ambb_sweep --spec FILE [--jobs N] [--filter SUBSTR] "
               "[--out NAME] [--net POLICY] [--trace-dir DIR] [--list]\n");
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  cli.run.tool = "ambb_sweep";
  cli.run.flags.out = "sweep";
  ambb::cli::Parser p("ambb_sweep", argc, argv);
  while (p.next()) {
    bool ok = true;
    if (ambb::cli::handle_common_flag(p, &cli.run.flags, &ok)) {
      if (!ok) return false;
    } else if (p.arg() == "--spec") {
      if (!p.to_str(&cli.spec_path)) return false;
    } else if (p.arg() == "--trace-dir") {
      if (!p.to_str(&cli.run.trace_dir)) return false;
    } else if (p.arg() == "--list") {
      cli.run.list = true;
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

  std::string report;
  try {
    std::vector<engine::SweepSpec> specs =
        engine::parse_spec(text.str(), figures::names(), &report);
    // --net is the default delay policy: blocks with their own 'net' key
    // keep it, everything else inherits the flag.
    if (cli.run.flags.net != "lockstep") {
      for (auto& s : specs) {
        if (s.nets.empty()) s.nets = {cli.run.flags.net};
      }
    }
    cli.run.jobs =
        engine::filter_jobs(engine::expand_all(specs), cli.run.flags.filter);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "ambb_sweep: invalid spec: %s\n", e.what());
    return 2;
  }
  if (!report.empty() && cli.run.flags.filter.empty()) {
    cli.run.report = [&report](const std::vector<engine::SweepJob>& jobs,
                               const std::vector<engine::JobOutcome>& outcomes)
        -> std::size_t {
      try {
        return figures::report(report, jobs, outcomes);
      } catch (const CheckError& e) {  // the spec lacks a job the figure reads
        std::printf("!! report '%s' failed: %s\n", report.c_str(), e.what());
        return 1;
      }
    };
  }
  return ambb::cli::run_campaign(cli.run);
}
