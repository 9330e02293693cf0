// ambb_fuzz — randomized fault-schedule campaigns over the protocol
// registry, with the Definition 2 properties as oracles.
//
//   ambb_fuzz [--schedules K] [--protocol NAME] [--n N] [--slots L]
//             [--seed S] [--jobs N] [--net POLICY] [--out NAME]
//             [--filter SUBSTR] [--list]
//
//   --schedules K    schedules per protocol (default 30)
//   --protocol NAME  fuzz only this registry protocol (default: all)
//   --n N            node count (default 12)
//   --slots L        slots per run (default 2)
//   --seed S         base seed; schedule i of a protocol runs with seed
//                    S + i (default 1)
//   --jobs N         worker threads; 0 = one per hardware thread. The
//                    engine's determinism contract makes the table and
//                    the json byte-identical for any value.
//   --net POLICY     delay policy (DESIGN.md §16): lockstep (default) |
//                    bounded:<delta> | async[:<cap>]. Non-lockstep
//                    campaigns add delay/reorder timing faults to every
//                    generated schedule. A policy that can delay a
//                    delivery relaxes the synchrony-conditional oracles
//                    (engine::to_engine_job has the rule); the
//                    degradations they let through are counted in a
//                    "timing summary:" line and do not fail the campaign.
//   --out NAME       write BENCH_<NAME>.json (default: fuzz)
//   --filter SUBSTR  keep only jobs whose label contains SUBSTR
//   --list           print the job labels and exit
//
// Every job runs the protocol under a "fuzz" adversary: a seeded random
// budget-respecting fault schedule (src/adversary/fuzz.hpp) of
// corruptions, after-the-fact erasures and actor-level faults. Because
// generated schedules stay inside the threat model (at most f distinct
// corruptions, erasures only of corrupt-by-then senders), any
// consistency/validity/termination violation is a finding about the
// protocol or the simulator — never noise. Protocols whose registry
// entry sets sched_may_stall (no fallback path) skip only the
// termination oracle.
//
// The corruption budget f cycles over 1..max_f(n) across a protocol's
// schedules, so one campaign exercises light and maximal fault loads.
// The generated cells run through the same tail as ambb_sweep
// (campaign.hpp): run table, !! lines, timing summary, BENCH json and
// exit code.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "cli.hpp"
#include "engine/sweep.hpp"
#include "runner/registry.hpp"

namespace {

struct Cli {
  std::uint32_t schedules = 30;
  std::string protocol;  // empty = all
  std::uint32_t n = 12;
  ambb::Slot slots = 2;
  std::uint64_t seed = 1;
  ambb::cli::Campaign run;  ///< the flags; main adds the jobs
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ambb_fuzz [--schedules K] [--protocol NAME] [--n N] "
               "[--slots L] [--seed S] [--jobs N] [--net POLICY] "
               "[--out NAME] [--filter SUBSTR] [--list]\n");
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  cli.run.tool = "ambb_fuzz";
  cli.run.flags.out = "fuzz";
  ambb::cli::Parser p("ambb_fuzz", argc, argv);
  while (p.next()) {
    bool ok = true;
    if (ambb::cli::handle_common_flag(p, &cli.run.flags, &ok)) {
      if (!ok) return false;
    } else if (p.arg() == "--schedules") {
      if (!p.to_u32(&cli.schedules)) return false;
    } else if (p.arg() == "--protocol") {
      if (!p.to_str(&cli.protocol)) return false;
    } else if (p.arg() == "--n") {
      if (!p.to_u32(&cli.n)) return false;
    } else if (p.arg() == "--slots") {
      if (!p.to_u32(&cli.slots)) return false;
    } else if (p.arg() == "--seed") {
      if (!p.to_u64(&cli.seed)) return false;
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
  if (cli.schedules == 0 || cli.n < 4 || cli.slots == 0) {
    std::fprintf(stderr,
                 "ambb_fuzz: need --schedules >= 1, --n >= 4, --slots >= 1\n");
    return false;
  }
  return true;
}

std::vector<ambb::engine::SweepJob> expand(const Cli& cli) {
  using namespace ambb;
  const bool lockstep = cli.run.flags.net == "lockstep";
  std::vector<engine::SweepJob> out;
  for (const auto& info : protocols()) {
    if (!cli.protocol.empty() && info.name != cli.protocol) continue;
    const std::uint32_t fmax =
        std::max<std::uint32_t>(1, std::min(info.max_f(cli.n), cli.n - 1));
    for (std::uint32_t i = 0; i < cli.schedules; ++i) {
      engine::SweepJob sj;
      sj.protocol = info.name;
      sj.params.n = cli.n;
      sj.params.f = 1 + i % fmax;  // cycle light..maximal budgets
      sj.params.slots = cli.slots;
      sj.params.seed = cli.seed + i;
      sj.params.adversary = "fuzz";
      sj.params.net = cli.run.flags.net;
      // Lockstep labels keep their historical shape (golden compat);
      // non-lockstep runs carry the policy so one json can mix nets.
      sj.label = "fuzz/" + info.name +
                 (lockstep ? std::string() : "/" + cli.run.flags.net) + "/f" +
                 std::to_string(sj.params.f) + "/s" +
                 std::to_string(sj.params.seed);
      out.push_back(std::move(sj));
    }
  }
  return engine::filter_jobs(std::move(out), cli.run.flags.filter);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ambb;

  Cli cli;
  if (!parse_cli(argc, argv, cli)) {
    usage(stderr);
    return 2;
  }

  if (!cli.protocol.empty() &&
      ambb::cli::resolve_protocol("ambb_fuzz", cli.protocol) == nullptr) {
    return 2;
  }

  cli.run.jobs = expand(cli);
  return ambb::cli::run_campaign(cli.run);
}
