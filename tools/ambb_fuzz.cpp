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
//                    generated schedule and relax the two
//                    synchrony-conditional oracles: termination (delays
//                    can push commits past the horizon) and validity (a
//                    delayed honest sender is indistinguishable from a
//                    silent one — synchronous protocols then legally
//                    commit a placeholder). Consistency stays a hard
//                    failure for quorum-intersection rows (the linear
//                    family, phase-king, hotstuff); rows whose agreement
//                    argument is itself a round deadline — the
//                    Dolev-Strong relay step, TrustCast, the ext:* chunk
//                    windows — declare consistency_needs_sync in the
//                    registry and may legally split under delays. All
//                    relaxed-oracle degradations are counted and
//                    reported per run; they just do not fail the
//                    campaign.
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
//
// AMBB_BENCH_INJECT_VIOLATION=1 injects a synthetic violation into every
// run (proves the non-zero-exit plumbing).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/check.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "runner/registry.hpp"
#include "runner/table.hpp"

namespace {

struct Cli {
  std::uint32_t schedules = 30;
  std::string protocol;  // empty = all
  std::uint32_t n = 12;
  ambb::Slot slots = 2;
  std::uint64_t seed = 1;
  ambb::cli::CommonFlags common;
  bool list = false;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ambb_fuzz [--schedules K] [--protocol NAME] [--n N] "
               "[--slots L] [--seed S] [--jobs N] [--net POLICY] "
               "[--out NAME] [--filter SUBSTR] [--list]\n");
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  cli.common.out = "fuzz";
  ambb::cli::Parser p("ambb_fuzz", argc, argv);
  while (p.next()) {
    bool ok = true;
    if (ambb::cli::handle_common_flag(p, &cli.common, &ok)) {
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
      cli.list = true;
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

struct FuzzJob {
  std::string label;
  const ambb::ProtocolInfo* info;
  ambb::CommonParams params;
};

std::vector<FuzzJob> expand(const Cli& cli) {
  using namespace ambb;
  const bool lockstep = cli.common.net == "lockstep";
  std::vector<FuzzJob> out;
  for (const auto& info : protocols()) {
    if (!cli.protocol.empty() && info.name != cli.protocol) continue;
    const std::uint32_t fmax =
        std::max<std::uint32_t>(1, std::min(info.max_f(cli.n), cli.n - 1));
    for (std::uint32_t i = 0; i < cli.schedules; ++i) {
      FuzzJob fj;
      fj.info = &info;
      fj.params.n = cli.n;
      fj.params.f = 1 + i % fmax;  // cycle light..maximal budgets
      fj.params.slots = cli.slots;
      fj.params.seed = cli.seed + i;
      fj.params.adversary = "fuzz";
      fj.params.net = cli.common.net;
      // Lockstep labels keep their historical shape (golden compat);
      // non-lockstep runs carry the policy so one json can mix nets.
      fj.label = "fuzz/" + info.name +
                 (lockstep ? std::string() : "/" + cli.common.net) + "/f" +
                 std::to_string(fj.params.f) + "/s" +
                 std::to_string(fj.params.seed);
      if (!cli.common.filter.empty() &&
          fj.label.find(cli.common.filter) == std::string::npos) {
        continue;
      }
      out.push_back(std::move(fj));
    }
  }
  return out;
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

  std::vector<FuzzJob> fuzz_jobs;
  try {
    fuzz_jobs = expand(cli);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "ambb_fuzz: %s\n", e.what());
    return 2;
  }
  if (fuzz_jobs.empty()) {
    std::fprintf(stderr, "ambb_fuzz: nothing to run (filter '%s')\n",
                 cli.common.filter.c_str());
    return 2;
  }

  if (cli.list) {
    for (const auto& fj : fuzz_jobs) std::printf("%s\n", fj.label.c_str());
    std::printf("%zu jobs\n", fuzz_jobs.size());
    return 0;
  }

  const engine::Engine eng(cli.common.jobs);
  const bool lockstep = cli.common.net == "lockstep";
  std::vector<engine::Job> jobs;
  jobs.reserve(fuzz_jobs.size());
  for (const auto& fj : fuzz_jobs) {
    // Non-lockstep campaigns relax the synchrony-conditional oracles
    // (termination + validity, see the --net doc above); consistency is
    // the hard safety oracle for every row except the registry-declared
    // round-deadline protocols.
    const bool stall_ok =
        may_stall(*fj.info, fj.params.adversary) || !lockstep;
    jobs.push_back(engine::Job{
        fj.label, [info = fj.info, p = fj.params] { return info->run(p); },
        stall_ok, /*allow_invalid=*/!lockstep,
        /*allow_split=*/!lockstep && fj.info->consistency_needs_sync});
  }

  std::printf("ambb_fuzz: %zu schedules on %u worker thread%s\n", jobs.size(),
              eng.jobs(), eng.jobs() == 1 ? "" : "s");

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<engine::JobOutcome> outcomes = eng.run(jobs);
  const double wall_ms_total = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();

  const bool inject =
      std::getenv("AMBB_BENCH_INJECT_VIOLATION") != nullptr;
  std::vector<engine::RunRecord> records;
  records.reserve(outcomes.size());
  std::size_t violations = 0;
  std::size_t failed_jobs = 0;
  TextTable t({"run", "rounds", "honest bits", "adv bits", "erasures",
               "corrupt", "status"});
  for (const auto& out : outcomes) {
    engine::RunRecord rec = engine::to_record(out);
    if (inject) rec.violations += 1;  // prove the exit plumbing
    std::string status = "ok";
    if (!out.completed) {
      status = "FAILED";
      ++failed_jobs;
    } else if (rec.violations != 0) {
      status = "VIOLATION";
    }
    t.add_row({rec.label, std::to_string(rec.rounds),
               TextTable::bits_human(static_cast<double>(rec.honest_bits)),
               TextTable::bits_human(static_cast<double>(rec.adversary_bits)),
               std::to_string(rec.stats.erasures),
               std::to_string(rec.stats.corruptions), status});
    violations += rec.violations;
    records.push_back(std::move(rec));
  }
  std::printf("%s", t.render().c_str());

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

  // Under a non-lockstep policy the relaxed-oracle degradations (validity
  // everywhere, consistency on round-deadline rows) are the findings a
  // timing campaign exists to measure — count them per run and report
  // them without failing. Outcomes arrive in submission order, so
  // outcomes[i] is fuzz_jobs[i]'s run.
  if (!lockstep) {
    std::size_t degraded = 0;
    std::size_t split = 0;
    std::uint64_t deferred = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& out = outcomes[i];
      if (!out.completed) continue;
      deferred += out.result.stats_summary().delayed;
      if (fuzz_jobs[i].info->consistency_needs_sync) {
        const auto c = check_consistency(out.result);
        if (!c.empty()) {
          ++split;
          std::printf(".. %s: consistency split under timing faults "
                      "(round-deadline row; %zu slots, first: %s)\n",
                      out.label.c_str(), c.size(), c[0].c_str());
        }
      }
      const auto v = check_validity(out.result);
      if (v.empty()) continue;
      ++degraded;
      std::printf(".. %s: validity degraded under timing faults "
                  "(%zu commits, first: %s)\n",
                  out.label.c_str(), v.size(), v[0].c_str());
    }
    std::printf("timing summary: %zu/%zu runs with degraded validity, "
                "%zu with consistency splits (round-deadline rows), "
                "%llu deliveries deferred (net %s)\n",
                degraded, outcomes.size(), split,
                static_cast<unsigned long long>(deferred),
                cli.common.net.c_str());
  }

  const std::string path = "BENCH_" + cli.common.out + ".json";
  if (engine::write_bench_json(path, cli.common.out, records, violations,
                               eng.jobs(), wall_ms_total)) {
    std::printf("wrote %s (%zu runs, %u threads, %.1f ms total)\n",
                path.c_str(), records.size(), eng.jobs(), wall_ms_total);
  } else {
    std::fprintf(stderr, "ambb_fuzz: could not write %s\n", path.c_str());
    return 2;
  }

  if (violations != 0 || failed_jobs != 0) {
    std::printf("!! %zu violations, %zu failed jobs — failing the fuzz run\n",
                violations, failed_jobs);
    return 1;
  }
  std::printf("no property violations across %zu randomized schedules\n",
              records.size());
  return 0;
}
