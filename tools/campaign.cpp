#include "campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "engine/report.hpp"
#include "runner/result.hpp"
#include "runner/table.hpp"

namespace ambb::cli {

namespace {

/// Under a delay policy the relaxed oracles (validity everywhere,
/// consistency on round-deadline rows) are what a timing campaign exists
/// to measure: count what they let through per run and report it
/// without failing. Prints nothing when no cell relaxed an oracle.
void print_timing_summary(const std::vector<engine::SweepJob>& cells,
                          const std::vector<engine::Job>& jobs,
                          const std::vector<engine::JobOutcome>& outcomes) {
  std::size_t relaxed = 0;
  std::size_t degraded = 0;
  std::size_t split = 0;
  std::uint64_t deferred = 0;
  std::vector<std::string> nets;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!jobs[i].allow_invalid) continue;
    ++relaxed;
    const std::string& net = cells[i].params.net;
    if (std::find(nets.begin(), nets.end(), net) == nets.end()) {
      nets.push_back(net);
    }
    const auto& out = outcomes[i];
    if (!out.completed) continue;
    deferred += out.result.stats_summary().delayed;
    if (jobs[i].allow_split) {
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
  if (relaxed == 0) return;
  std::string net_list;
  for (const auto& net : nets) net_list += (net_list.empty() ? "" : ", ") + net;
  std::printf("timing summary: %zu/%zu runs with degraded validity, "
              "%zu with consistency splits (round-deadline rows), "
              "%llu deliveries deferred (net %s)\n",
              degraded, relaxed, split,
              static_cast<unsigned long long>(deferred), net_list.c_str());
}

}  // namespace

int run_campaign(const Campaign& c) {
  if (c.jobs.empty()) {
    std::fprintf(stderr, "%s: nothing to run (filter '%s')\n", c.tool,
                 c.flags.filter.c_str());
    return 2;
  }
  if (c.list) {
    for (const auto& sj : c.jobs) std::printf("%s\n", sj.label.c_str());
    std::printf("%zu jobs\n", c.jobs.size());
    return 0;
  }
  if (!c.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(c.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s: cannot create trace dir '%s': %s\n", c.tool,
                   c.trace_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  const engine::Engine eng(c.flags.jobs);
  const std::vector<engine::Job> jobs =
      engine::to_engine_jobs(c.jobs, c.trace_dir);
  std::printf("%s: %zu jobs on %u worker thread%s\n", c.tool, jobs.size(),
              eng.jobs(), eng.jobs() == 1 ? "" : "s");

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<engine::JobOutcome> outcomes = eng.run(jobs);
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
  print_timing_summary(c.jobs, jobs, outcomes);

  if (c.report && failed_jobs == 0) {
    violations += c.report(c.jobs, outcomes);
  }

  const std::string path = "BENCH_" + c.flags.out + ".json";
  if (!engine::write_bench_json(path, c.flags.out, records, violations,
                                eng.jobs(), wall_ms_total)) {
    std::fprintf(stderr, "%s: could not write %s\n", c.tool, path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu runs, %u threads, %.1f ms total)\n",
              path.c_str(), records.size(), eng.jobs(), wall_ms_total);
  if (!c.trace_dir.empty()) {
    std::printf("wrote %zu event traces to %s/\n", records.size(),
                c.trace_dir.c_str());
  }

  if (violations != 0 || failed_jobs != 0) {
    std::printf("!! %zu violations, %zu failed jobs — failing the campaign\n",
                violations, failed_jobs);
    return 1;
  }
  std::printf("no property violations across %zu runs\n", records.size());
  return 0;
}

}  // namespace ambb::cli
