#include "engine/engine.hpp"

#include <chrono>
#include <exception>

namespace ambb::engine {

unsigned resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

std::vector<JobOutcome> Engine::run(const std::vector<Job>& jobs) const {
  return parallel_map(jobs.size(), jobs_, [&](std::size_t i) {
    const Job& job = jobs[i];
    JobOutcome out;
    out.label = job.label;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      out.result = job.run();
      out.completed = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown exception";
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (out.completed) {
      if (!job.allow_split) out.violations = check_consistency(out.result);
      if (!job.allow_invalid) {
        auto v = check_validity(out.result);
        out.violations.insert(out.violations.end(), v.begin(), v.end());
      }
      if (!job.allow_stall) {
        auto t = check_termination(out.result);
        out.violations.insert(out.violations.end(), t.begin(), t.end());
      }
    }
    return out;
  });
}

}  // namespace ambb::engine
