// Experiment F2 — scaling exponents behind Table 1: the log-log slope of
// steady-state amortized cost vs n should approach the polynomial degree
// of each protocol's amortized bound:
//   Algorithm 4        ~ n^1      (with a constant-degree expander)
//   Algorithm 5.2      ~ n^2
//   MR-style baseline  ~ n^2
//   phase-king         ~ n^2..n^3 (textbook variant, see DESIGN.md)
//   Dolev-Strong       ~ n^3      (worst case, plain signatures)
#include <cstdint>
#include <initializer_list>

#include "bench_common.hpp"

namespace ambb::bench {
namespace {

struct Series {
  std::string name;
  double expected_low, expected_high;
  std::vector<double> ns, costs;
};

void run_scaling() {
  print_header(
      "F2 / Table 1 scaling exponents: log-log slope of steady-state "
      "amortized bits vs n",
      "slopes ~1 (Alg.4), ~2 (Alg.5.2, MR baseline), ~3 (Dolev-Strong "
      "worst case)");

  // The whole grid is expanded up front and executed as one engine
  // batch; each series then slices its results out in submission order
  // (the engine pins that order, so the numbers below are independent
  // of AMBB_BENCH_JOBS).
  std::vector<Job> jobs;

  // The n=128/256 rows are new with the zero-copy hot path (DESIGN.md
  // §14); n=512 is a ~minute-scale run.
  const std::vector<std::uint32_t> alg4_ns = {24u,  32u,  48u, 64u,
                                               128u, 256u, 512u};
  Series alg4{"Alg.4 (mixed adv, eps=0.2)", 0.7, 1.6, {}, {}};
  for (std::uint32_t n : alg4_ns) {
    CommonParams p;
    p.n = n;
    p.f = static_cast<std::uint32_t>(0.3 * n);
    p.slots = 3 * n;
    p.seed = 7;
    p.eps = 0.2;  // constant expander degree across this sweep
    p.adversary = "mixed";
    jobs.push_back(
        registry_job("linear", p, "alg4/mixed/n" + std::to_string(n)));
    alg4.ns.push_back(n);
  }

  const std::vector<std::uint32_t> mr_ns = {24u, 32u, 48u, 64u};
  Series mr{"MR-style baseline (mixed adv)", 1.6, 2.5, {}, {}};
  for (std::uint32_t n : mr_ns) {
    CommonParams p;
    p.n = n;
    p.f = static_cast<std::uint32_t>(0.3 * n);
    p.slots = 8;
    p.seed = 7;
    p.eps = 0.2;
    p.adversary = "mixed";
    jobs.push_back(registry_job("mr-baseline", p,
                                "mr-baseline/mixed/n" + std::to_string(n)));
    mr.ns.push_back(n);
  }

  const std::vector<std::uint32_t> quad_ns = {12u, 16u, 24u, 32u};
  Series s_quad{"Alg.5.2 (silent adv, f=n/2)", 1.5, 2.6, {}, {}};
  for (std::uint32_t n : quad_ns) {
    CommonParams p;
    p.n = n;
    p.f = n / 2;
    p.slots = 3 * n;
    p.seed = 7;
    p.adversary = "silent";
    jobs.push_back(
        registry_job("quadratic", p, "alg5.2/silent/n" + std::to_string(n)));
    s_quad.ns.push_back(n);
  }

  const std::vector<std::uint32_t> dsw_ns = {12u, 16u, 24u, 32u};
  Series dsw{"Dolev-Strong plain (stagger, f=n/2)", 2.3, 3.4, {}, {}};
  for (std::uint32_t n : dsw_ns) {
    CommonParams p;
    p.n = n;
    p.f = n / 2;
    p.slots = 4;
    p.seed = 7;
    p.adversary = "stagger";
    jobs.push_back(registry_job(
        "dolev-strong", p, "dolev-strong/stagger/n" + std::to_string(n)));
    dsw.ns.push_back(n);
  }

  const std::vector<std::uint32_t> pk_ns = {10u, 13u, 19u, 25u};
  Series s_pk{"phase-king (confuse, f<n/3)", 1.6, 3.2, {}, {}};
  for (std::uint32_t n : pk_ns) {
    CommonParams p;
    p.n = n;
    p.f = (n - 1) / 3;
    p.slots = 4;
    p.seed = 7;
    p.adversary = "confuse";
    jobs.push_back(registry_job(
        "phase-king", p, "phase-king/confuse/n" + std::to_string(n)));
    s_pk.ns.push_back(n);
  }

  const std::vector<RunResult> results = run_jobs(jobs);
  std::size_t i = 0;
  for (std::uint32_t n : alg4_ns) {
    alg4.costs.push_back(results[i++].amortized_tail(2 * n));
  }
  for (std::size_t k = 0; k < mr_ns.size(); ++k) {
    mr.costs.push_back(results[i++].amortized_tail(4));
  }
  for (std::uint32_t n : quad_ns) {
    s_quad.costs.push_back(results[i++].amortized_tail(2 * n));
  }
  for (std::size_t k = 0; k < dsw_ns.size(); ++k) {
    dsw.costs.push_back(results[i++].amortized());
  }
  for (std::size_t k = 0; k < pk_ns.size(); ++k) {
    s_pk.costs.push_back(results[i++].amortized());
  }

  TextTable t({"protocol", "n sweep", "measured slope", "paper-expected"});
  for (const Series* s : {&alg4, &mr, &s_quad, &dsw, &s_pk}) {
    const double slope = loglog_slope(s->ns, s->costs);
    char sweep[64];
    std::snprintf(sweep, sizeof sweep, "%.0f..%.0f", s->ns.front(),
                  s->ns.back());
    char expect[64];
    std::snprintf(expect, sizeof expect, "[%.1f, %.1f]", s->expected_low,
                  s->expected_high);
    t.add_row({s->name, sweep, TextTable::num(slope, 2), expect});
  }
  std::printf("%s", t.render().c_str());
}

}  // namespace
}  // namespace ambb::bench

int main() {
  ambb::bench::run_scaling();
  return ambb::bench::finish_bench("f2_scaling");
}
