// Experiment F1 — Section 4.2's total-cost structure
// C(L) = O(kappa n L + kappa n^3): the amortized cost C(L)/L of
// Algorithm 4 converges to the linear term as L grows, i.e. the
// kappa*n^3 one-time costs (corrupt-proofs, query2 bursts, accusation
// multicasts) fade out.
//
// One long execution is run per adversary; the printed series are the
// prefix averages C(L')/L' from the per-slot ledger.
#include "bench_common.hpp"

namespace ambb::bench {
namespace {

void run_series() {
  const std::uint32_t n = 32;
  const std::uint32_t f = 12;
  const Slot kMaxSlots = 192;
  print_header(
      "F1 / Section 4.2: C(L)/L of Algorithm 4 converges as L grows (n=32, "
      "f=12)",
      "total cost O(kn L + kn^3): amortized cost decreases in L toward the "
      "linear term");

  const std::vector<const char*> advs = {"none",      "silent", "equivocate",
                                         "selective", "flood",  "mixed"};
  std::vector<Job> jobs;
  for (const char* adv : advs) {
    CommonParams p;
    p.n = n;
    p.f = f;
    p.slots = kMaxSlots;
    p.seed = 7;
    p.eps = 0.1;
    p.adversary = adv;
    jobs.push_back(
        registry_job("linear", p, std::string("linear/") + adv + "/L192"));
  }
  const std::vector<RunResult> results = run_jobs(jobs);

  TextTable t({"adversary", "L=4", "L=16", "L=48", "L=96", "L=192",
               "tail(96..192)", "kappa*n ref"});
  for (std::size_t i = 0; i < advs.size(); ++i) {
    const char* adv = advs[i];
    const RunResult& r = results[i];
    t.add_row({adv, TextTable::bits_human(r.amortized(4)),
               TextTable::bits_human(r.amortized(16)),
               TextTable::bits_human(r.amortized(48)),
               TextTable::bits_human(r.amortized(96)),
               TextTable::bits_human(r.amortized(192)),
               TextTable::bits_human(r.amortized_tail(96)),
               TextTable::bits_human(256.0 * n)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Reading: every adversarial row decreases toward its steady state; "
      "the remaining constant over kappa*n\nis the expander degree + "
      "per-epoch message count (failure-free row gives the baseline "
      "constant).\n");
}

}  // namespace
}  // namespace ambb::bench

int main() {
  ambb::bench::run_series();
  return ambb::bench::finish_bench("f1_convergence");
}
