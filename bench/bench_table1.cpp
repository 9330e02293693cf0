// Experiment T1 — Table 1 of the paper: amortized communication cost of
// multi-shot BB protocols with constant-sized inputs.
//
//   Protocol            Fault tolerance   Amortized cost (paper)
//   Berman et al. [5]   f < n/3           O(n^2)        (see DESIGN.md note)
//   Momose-Ren [26]     f <= (1/2-eps)n   O(k n^2)
//   This work (Alg 4)   f <= (1/2-eps)n   O(k n)
//   Dolev-Strong [13]   f < n             O(k n^2+n^3)  (multi-sig)
//   Dolev-Strong [13]   f < n             O(k n^3)      (plain sig)
//   This work (Alg 5.2) f < n             O(k n^2)
//
// We measure every row at fixed n under both a failure-free execution and
// the protocol's worst implemented adversary, amortized over enough slots
// for one-time costs to fade, and print measured bits/slot alongside the
// paper's predicted order (with kappa = 256).
#include "bench_common.hpp"

namespace ambb::bench {
namespace {

struct Row {
  const char* proto;
  const char* paper_row;
  const char* worst_adv;
  double predicted(double n, double kappa) const {
    const std::string p = proto;
    if (p == "phase-king") return n * n;  // crypto-free: no kappa factor
    if (p == "mr-baseline") return kappa * n * n;
    if (p == "linear") return kappa * n;
    if (p == "dolev-strong-msig") return (kappa + n) * n * n;
    if (p == "dolev-strong") return kappa * n * n * n;
    if (p == "quadratic") return kappa * n * n;
    return 0;
  }
};

constexpr Row kRows[] = {
    {"phase-king", "Berman et al. [5], f<n/3", "confuse"},
    {"mr-baseline", "Momose-Ren [26], f<=(1/2-e)n", "mixed"},
    {"linear", "This work Alg.4, f<=(1/2-e)n", "mixed"},
    {"dolev-strong-msig", "Dolev-Strong multi-sig, f<n", "stagger"},
    {"dolev-strong", "Dolev-Strong plain sig, f<n", "stagger"},
    {"quadratic", "This work Alg.5.2, f<n", "silent"},
};

CommonParams params_for(const Row& row, std::uint32_t n,
                        const std::string& adv) {
  CommonParams p;
  p.n = n;
  p.f = protocol(row.proto).max_f(n);
  // The f < n protocols tolerate up to n-1 corruptions, but measuring at
  // f = n-1 leaves a single honest node and trivializes the honest-bits
  // metric; measure with a Theta(n) honest population instead. (The
  // dishonest-MAJORITY capability itself is exercised in the test suite.)
  if (p.f >= n - 1) p.f = n / 2;
  p.seed = 42;
  p.adversary = adv;
  // Enough slots for the additive one-time terms to amortize; heavier
  // baselines get fewer slots (their per-slot cost does not amortize
  // anyway — that is the point).
  const std::string pr = row.proto;
  if (pr == "linear" || pr == "quadratic") {
    p.slots = 3 * n;  // let the one-time O(kappa n^3) terms amortize
  } else {
    p.slots = 8;  // the baselines have no cross-slot state: flat per-slot
  }
  return p;
}

void run_table() {
  // n = 64 keeps the eps = 0.1 expander in the constant-degree regime
  // (degree ~40 < n-1), so Algorithm 4's row shows its linear behavior.
  const std::uint32_t n = 64;
  const double kappa = 256;
  print_header(
      "T1 / Table 1: amortized communication of multi-shot BB (n=64, "
      "kappa=256)",
      "Alg.4 amortizes to O(kn); Alg.5.2 to O(kn^2); every baseline is at "
      "least quadratic per slot");

  std::vector<Job> jobs;
  std::vector<CommonParams> grid;
  for (const Row& row : kRows) {
    for (const std::string& adv : {std::string("none"),
                                  std::string(row.worst_adv)}) {
      CommonParams p = params_for(row, n, adv);
      jobs.push_back(registry_job(row.proto, p));
      grid.push_back(std::move(p));
    }
  }
  const std::vector<RunResult> results = run_jobs(jobs);

  TextTable t({"protocol", "f", "adversary", "slots", "amortized bits/slot",
               "steady-state tail", "paper O(.) @n", "tail/paper"});
  std::size_t i = 0;
  for (const Row& row : kRows) {
    for (const std::string& adv : {std::string("none"),
                                  std::string(row.worst_adv)}) {
      const CommonParams& p = grid[i];
      const RunResult& r = results[i];
      ++i;
      const double tail = r.amortized_tail(p.slots / 2);
      const double pred = row.predicted(n, kappa);
      t.add_row({row.paper_row, std::to_string(p.f), adv,
                 std::to_string(p.slots), TextTable::bits_human(r.amortized()),
                 TextTable::bits_human(tail), TextTable::bits_human(pred),
                 TextTable::num(tail / pred, 2)});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Reading: 'tail/paper' is the measured steady-state constant in front "
      "of the paper's asymptotic term;\nwhat matters is the ORDERING of the "
      "rows and that each constant is O(1) (absorbing expander degree,\n"
      "message-type counts and round constants). phase-king is the textbook "
      "variant (DESIGN.md).\n");
}

}  // namespace
}  // namespace ambb::bench

int main() {
  ambb::bench::run_table();
  return ambb::bench::finish_bench("table1");
}
