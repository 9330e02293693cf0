// Experiment F4 — Appendix A: HotStuff without a fallback path loses
// liveness under a selective-send leader, permanently; Algorithm 4
// commits everywhere in the identical scenario at linear steady-state
// cost. Prints the per-slot honest commit fraction for both protocols.
#include "bench_common.hpp"

namespace ambb::bench {
namespace {

void run_comparison() {
  const std::uint32_t n = 16;
  const std::uint32_t f = 5;
  const Slot slots = 16;
  print_header(
      "F4 / Appendix A: selective-send leaders vs liveness (n=16, f=5)",
      "HotStuff w/o fallback: <= f honest nodes stall forever; Algorithm 4 "
      "recovers via Query/Respond");

  CommonParams p;
  p.n = n;
  p.f = f;
  p.slots = slots;
  p.seed = 3;
  p.adversary = "selective";

  // HotStuff-without-fallback stalling under selective leaders is the
  // claim under test, so its termination check stays out of the tally
  // (the registry's stall policy already says so).
  const std::vector<RunResult> results =
      run_jobs({registry_job("hotstuff", p, "hotstuff/selective"),
                registry_job("linear", p, "linear/selective")});
  const RunResult& hr = results[0];
  const RunResult& lr = results[1];

  auto commit_fraction = [n](const RunResult& r, Slot k) {
    std::uint32_t committed = 0, honest = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (r.corrupt[v]) continue;
      ++honest;
      if (r.commits.has(v, k)) ++committed;
    }
    return static_cast<double>(committed) / honest;
  };

  TextTable t({"slot", "leader", "corrupt?", "hotstuff commit frac",
               "alg4 commit frac"});
  for (Slot k = 1; k <= slots; ++k) {
    t.add_row({std::to_string(k), std::to_string(hr.senders[k]),
               hr.corrupt[hr.senders[k]] ? "yes" : "no",
               TextTable::num(commit_fraction(hr, k), 2),
               TextTable::num(commit_fraction(lr, k), 2)});
  }
  std::printf("%s", t.render().c_str());

  const auto stalls = check_termination(hr);
  std::printf(
      "HotStuff stalled node-slots: %zu (expected %u per corrupt-leader "
      "slot); Algorithm 4 stalled: %zu\n",
      stalls.size(), f, check_termination(lr).size());
  std::printf("Honest bits — hotstuff: %s total, alg4: %s total\n",
              TextTable::bits_human(
                  static_cast<double>(hr.honest_bits)).c_str(),
              TextTable::bits_human(
                  static_cast<double>(lr.honest_bits)).c_str());
}

}  // namespace
}  // namespace ambb::bench

int main() {
  ambb::bench::run_comparison();
  return ambb::bench::finish_bench("f4_hotstuff");
}
