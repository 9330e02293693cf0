#include "figures.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "runner/fit.hpp"
#include "runner/table.hpp"

namespace ambb::figures {

namespace {

using engine::JobOutcome;
using engine::SweepJob;
using Jobs = std::vector<SweepJob>;
using Outcomes = std::vector<JobOutcome>;

std::string bits(double b) { return TextTable::bits_human(b); }

std::string kind_bits(const RunResult& r, const char* kind) {
  for (std::size_t i = 0; i < r.kind_names.size(); ++i) {
    if (r.kind_names[i] == kind) {
      return bits(static_cast<double>(r.per_kind_bits[i]));
    }
  }
  return bits(0);
}

/// Result of the first job matching `pred`; the spec file must have one.
template <class Pred>
const RunResult& result_of(const Jobs& jobs, const Outcomes& outs,
                           Pred pred) {
  std::size_t i = 0;
  while (i < jobs.size() && !pred(jobs[i])) ++i;
  AMBB_CHECK_MSG(i < jobs.size(), "the spec lacks a job this report reads");
  return outs[i].result;
}

/// Table 1's name for a registry row and the row's amortized bound in
/// bits per slot at (n, kappa). Phase-king is crypto-free: no kappa.
std::pair<const char*, double> paper_row(const std::string& protocol,
                                         double n, double k) {
  if (protocol == "phase-king") return {"Berman et al. [5], f<n/3", n * n};
  if (protocol == "mr-baseline") {
    return {"Momose-Ren [26], f<=(1/2-e)n", k * n * n};
  }
  if (protocol == "linear") return {"This work Alg.4, f<=(1/2-e)n", k * n};
  if (protocol == "dolev-strong-msig") {
    return {"Dolev-Strong multi-sig, f<n", (k + n) * n * n};
  }
  if (protocol == "dolev-strong") {
    return {"Dolev-Strong plain sig, f<n", k * n * n * n};
  }
  AMBB_CHECK_MSG(protocol == "quadratic", "no Table 1 row for " << protocol);
  return {"This work Alg.5.2, f<n", k * n * n};
}

std::size_t table1(const Jobs& jobs, const Outcomes& outs) {
  TextTable t({"protocol", "f", "adversary", "slots", "amortized bits/slot",
               "steady-state tail", "paper O(.) @n", "tail/paper"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CommonParams& p = jobs[i].params;
    const RunResult& r = outs[i].result;
    const auto [row, bound] = paper_row(jobs[i].protocol, p.n, p.kappa_bits);
    const double tail = r.amortized_tail(p.slots / 2);
    t.add_row({row, std::to_string(p.f), p.adversary, std::to_string(p.slots),
               bits(r.amortized()), bits(tail), bits(bound),
               TextTable::num(tail / bound, 2)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

std::size_t f1_convergence(const Jobs& jobs, const Outcomes& outs) {
  TextTable t({"adversary", "L=4", "L=16", "L=48", "L=96", "L=192",
               "tail(96..192)", "kappa*n ref"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CommonParams& p = jobs[i].params;
    const RunResult& r = outs[i].result;
    t.add_row({p.adversary, bits(r.amortized(4)), bits(r.amortized(16)),
               bits(r.amortized(48)), bits(r.amortized(96)),
               bits(r.amortized(192)), bits(r.amortized_tail(96)),
               bits(static_cast<double>(p.kappa_bits) * p.n)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

/// An F2 series: the spec block that runs it, the slope band its Table 1
/// degree predicts, and where its steady-state window starts: after slot
/// tail_per_n * n + tail_slots (0 = the whole run).
struct SlopeBand {
  const char* block;
  const char* series;
  double low, high;
  Slot tail_per_n, tail_slots;
};

constexpr SlopeBand kF2[] = {
    {"alg4", "Alg.4 (mixed adv, eps=0.2)", 0.7, 1.6, 2, 0},
    {"mr-baseline", "MR-style baseline (mixed adv)", 1.6, 2.5, 0, 4},
    {"alg5.2", "Alg.5.2 (silent adv, f=n/2)", 1.5, 2.6, 2, 0},
    {"dolev-strong", "Dolev-Strong plain (stagger, f=n/2)", 2.3, 3.4, 0, 0},
    {"phase-king", "phase-king (confuse, f<n/3)", 1.6, 3.2, 0, 0},
};

std::size_t f2_scaling(const Jobs& jobs, const Outcomes& outs) {
  TextTable t({"protocol", "n sweep", "measured slope", "paper-expected"});
  for (const SlopeBand& band : kF2) {
    std::vector<double> ns, costs;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // A job's block is its label up to the first '/'.
      if (jobs[i].label.rfind(std::string(band.block) + "/", 0) != 0) continue;
      const std::uint32_t n = jobs[i].params.n;
      ns.push_back(n);
      costs.push_back(outs[i].result.amortized_tail(band.tail_per_n * n +
                                                    band.tail_slots));
    }
    AMBB_CHECK_MSG(ns.size() >= 2,
                   "block '" << band.block << "' needs two n values");
    char sweep[64];
    std::snprintf(sweep, sizeof sweep, "%.0f..%.0f", ns.front(), ns.back());
    char expect[64];
    std::snprintf(expect, sizeof expect, "[%.1f, %.1f]", band.low,
                  band.high);
    t.add_row({band.series, sweep, TextTable::num(loglog_slope(ns, costs), 2),
               expect});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

std::size_t f3_adversaries(const Jobs& jobs, const Outcomes& outs) {
  TextTable t({"adversary", "amortized", "tail(last half)", "top kind #1",
               "top kind #2", "corrupt-proof bits", "query2 bits"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CommonParams& p = jobs[i].params;
    const RunResult& r = outs[i].result;
    // Rank message kinds by honest bits.
    std::vector<std::size_t> order(r.kind_names.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return r.per_kind_bits[a] > r.per_kind_bits[b];
    });
    auto kind_cell = [&](std::size_t rank) {
      const std::size_t k = order[rank];
      return r.kind_names[k] + " " +
             bits(static_cast<double>(r.per_kind_bits[k]));
    };
    t.add_row({p.adversary, bits(r.amortized()),
               bits(r.amortized_tail(p.slots / 2)), kind_cell(0),
               kind_cell(1), kind_bits(r, "corrupt-proof"),
               kind_bits(r, "query2")});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

double commit_fraction(const RunResult& r, Slot k) {
  std::uint32_t committed = 0, honest = 0;
  for (NodeId v = 0; v < r.n; ++v) {
    if (r.corrupt[v]) continue;
    ++honest;
    if (r.commits.has(v, k)) ++committed;
  }
  return static_cast<double>(committed) / honest;
}

std::size_t f4_hotstuff(const Jobs& jobs, const Outcomes& outs) {
  const RunResult& hr = result_of(
      jobs, outs, [](const SweepJob& j) { return j.protocol == "hotstuff"; });
  const RunResult& lr = result_of(
      jobs, outs, [](const SweepJob& j) { return j.protocol == "linear"; });
  TextTable t({"slot", "leader", "corrupt?", "hotstuff commit frac",
               "alg4 commit frac"});
  for (Slot k = 1; k <= hr.slots; ++k) {
    t.add_row({std::to_string(k), std::to_string(hr.senders[k]),
               hr.corrupt[hr.senders[k]] ? "yes" : "no",
               TextTable::num(commit_fraction(hr, k), 2),
               TextTable::num(commit_fraction(lr, k), 2)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "HotStuff stalled node-slots: %zu (expected %u per corrupt-leader "
      "slot); Algorithm 4 stalled: %zu\n",
      check_termination(hr).size(), hr.f, check_termination(lr).size());
  std::printf("Honest bits — hotstuff: %s total, alg4: %s total\n",
              bits(static_cast<double>(hr.honest_bits)).c_str(),
              bits(static_cast<double>(lr.honest_bits)).c_str());
  return 0;
}

std::size_t f5_trustcast(const Jobs& jobs, const Outcomes& outs) {
  TextTable t({"adversary", "L", "amortized", "tail", "prop bits",
               "accuse bits", "corrupt bits"});
  // Each adversary's runs side by side: one row group per job of the
  // first slot count, in spec order.
  for (const SweepJob& head : jobs) {
    if (head.params.slots != jobs.front().params.slots) continue;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const CommonParams& p = jobs[i].params;
      if (p.adversary != head.params.adversary) continue;
      const RunResult& r = outs[i].result;
      t.add_row({p.adversary, std::to_string(p.slots), bits(r.amortized()),
                 bits(r.amortized_tail(p.slots / 2)), kind_bits(r, "prop"),
                 kind_bits(r, "accuse"), kind_bits(r, "corrupt")});
    }
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

/// Each ext:X row against the X row at the same payload; a pair in which
/// ext is never the cheaper one fails the crossover claim.
std::size_t f6_payload(const Jobs& jobs, const Outcomes& outs) {
  std::size_t failures = 0;
  std::vector<std::string> tabled;  // one table per ext protocol
  for (const SweepJob& head : jobs) {
    const std::string& ext = head.protocol;
    if (ext.rfind("ext:", 0) != 0 ||
        std::find(tabled.begin(), tabled.end(), ext) != tabled.end()) {
      continue;
    }
    tabled.push_back(ext);
    const std::string raw = ext.substr(4);
    TextTable t({"payload bytes", "ext total bits", "raw total bits",
                 "ext/raw", "ext amortized", "raw amortized"});
    std::uint64_t crossover = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].protocol != ext) continue;
      const std::uint64_t payload = jobs[i].params.payload_bytes;
      const RunResult& e = outs[i].result;
      const RunResult& w = result_of(jobs, outs, [&](const SweepJob& j) {
        return j.protocol == raw && j.params.payload_bytes == payload;
      });
      const double ratio = w.honest_bits == 0
                               ? 0.0
                               : static_cast<double>(e.honest_bits) /
                                     static_cast<double>(w.honest_bits);
      if (crossover == 0 && e.honest_bits < w.honest_bits) crossover = payload;
      t.add_row({std::to_string(payload), std::to_string(e.honest_bits),
                 std::to_string(w.honest_bits), TextTable::num(ratio, 3),
                 TextTable::num(e.amortized(), 0),
                 TextTable::num(w.amortized(), 0)});
    }
    const CommonParams& p = head.params;
    std::printf("\n%s vs %s  (n=%u, f=%u, L=%u slots, seed %" PRIu64 "):\n",
                ext.c_str(), raw.c_str(), p.n, p.f, p.slots, p.seed);
    std::printf("%s", t.render().c_str());
    if (crossover != 0) {
      std::printf("crossover: %s is cheaper than inline %s from %" PRIu64
                  "-byte payloads on\n",
                  ext.c_str(), raw.c_str(), crossover);
    } else {
      std::printf("!! no crossover observed — ext never beat the raw "
                  "baseline\n");
      ++failures;
    }
  }
  return failures;
}

/// The A1 variants: the registry row that implements each.
constexpr std::pair<const char*, const char*> kVariants[] = {
    {"linear", "paper (Alg.4)"},
    {"linear-nomem", "no cross-slot memory"},
    {"linear-noquery", "no query path"},
    {"mr-baseline", "always-forward (MR-style)"},
};

/// Each variant's L=24 and L=96 runs per adversary; the liveness column
/// reads the L=96 run.
std::size_t a1_ablation(const Jobs& jobs, const Outcomes& outs) {
  TextTable t({"variant", "adversary", "amortized(L=24)", "amortized(L=96)",
               "tail(48..96)", "liveness"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SweepJob& short_run = jobs[i];
    if (short_run.params.slots != 24) continue;
    const auto* variant = std::find_if(
        std::begin(kVariants), std::end(kVariants),
        [&](const auto& v) { return short_run.protocol == v.first; });
    AMBB_CHECK_MSG(variant != std::end(kVariants),
                   "no A1 variant for " << short_run.protocol);
    const RunResult& r24 = outs[i].result;
    const RunResult& r96 = result_of(jobs, outs, [&](const SweepJob& j) {
      return j.protocol == short_run.protocol &&
             j.params.adversary == short_run.params.adversary &&
             j.params.slots == 96;
    });
    t.add_row({variant->second, short_run.params.adversary,
               bits(r24.amortized()), bits(r96.amortized()),
               bits(r96.amortized_tail(48)),
               check_termination(r96).empty() ? "ok" : "STALLS"});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

/// A figure: its `report` name, the title printed above its tables (the
/// spec file states the claim) and the analysis that prints them.
struct Figure {
  const char* name;
  const char* title;
  std::size_t (*analysis)(const Jobs&, const Outcomes&);
};

constexpr Figure kFigures[] = {
    {"table1", "T1 / Table 1: amortized communication of multi-shot BB",
     table1},
    {"f1_convergence", "F1 / Section 4.2: C(L)/L of Algorithm 4 converges",
     f1_convergence},
    {"f2_scaling", "F2 / Table 1 scaling exponents: log-log slope vs n",
     f2_scaling},
    {"f3_adversaries", "F3 / Section 4.2: Algorithm 4 cost by adversary",
     f3_adversaries},
    {"f4_hotstuff", "F4 / Appendix A: selective-send leaders vs liveness",
     f4_hotstuff},
    {"f5_trustcast", "F5 / Sections 5.1, 5.4: Algorithm 5.2 amortization",
     f5_trustcast},
    {"f6_payload", "F6-payload / DESIGN.md §13: extension vs inline payload",
     f6_payload},
    {"a1_ablation", "A1 / ablation: Algorithm 4 minus each design choice",
     a1_ablation},
};

}  // namespace

std::vector<std::string> names() {
  std::vector<std::string> out;
  for (const Figure& fig : kFigures) out.emplace_back(fig.name);
  return out;
}

std::size_t report(const std::string& name, const Jobs& jobs,
                   const Outcomes& outs) {
  const Figure* fig =
      std::find_if(std::begin(kFigures), std::end(kFigures),
                   [&](const Figure& f) { return name == f.name; });
  AMBB_CHECK_MSG(fig != std::end(kFigures), "unknown report '" << name << "'");
  std::printf("\n== %s ==\n", fig->title);
  return fig->analysis(jobs, outs);
}

}  // namespace ambb::figures
