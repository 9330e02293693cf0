// Closed-loop benchmark driver for the ambb registry (see README.md).
//
// One process runs one workload: a single caller thread issues
// ambb::protocol(name).run() calls back to back, each started only after
// the previous one returned and was checked. Everything is observed from
// outside the program: a TraceSink of our own, the RunResult/RoundStats
// fields, DigestCache::local() stats deltas, and timed calls into public
// layer functions with the workload's shapes.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --pins FILE [--print-pins]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exit status is 1 if any run failed, 2 on usage errors.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/intern.hpp"
#include "crypto/merkle.hpp"
#include "crypto/rs_code.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "crypto/threshold.hpp"
#include "graph/expander.hpp"
#include "runner/registry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace ambb;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* protocol;
  const char* adversary;
  std::uint32_t n, f;
  Slot slots;
  double eps;
  std::uint64_t payload_bytes;
  std::uint64_t default_seed;
};

// All lock-step, node_jobs at its default; see README.md for why each.
const Workload kWorkloads[] = {
    {"alg4-lockstep", "linear", "mixed", 128, 38, 384, 0.2, 0, 7},
    {"alg52-silent", "quadratic", "silent", 64, 32, 192, 0.1, 0, 7},
};

// Not a workload of its own: on a shared host its run time drifts by more
// than any bound for minutes at a time (README.md, Steadiness). The traced
// pass of every workload times its phases (ext.*) at the pinned seed, and
// the crypto.* calls use its shapes.
const Workload kExtCoding = {"ext-coding", "ext:linear", "none", 16, 4, 4,
                             0.1, 262144, 1};

CommonParams params_of(const Workload& w, std::uint64_t seed) {
  CommonParams p;
  p.n = w.n;
  p.f = w.f;
  p.slots = w.slots;
  p.seed = seed;
  p.adversary = w.adversary;
  p.eps = w.eps;
  p.payload_bytes = w.payload_bytes;
  return p;
}

// ---------------------------------------------------------------------------
// Pinned outputs at the default seeds
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

struct Pin {
  std::uint64_t honest_bits = 0;
  std::uint64_t adversary_bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t per_slot_fnv = 0;
  std::uint64_t commit_fnv = 0;

  bool operator==(const Pin&) const = default;
};

Pin pin_of(const RunResult& r) {
  Pin p;
  p.honest_bits = r.honest_bits;
  p.adversary_bits = r.adversary_bits;
  p.rounds = r.rounds;
  p.per_slot_fnv = kFnvOffset;
  for (std::uint64_t b : r.per_slot_bits) p.per_slot_fnv = fnv1a(p.per_slot_fnv, b);
  p.commit_fnv = kFnvOffset;
  for (Slot k = 1; k <= r.slots; ++k) {
    for (NodeId v = 0; v < r.n; ++v) {
      if (!r.commits.has(v, k)) {
        p.commit_fnv = fnv1a(p.commit_fnv, 0xDEADULL);
        continue;
      }
      const CommitRecord& c = r.commits.get(v, k);
      p.commit_fnv = fnv1a(p.commit_fnv, c.value);
      p.commit_fnv = fnv1a(p.commit_fnv, c.round);
    }
  }
  return p;
}

std::string pin_line(const std::string& workload, std::uint64_t seed,
                     const Pin& p) {
  std::ostringstream os;
  os << workload << ' ' << seed << ' ' << p.honest_bits << ' '
     << p.adversary_bits << ' ' << p.rounds << ' ' << std::hex << "0x"
     << p.per_slot_fnv << " 0x" << p.commit_fnv;
  return os.str();
}

/// Reads "workload seed honest_bits adversary_bits rounds per_slot_fnv
/// commit_fnv" lines ('#' starts a comment). Returns false if `workload`
/// has no line; `seed` receives the pinned (default) seed.
bool load_pin(const std::string& path, const std::string& workload,
              std::uint64_t& seed, Pin& pin) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "perfbench: cannot read pins file " << path << "\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string name, psf, cf;
    Pin p;
    std::uint64_t s = 0;
    if (!(is >> name >> s >> p.honest_bits >> p.adversary_bits >> p.rounds >>
          psf >> cf)) {
      continue;
    }
    if (name != workload) continue;
    p.per_slot_fnv = std::stoull(psf, nullptr, 16);
    p.commit_fnv = std::stoull(cf, nullptr, 16);
    seed = s;
    pin = p;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// End-to-end sink: records the first event's timestamp, ignores the rest.
class FirstEventSink final : public trace::TraceSink {
 public:
  void on_event(const trace::Event&) override {
    if (!seen_) {
      first_ = Clock::now();
      seen_ = true;
    }
  }
  bool seen() const { return seen_; }
  Clock::time_point first() const { return first_; }

 private:
  bool seen_ = false;
  Clock::time_point first_{};
};

/// Traced-run sink: timestamps the layer boundaries visible as events.
/// A kRoundEnd whose round is below the previous one starts a new
/// simulation (the ext rows' nested base run).
class LayerSink final : public trace::TraceSink {
 public:
  void on_event(const trace::Event& e) override {
    const Clock::time_point now = Clock::now();
    if (!seen_) {
      first_ = now;
      seen_ = true;
    }
    if (e.kind == trace::EventKind::kRoundEnd) {
      if (sim_ends_.empty() || e.round < last_round_) {
        sim_ends_.push_back(now);
      }
      sim_ends_.back() = now;
      last_round_ = e.round;
    } else if (e.kind == trace::EventKind::kSlotStart) {
      if (has_slot_ && e.round > slot_round_) {
        slot_gaps_.push_back(secs(slot_time_, now));
      }
      has_slot_ = true;
      slot_round_ = e.round;
      slot_time_ = now;
    }
  }

  bool seen() const { return seen_; }
  Clock::time_point first() const { return first_; }
  /// Last kRoundEnd of each simulation, in order.
  const std::vector<Clock::time_point>& sim_ends() const { return sim_ends_; }
  /// Wall time between consecutive kSlotStart events of one simulation.
  const std::vector<double>& slot_gaps() const { return slot_gaps_; }

 private:
  bool seen_ = false;
  Clock::time_point first_{};
  std::vector<Clock::time_point> sim_ends_;
  Round last_round_ = 0;
  bool has_slot_ = false;
  Round slot_round_ = 0;
  Clock::time_point slot_time_{};
  std::vector<double> slot_gaps_;
};

// ---------------------------------------------------------------------------
// One checked run
// ---------------------------------------------------------------------------

struct Runner {
  Runner(const Workload& wl, std::uint64_t seed)
      : w(wl), proto(protocol(wl.protocol)), params(params_of(wl, seed)) {}

  const Workload& w;
  const ProtocolInfo& proto;
  CommonParams params;
  bool pinned = false;
  Pin pin;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> check_s;
  /// Call and return time of the latest run() call.
  Clock::time_point t0{}, t1{};

  double wall() const { return secs(t0, t1); }

  /// Runs once; [t0, t1] covers only the run() call. Returns false (and
  /// counts a failure) on a throw, a Definition-2 violation or a pin
  /// mismatch.
  bool run(trace::TraceSink* sink, RunResult& out) {
    ++attempted;
    try {
      t0 = Clock::now();
      out = proto.run(RunRequest(params, sink));
      t1 = Clock::now();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: run threw: " << e.what() << "\n";
      ++failed;
      return false;
    }
    const Clock::time_point c0 = Clock::now();
    std::vector<std::string> bad = check_consistency(out);
    for (auto* check : {&check_termination, &check_validity}) {
      for (std::string& v : check(out)) bad.push_back(std::move(v));
    }
    check_s.push_back(secs(c0, Clock::now()));
    if (pinned) {
      const Pin got = pin_of(out);
      if (!(got == pin)) {
        bad.push_back("pinned outputs differ: got '" +
                      pin_line(w.name, params.seed, got) + "'");
      }
    }
    if (!bad.empty()) {
      for (std::size_t i = 0; i < bad.size() && i < 5; ++i) {
        std::cerr << "perfbench: " << bad[i] << "\n";
      }
      ++failed;
      return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Highest sample with at least ten samples above it (the median when
/// there are fewer than eleven samples).
double tail(std::vector<double> v) {
  if (v.size() < 11) return median(v);
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

struct Metric {
  double value;
  const char* unit;
  bool integral;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    m_.emplace_back(name, Metric{value, unit, false});
  }
  void count(const std::string& name, std::uint64_t value) {
    m_.emplace_back(name, Metric{static_cast<double>(value), "count", true});
  }

  void print_table(std::ostream& os) const {
    for (const auto& [name, m] : m_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, m.integral ? "%.0f" : "%.6g", m.value);
      os << "# " << name << " = " << buf << ' ' << m.unit << "\n";
    }
  }

  void print_json(std::ostream& os) const {
    bool first = true;
    for (const auto& [name, m] : m_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, m.integral ? "%.0f" : "%.17g", m.value);
      os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
  }

 private:
  std::vector<std::pair<std::string, Metric>> m_;
};

std::string host_block() {
  __builtin_cpu_init();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"sha_ni\": " << (__builtin_cpu_supports("sha") ? "true" : "false")
     << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
#if defined(__clang__)
     << ", \"compiler\": \"clang " << __clang_version__ << "\""
#else
     << ", \"compiler\": \"gcc " << __VERSION__ << "\""
#endif
     << ", \"build_type\": \"" << AMBB_BUILD_TYPE << "\"}";
  return os.str();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// Seconds one RefKernel pass takes on the reference host. The end-to-end
/// times are scaled to that host (README.md, "Scaling to the reference
/// host").
constexpr double kRefSeconds = 0.016;

/// Fixed work timed on the caller thread after every run: ordered-map churn
/// (allocation and pointer chasing) and data-dependent branches. On a shared
/// host other tenants slow one vCPU by up to 40% for minutes at a time;
/// these two kinds of work slowed in step with the workloads, where plain
/// ALU loops and DRAM pointer chases did not. Uses only the standard
/// library, so a change to the program cannot move it.
class RefKernel {
 public:
  RefKernel() : bits_(1 << 20) {
    std::mt19937 gen(2);
    for (std::uint8_t& b : bits_) b = gen() & 1;
  }

  /// Wall seconds of one pass.
  double time() {
    const Clock::time_point a = Clock::now();
    std::map<std::uint32_t, std::uint32_t> m;
    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < 40000; ++i) {
      x = x * 1664525u + 1013904223u;
      m[x >> 8] = i;
      if (m.size() > 20000) m.erase(m.begin());
    }
    std::uint64_t acc = m.size();
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i]) {
        acc += i;
      } else {
        acc ^= i;
      }
    }
    sink_ = acc;
    return secs(a, Clock::now());
  }

 private:
  std::vector<std::uint8_t> bits_;  ///< random, so every branch is a guess
  volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// End-to-end pass (--trace 0)
// ---------------------------------------------------------------------------

void end_to_end(Runner& rn, double seconds, Metrics& out) {
  std::vector<double> walls, setups, refs;
  RefKernel ref;
  // Warm-up: checked, not timed (fills the thread-local caches and the
  // allocator's free lists the way every later run sees them). Each
  // result is dropped before the next run, so peak_rss_mb is one run's.
  {
    RunResult res;
    rn.run(nullptr, res);
    ref.time();
  }
  const Clock::time_point start = Clock::now();
  do {
    RunResult res;
    FirstEventSink sink;
    if (rn.run(&sink, res) && sink.seen()) {
      walls.push_back(rn.wall());
      setups.push_back(secs(rn.t0, sink.first()));
    }
    refs.push_back(ref.time());
  } while (secs(start, Clock::now()) < seconds);

  // Medians of the raw times, scaled to the reference host: `slow` > 1
  // when this stretch of the host runs the reference kernel slower.
  const double wall = median(walls);
  const double slow = median(refs) / kRefSeconds;
  std::cout << "# timed runs " << walls.size() << ": run wall p25/p50/p75 "
            << quantile(walls, 0.25) << " / " << wall << " / "
            << quantile(walls, 0.75) << " s, tail " << tail(walls)
            << " s; setup p50 " << median(setups) << " s; failed_frac "
            << static_cast<double>(rn.failed) / static_cast<double>(rn.attempted)
            << " (" << rn.failed << "/" << rn.attempted << ")\n"
            << "# reference kernel p25/p50/p75 " << quantile(refs, 0.25)
            << " / " << median(refs) << " / " << quantile(refs, 0.75)
            << " s, so slow = " << slow << "; raw slots_per_s "
            << (walls.empty() ? 0.0 : rn.w.slots / wall) << "\n";
  out.add("slots_per_s", walls.empty() ? 0.0 : rn.w.slots * slow / wall,
          "slots/s");
  out.add("setup_s", median(setups) / slow, "s");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
}

// ---------------------------------------------------------------------------
// Per-layer pass (--trace 1)
// ---------------------------------------------------------------------------

/// Median of `reps` timings of fn(rep).
template <typename Fn>
double timed(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point a = Clock::now();
    fn(i);
    t.push_back(secs(a, Clock::now()));
  }
  return median(t);
}

/// Everything the per-layer pass keeps of one traced run.
struct TracedRun {
  double wall = 0, setup = 0, loop = 0, finish = 0;
  double dispersal = 0, base = 0;  ///< ext rows only
  std::vector<double> slot_gaps;
  RoundStatsSummary sim;
  std::uint64_t idle_rounds = 0, idle_ns = 0;
  std::uint64_t corruptions = 0, honest_msgs = 0;
  DigestCache::Stats cache;  ///< delta across the run
};

TracedRun traced_run(const LayerSink& sink, const Runner& rn,
                     const RunResult& res, const DigestCache::Stats& before,
                     const DigestCache::Stats& after) {
  TracedRun t;
  t.wall = rn.wall();
  t.setup = secs(rn.t0, sink.first());
  t.loop = secs(sink.first(), sink.sim_ends().back());
  t.finish = secs(sink.sim_ends().back(), rn.t1);
  if (sink.sim_ends().size() >= 2) {
    t.dispersal = secs(sink.first(), sink.sim_ends().front());
    t.base = secs(sink.sim_ends().front(), sink.sim_ends().back());
  }
  t.slot_gaps = sink.slot_gaps();
  t.sim = res.stats_summary();
  for (const RoundStats& r : res.round_stats) {
    if (r.records == 0) {
      ++t.idle_rounds;
      t.idle_ns += r.ns_total();
    }
  }
  // Static corruptions happen at bind time, before RoundStats exist, so
  // count the final corruption flags rather than summing RoundStats.
  t.corruptions = std::count(res.corrupt.begin(), res.corrupt.end(), 1);
  t.honest_msgs = res.honest_msgs;
  t.cache = {after.hits - before.hits, after.misses - before.misses,
             after.evictions - before.evictions};
  return t;
}

/// One run with a LayerSink; appends it to `traced` if it passed its checks
/// and split into at least `sims` simulations.
void run_traced(Runner& rn, std::size_t sims, std::vector<TracedRun>& traced) {
  RunResult res;
  LayerSink sink;
  const DigestCache::Stats before = DigestCache::local().stats();
  const bool ok = rn.run(&sink, res);
  const DigestCache::Stats after = DigestCache::local().stats();
  if (!ok) return;
  if (!sink.seen() || sink.sim_ends().size() < sims) {
    std::cerr << "perfbench: " << rn.w.name << " traced run shows "
              << sink.sim_ends().size() << " simulations, expected " << sims
              << "\n";
    ++rn.failed;
    return;
  }
  traced.push_back(traced_run(sink, rn, res, before, after));
}

/// The run with the median wall time. Every number taken from it keeps the
/// sums exact: setup + loop + finish = wall, the five phases = step,
/// dispersal + base = loop.
const TracedRun& median_run(std::vector<TracedRun>& traced) {
  std::sort(traced.begin(), traced.end(),
            [](const TracedRun& x, const TracedRun& y) { return x.wall < y.wall; });
  return traced[(traced.size() - 1) / 2];
}

void per_layer(Runner& rn, Runner& ext, double seconds, Metrics& out) {
  const Workload& w = rn.w;
  {
    RunResult res;
    rn.run(nullptr, res);  // warm-up, as in end_to_end
  }

  std::vector<double> plain_walls, first_walls, refs;
  std::vector<TracedRun> traced;
  RefKernel ref;
  ref.time();
  const Clock::time_point start = Clock::now();
  do {
    RunResult res;
    if (rn.run(nullptr, res)) plain_walls.push_back(rn.wall());
    FirstEventSink first;
    if (rn.run(&first, res)) first_walls.push_back(rn.wall());
    run_traced(rn, 1, traced);
    refs.push_back(ref.time());
  } while (secs(start, Clock::now()) < seconds);

  // ext-coding phases: one warm-up and five traced runs, after the loop so
  // they cannot disturb the caches the workload's own runs see.
  std::vector<TracedRun> ext_traced;
  {
    RunResult res;
    ext.run(nullptr, res);
  }
  for (int i = 0; i < 5; ++i) run_traced(ext, 2, ext_traced);
  if (traced.empty() || ext_traced.empty()) return;  // failures say why

  std::vector<double> traced_walls;
  for (const TracedRun& t : traced) traced_walls.push_back(t.wall);
  const TracedRun& m = median_run(traced);
  std::vector<double> untraced = plain_walls;
  untraced.insert(untraced.end(), first_walls.begin(), first_walls.end());

  // driver / runner
  out.add("driver.wall_s", m.wall, "s");
  out.add("driver.setup_s", m.setup, "s");
  out.add("driver.loop_s", m.loop, "s");
  out.add("driver.finish_s", m.finish, "s");
  out.add("driver.run_s_p50", median(untraced), "s");
  out.add("driver.run_s_tail", tail(untraced), "s");
  out.count("driver.run_samples", untraced.size());
  out.add("runner.check_s", median(rn.check_s), "s");
  // The layer times below are raw; this says how fast the host ran them.
  out.add("host.ref_s", median(refs), "s");

  // setup: timed public calls with the workload's parameters.
  out.add("setup.keygen_s", timed(7, [&](int) {
            const KeyRegistry reg(w.n, rn.params.seed);
            const ThresholdScheme th(reg, w.n - w.f);
          }),
          "s");
  // Only the linear family builds an expander (0 for alg52-silent).
  const bool linear_family = std::string(w.protocol) == "linear";
  out.add("setup.expander_s", !linear_family ? 0.0 : timed(7, [&](int) {
            build_expander(w.n, w.eps, rn.params.seed ^ 0xE0A11DE5ULL);
          }),
          "s");

  // sim / adversary / bb
  const RoundStatsSummary& sm = m.sim;
  const double step = sm.ns_total() * 1e-9;
  out.add("sim.step_s", step, "s");
  out.add("sim.between_steps_s", m.loop - step, "s");
  out.add("sim.honest_s", sm.ns_honest * 1e-9, "s");
  out.add("sim.byzantine_s", sm.ns_byzantine * 1e-9, "s");
  out.add("sim.adversary_s", sm.ns_adversary * 1e-9, "s");
  out.add("sim.accounting_s", sm.ns_accounting * 1e-9, "s");
  out.add("sim.delivery_s", sm.ns_delivery * 1e-9, "s");
  out.add("sim.idle_step_s", m.idle_ns * 1e-9, "s");
  out.add("sim.busy_step_s", (sm.ns_total() - m.idle_ns) * 1e-9, "s");
  out.count("sim.rounds", sm.rounds);
  out.count("sim.idle_rounds", m.idle_rounds);
  out.count("sim.records", sm.records);
  out.count("sim.deliveries", sm.deliveries);
  out.add("sim.deliveries_per_record",
          sm.records == 0 ? 0.0
                          : static_cast<double>(sm.deliveries) /
                                static_cast<double>(sm.records),
          "ratio");
  out.count("sim.max_round_deliveries", sm.max_round_deliveries);
  out.count("adversary.corruptions", m.corruptions);
  out.count("adversary.erasures", sm.erasures);
  const std::vector<double>& gaps = m.slot_gaps;
  out.add("bb.first_slot_s", gaps.empty() ? 0.0 : gaps.front(), "s");
  out.add("bb.slot_s_p50", median(gaps), "s");
  out.add("bb.slot_s_max",
          gaps.empty() ? 0.0 : *std::max_element(gaps.begin(), gaps.end()),
          "s");
  out.count("bb.honest_msgs", m.honest_msgs);

  // crypto: the run's cache deltas on this thread, then timed calls with
  // the ext-coding shapes on fresh payloads (fresh data keeps the
  // interning cache from answering the Merkle hashes).
  out.count("crypto.digest_hits", m.cache.hits);
  out.count("crypto.digest_misses", m.cache.misses);
  const std::uint64_t lookups = m.cache.hits + m.cache.misses;
  out.add("crypto.digest_hit_ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(m.cache.hits) /
                             static_cast<double>(lookups),
          "ratio");
  out.count("crypto.digest_evictions", m.cache.evictions);

  constexpr std::uint32_t kN = 16, kK = 8;
  constexpr std::size_t kBytes = 256 * 1024;
  constexpr int kReps = 7;
  std::vector<std::vector<std::uint8_t>> payloads(kReps);
  std::uint64_t pay_seed = rn.params.seed ^ 0xC0DEC0DEULL;
  for (auto& p : payloads) {
    p.resize(kBytes);
    for (std::size_t i = 0; i < kBytes; i += 8) {
      const std::uint64_t x = splitmix64(pay_seed);
      for (std::size_t b = 0; b < 8; ++b) {
        p[i + b] = static_cast<std::uint8_t>(x >> (8 * b));
      }
    }
  }
  // Outputs of the timed calls are checked afterwards; a wrong one counts
  // as one failed attempt.
  std::vector<std::vector<std::vector<std::uint8_t>>> coded(kReps);
  std::vector<std::vector<std::uint8_t>> decoded(kReps);
  std::vector<merkle::Tree> trees;
  std::vector<Digest> hashes(kReps);
  out.add("crypto.rs_encode_s", timed(kReps, [&](int i) {
            coded[i] = rs::encode(payloads[i], kN, kK);
          }),
          "s");
  out.add("crypto.rs_reconstruct_s", timed(kReps, [&](int i) {
            std::vector<rs::Chunk> parity;
            for (std::uint32_t j = kK; j < kN; ++j) {
              parity.emplace_back(j, coded[i][j]);
            }
            decoded[i] = rs::reconstruct(parity, kN, kK, kBytes);
          }),
          "s");
  out.add("crypto.merkle_commit_s", timed(kReps, [&](int i) {
            std::vector<Digest> leaves(kN);
            for (std::uint32_t j = 0; j < kN; ++j) {
              leaves[j] = merkle::leaf_hash(j, coded[i][j]);
            }
            trees.push_back(merkle::Tree::build(leaves));
          }),
          "s");
  const double sha = timed(kReps, [&](int i) {
    hashes[i] = Sha256::hash(payloads[i]);
  });
  out.add("crypto.sha256_mb_per_s", kBytes / sha / 1e6, "MB/s");
  bool layer_ok = true;
  for (int i = 0; i < kReps; ++i) {
    layer_ok = layer_ok && decoded[i] == payloads[i];
    Sha256 h;
    h.update(payloads[i]);
    layer_ok = layer_ok && h.finalize() == hashes[i];
    for (std::uint32_t j = 0; j < kN; ++j) {
      layer_ok = layer_ok &&
                 merkle::verify(trees[i].root(), kN, j,
                                merkle::leaf_hash(j, coded[i][j]),
                                trees[i].prove(j));
    }
  }
  ++rn.attempted;
  if (!layer_ok) {
    std::cerr << "perfbench: a timed layer call returned a wrong result\n";
    ++rn.failed;
  }

  // ext phases of the median ext-coding run, split where Event::round
  // restarts for the nested base run.
  const TracedRun& e = median_run(ext_traced);
  out.add("ext.dispersal_s", e.dispersal, "s");
  out.add("ext.base_s", e.base, "s");
  out.add("ext.decide_s", e.finish, "s");

  // trace overheads against sink-less runs.
  out.add("trace.overhead_s", median(traced_walls) - median(plain_walls), "s");
  out.add("trace.setup_sink_overhead_s",
          median(first_walls) - median(plain_walls), "s");
  std::cout << "# traced runs " << traced.size() << " (+" << ext_traced.size()
            << " ext-coding), untraced runs " << untraced.size()
            << "; layer numbers from the traced run with the median wall\n";
}

/// Loads the pinned outputs of rn's workload and checks them at its
/// default seed only. False, after saying why, if the pins file has no
/// line for the workload's default seed.
bool pin(const std::string& path, Runner& rn) {
  std::uint64_t pinned_seed = 0;
  if (!load_pin(path, rn.w.name, pinned_seed, rn.pin)) {
    std::cerr << "perfbench: no pinned outputs for " << rn.w.name << "\n";
    return false;
  }
  if (pinned_seed != rn.w.default_seed) {
    std::cerr << "perfbench: pins for " << rn.w.name << " are for seed "
              << pinned_seed << ", expected " << rn.w.default_seed << "\n";
    return false;
  }
  rn.pinned = rn.params.seed == rn.w.default_seed;
  return true;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --pins FILE [--print-pins]\n  workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool print_pins = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--print-pins") {
      print_pins = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  for (const char* k : {"workload", "seed", "pins"}) {
    if (!args.count(k)) return usage();
  }
  if (!print_pins && (!args.count("seconds") || !args.count("trace"))) {
    return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args["workload"] == c.name) w = &c;
  }
  if (print_pins && args["workload"] == kExtCoding.name) w = &kExtCoding;
  if (w == nullptr) return usage();
  std::uint64_t seed = 0;
  double seconds = 0;
  int traced = 0;
  try {
    seed = std::stoull(args["seed"]);
    if (!print_pins) {
      seconds = std::stod(args["seconds"]);
      traced = std::stoi(args["trace"]);
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (traced != 0 && traced != 1) return usage();

  Runner rn(*w, seed);
  if (print_pins) {
    std::cout << pin_line(w->name, seed, pin_of(rn.proto.run(rn.params)))
              << "\n";
    return 0;
  }
  Runner ext(kExtCoding, kExtCoding.default_seed);
  if (!pin(args["pins"], rn) || !pin(args["pins"], ext)) return 2;

  std::cout << "# workload " << w->name << ": " << w->protocol << " adversary "
            << w->adversary << " n=" << w->n << " f=" << w->f
            << " L=" << w->slots << " seed=" << seed
            << (rn.pinned ? " (pinned outputs checked)"
                          : " (Definition-2 checks only)")
            << "\n# host " << host_block() << "\n";
  Metrics m;
  if (traced == 0) {
    end_to_end(rn, seconds, m);
  } else {
    per_layer(rn, ext, seconds, m);
  }
  m.print_table(std::cout);
  const std::uint64_t attempted = rn.attempted + ext.attempted;
  const std::uint64_t failed = rn.failed + ext.failed;
  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  m.print_json(std::cout);
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
