// Steady-state allocation audit for the Algorithm 4 hot path (DESIGN.md
// §14), the Algorithm 5.2 trust-graph mutators (§18) and the shared
// multicast inbox (§19), whose footprint is pinned too. Global
// operator new/delete are replaced with counting hooks and a
// full multi-shot run is stepped with a per-round observer: once the
// warmup slots have grown every traffic log, inbox buffer and reserved
// container to its high-water mark, each round of a steady window must
// perform ZERO heap allocations. The RoundStats row vector grows with
// the executed rounds, so that window lies between two of its
// doublings. This is the enforcement side of the cleared, never freed
// round buffers — a regression that sneaks a std::vector rebuild or a
// node-based container back into the round loop fails here, not in a
// profiler three PRs later.
//
// The hooks count every allocation in the process, so the test avoids
// allocating in its own observer (the sample buffer is pre-reserved).
// Not run under asan/tsan (the sanitizer allocators bypass user
// replacements); see tests/CMakeLists.txt labels.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "bb/linear_bb.hpp"
#include "graph/trust_graph.hpp"
#include "runner/result.hpp"
#include "sim/net.hpp"
#include "toy_policy.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ambb {
namespace {

TEST(AllocHotPath, SteadyStateAlg4RoundsAllocateNothing) {
  linear::LinearConfig cfg;
  cfg.n = 16;
  cfg.f = 4;
  cfg.slots = 6;
  cfg.seed = 3;
  cfg.eps = 0.2;
  cfg.adversary = "none";

  // Absolute counter samples and stored RoundStats rows, one per round;
  // pre-reserved so recording them is itself allocation-free.
  const std::uint64_t total_rounds =
      std::uint64_t{cfg.slots} * linear::Schedule{cfg.f}.rounds_per_slot();
  std::vector<std::uint64_t> samples, rows;
  samples.reserve(static_cast<std::size_t>(total_rounds) + 1);
  rows.reserve(static_cast<std::size_t>(total_rounds) + 1);
  cfg.on_round_end = [&samples, &rows](Round r, linear::Sim& sim) {
    samples.push_back(g_allocs.load(std::memory_order_relaxed));
    rows.push_back(r + 1 - sim.elided_rounds());
  };

  samples.push_back(g_allocs.load(std::memory_order_relaxed));
  rows.push_back(0);
  const RunResult r = run_linear(cfg);
  ASSERT_EQ(samples.size(), static_cast<std::size_t>(total_rounds) + 1);
  ASSERT_EQ(r.rounds, total_rounds);
  ASSERT_EQ(rows.back(), r.round_stats.size());

  // Warmup: the first two slots grow every buffer to high water (slot 1
  // populates everything once; slot 2 covers paths that only allocate on
  // the second pass, e.g. geometric reservations finishing).
  const std::uint64_t rounds_per_slot = total_rounds / cfg.slots;
  const std::size_t warmup = static_cast<std::size_t>(2 * rounds_per_slot);

  // The RoundStats row vector still grows after warmup: only executed
  // rounds store a row, so nothing can size it up front. libstdc++
  // doubles it when a push finds it full, i.e. when it holds a power of
  // two rows. Measure the steady window between two such doublings:
  // from the round after the first doubling past warmup up to the
  // round before the next one (or the end of the run). It must span
  // at least one whole slot, so every round of the slot is measured.
  const auto regrows = [&rows](std::size_t i) {
    return rows[i + 1] > rows[i] && std::has_single_bit(rows[i]);
  };
  std::size_t begin = warmup;
  while (begin + 1 < samples.size() && !regrows(begin)) ++begin;
  ++begin;
  std::size_t end = begin;
  while (end + 1 < samples.size() && !regrows(end)) ++end;
  ASSERT_GE(end - begin, rounds_per_slot)
      << "steady window [" << begin << ", " << end << ") is under a slot";

  std::uint64_t steady_allocs = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t delta = samples[i + 1] - samples[i];
    EXPECT_EQ(delta, 0u) << "round " << i << " performed " << delta
                         << " heap allocations in steady state";
    steady_allocs += delta;
  }
  EXPECT_EQ(steady_allocs, 0u);

  // The run itself must still be a real, committing execution.
  EXPECT_GT(r.honest_bits, 0u);
  EXPECT_GT(samples.back(), samples.front());  // warmup did allocate
}

TEST(AllocHotPath, TrustGraphMutatorsAllocateNothing) {
  // Algorithm 5.2 prunes after every new accusation (DESIGN.md §18): the
  // mutators must run on the graph's own words. Cut the two-vertex
  // component {63, 64}, which straddles the first word boundary, off
  // from the rest edge by edge, pruning after each cut, then drop a
  // vertex and prune again.
  TrustGraph g(65);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (NodeId v = 0; v < 63; ++v) {
    g.remove_edge(63, v);
    g.prune_unconnected(0);
    g.remove_edge(v, 64);
    g.prune_unconnected(0);
  }
  const std::uint32_t after_cut = g.vertex_count();
  g.remove_vertex(7);
  g.prune_unconnected(0);
  g.remove_edge(1, 2);
  g.prune_unconnected(1);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(after_cut, 63u);  // the component fell away
  EXPECT_FALSE(g.has_vertex(63));
  EXPECT_FALSE(g.has_vertex(64));
  EXPECT_EQ(g.vertex_count(), 62u);
}

struct CastMsg {
  std::uint64_t tag = 0;
};

/// Multicasts `per_round` messages every round and counts what it
/// receives; allocation-free itself.
class Multicaster final : public Actor<CastMsg> {
 public:
  explicit Multicaster(std::uint32_t per_round) : per_round_(per_round) {}

  void on_round(Round r, std::span<const Delivery<CastMsg>> inbox,
                const TrafficView<CastMsg>&, RoundApi<CastMsg>& api) override {
    last_inbox = inbox.size();
    for (std::uint32_t i = 0; i < per_round_; ++i) {
      api.multicast(CastMsg{r * per_round_ + i});
    }
  }

  std::size_t last_inbox = 0;

 private:
  std::uint32_t per_round_;
};

/// An n-node toy sim in which every node multicasts `per_round` messages
/// every round.
std::vector<Multicaster*> all_multicast(ToySim<CastMsg>& sim,
                                        std::uint32_t n,
                                        std::uint32_t per_round) {
  std::vector<Multicaster*> out;
  for (NodeId v = 0; v < n; ++v) {
    auto a = std::make_unique<Multicaster>(per_round);
    out.push_back(a.get());
    sim.set_actor(v, std::move(a));
  }
  return out;
}

TEST(AllocHotPath, AllMulticastRoundsAllocateNothing) {
  // Each executed round appends one RoundStats row, and nothing reserves
  // the rows up front. libstdc++ doubles the row vector's capacity as it
  // grows, so after 33 warm-up rounds it holds 64 and the 31 measured
  // rounds fill it without regrowing it.
  constexpr std::uint32_t kWarmup = 33, kRounds = 31;
  CostLedger ledger({"toy"});
  ToySim<CastMsg> sim(16, 5, &ledger, ToyPolicy{});
  const auto actors = all_multicast(sim, 16, 3);
  run_rounds(sim, kWarmup);
  for (std::uint32_t i = 0; i < kRounds; ++i) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    sim.step();
    const std::uint64_t delta =
        g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(delta, 0u) << "round " << kWarmup + i << " performed "
                         << delta << " heap allocations";
  }
  for (const Multicaster* a : actors) EXPECT_EQ(a->last_inbox, 16u * 3);
}

TEST(AllocHotPath, AllMulticastFootprintIsLinearInRecords) {
  // Each multicast lands once in the shared stream, not once per node:
  // after rounds of R records at n = 64, the buffers hold O(R) bytes —
  // well under the R * n inbox entries a per-node fan-out needs.
  constexpr std::uint32_t kN = 64, kPerNode = 16;
  constexpr std::size_t kRecords = std::size_t{kN} * kPerNode;
  CostLedger ledger({"toy"});
  ToySim<CastMsg> sim(kN, 1, &ledger, ToyPolicy{});
  const auto actors = all_multicast(sim, kN, kPerNode);
  run_rounds(sim, 4);
  for (const Multicaster* a : actors) EXPECT_EQ(a->last_inbox, kRecords);

  constexpr std::size_t kEntry =
      sizeof(TrafficLog<CastMsg>::Record) + sizeof(Delivery<CastMsg>);
  const std::size_t reserved = sim.traffic_reserved_bytes();
  EXPECT_LE(reserved, 8 * kRecords * kEntry);
  EXPECT_LT(reserved, kRecords * kN * sizeof(Delivery<CastMsg>));
}

TEST(AllocHotPath, HooksActuallyCount) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto* p = new std::uint64_t[8];
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  delete[] p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace ambb
