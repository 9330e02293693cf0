// The experiment engine's contract (src/engine/engine.hpp): results are
// reported in submission order, parallel execution is byte-identical to
// serial on every measurement field, a throwing job is captured as a
// structured failure without taking down its neighbours, and property
// violations in completed results are surfaced per job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "runner/registry.hpp"

namespace ambb::engine {
namespace {

TEST(ResolveJobs, ExplicitValuePassesThroughZeroMeansHardware) {
  EXPECT_EQ(resolve_jobs(3), 3u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_GE(resolve_jobs(0), 1u);
}

TEST(ParallelMap, ResultsLandInIndexOrder) {
  auto sq = parallel_map(17, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(sq.size(), 17u);
  for (std::size_t i = 0; i < sq.size(); ++i) EXPECT_EQ(sq[i], i * i);

  EXPECT_TRUE(parallel_map(0, 4, [](std::size_t i) { return i; }).empty());
}

TEST(ParallelMap, FirstThrowingIndexIsRethrownAfterAllDrain) {
  std::atomic<int> ran{0};
  try {
    parallel_map(8, 4, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 2 || i == 5) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
      return i;
    });
    FAIL() << "expected parallel_map to rethrow";
  } catch (const std::runtime_error& e) {
    // Multiple indices threw; the rethrow is the FIRST in index order,
    // not in completion order.
    EXPECT_STREQ(e.what(), "boom at 2");
  }
  // The raw primitive does not abort the batch: everything still ran.
  EXPECT_EQ(ran.load(), 8);
}

/// A small cross-protocol grid via the sweep expander — the same path
/// ambb_sweep takes.
std::vector<Job> small_grid() {
  SweepSpec pk;
  pk.name = "pk";
  pk.protocol = "phase-king";
  pk.ns = {10, 13};
  pk.f_max = true;
  pk.slots_list = {4};
  pk.adversaries = {"none", "equivocate"};
  pk.seed_begin = 5;
  pk.seed_end = 6;

  SweepSpec ds;
  ds.name = "ds";
  ds.protocol = "dolev-strong";
  ds.ns = {8};
  ds.fs = {2};
  ds.slots_list = {4};
  ds.adversaries = {"silent"};
  ds.seed_begin = ds.seed_end = 9;

  return to_engine_jobs(expand_all({pk, ds}));
}

/// Every measurement field must match; wall-clock (ns_*) is exempt per
/// the determinism contract.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.f, b.f);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.honest_bits, b.honest_bits);
  EXPECT_EQ(a.adversary_bits, b.adversary_bits);
  EXPECT_EQ(a.honest_msgs, b.honest_msgs);
  EXPECT_EQ(a.per_slot_bits, b.per_slot_bits);
  EXPECT_EQ(a.kind_names, b.kind_names);
  EXPECT_EQ(a.per_kind_bits, b.per_kind_bits);
  EXPECT_EQ(a.corrupt, b.corrupt);
  EXPECT_EQ(a.senders, b.senders);
  EXPECT_EQ(a.sender_inputs, b.sender_inputs);

  for (Slot k = 1; k <= a.slots; ++k) {
    for (NodeId v = 0; v < a.n; ++v) {
      ASSERT_EQ(a.commits.has(v, k), b.commits.has(v, k))
          << "node " << v << " slot " << k;
      if (!a.commits.has(v, k)) continue;
      EXPECT_EQ(a.commits.get(v, k).value, b.commits.get(v, k).value);
      EXPECT_EQ(a.commits.get(v, k).round, b.commits.get(v, k).round);
    }
  }

  EXPECT_EQ(a.elided_rounds, b.elided_rounds);
  ASSERT_EQ(a.round_stats.size(), b.round_stats.size());
  for (std::size_t i = 0; i < a.round_stats.size(); ++i) {
    const RoundStats& ra = a.round_stats[i];
    const RoundStats& rb = b.round_stats[i];
    EXPECT_EQ(ra.round, rb.round);
    EXPECT_EQ(ra.records, rb.records) << "round " << i;
    EXPECT_EQ(ra.deliveries, rb.deliveries) << "round " << i;
    EXPECT_EQ(ra.honest_bits, rb.honest_bits) << "round " << i;
    EXPECT_EQ(ra.adversary_bits, rb.adversary_bits) << "round " << i;
    EXPECT_EQ(ra.erasures, rb.erasures) << "round " << i;
    EXPECT_EQ(ra.corruptions, rb.corruptions) << "round " << i;
  }
}

TEST(Engine, ParallelAggregatesAreByteIdenticalToSerial) {
  const auto jobs = small_grid();
  ASSERT_EQ(jobs.size(), 9u);  // 2n * 2adv * 2seeds + 1

  const auto serial = Engine(1).run(jobs);
  const auto parallel = Engine(4).run(jobs);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Submission order is preserved regardless of worker count.
    EXPECT_EQ(serial[i].label, jobs[i].label);
    EXPECT_EQ(parallel[i].label, jobs[i].label);
    ASSERT_TRUE(serial[i].completed) << serial[i].error;
    ASSERT_TRUE(parallel[i].completed) << parallel[i].error;
    EXPECT_TRUE(serial[i].violations.empty());
    EXPECT_TRUE(parallel[i].violations.empty());
    expect_identical(serial[i].result, parallel[i].result);
  }
}

// The ISSUE's concurrency satellite: two jobs with IDENTICAL seeds run
// concurrently on separate workers must produce identical RoundStats —
// each job owns its own Simulation, so nothing (in particular no shared
// TrafficView with its mutable cursor, see sim/net.hpp) couples them.
TEST(Engine, ConcurrentIdenticalSeedJobsProduceIdenticalRoundStats) {
  CommonParams p;
  p.n = 12;
  p.f = 4;
  p.slots = 5;
  p.seed = 77;
  p.adversary = "silent";
  const ProtocolInfo& info = protocol("linear");
  const Job job{"twin", [&info, p] { return info.run(p); }};

  const auto twins = Engine(2).run({job, job});
  ASSERT_EQ(twins.size(), 2u);
  ASSERT_TRUE(twins[0].completed) << twins[0].error;
  ASSERT_TRUE(twins[1].completed) << twins[1].error;
  ASSERT_FALSE(twins[0].result.round_stats.empty());
  expect_identical(twins[0].result, twins[1].result);
}

TEST(Engine, ThrowingJobIsIsolatedNeighboursComplete) {
  const ProtocolInfo& info = protocol("phase-king");
  CommonParams p;
  p.n = 10;
  p.f = 3;
  p.slots = 4;
  p.seed = 41;

  std::vector<Job> jobs;
  jobs.push_back(Job{"good-a", [&info, p] { return info.run(p); }});
  jobs.push_back(Job{"bad", []() -> RunResult {
                       throw CheckError("injected driver failure");
                     }});
  jobs.push_back(Job{"good-b", [&info, p] { return info.run(p); }});

  const auto out = Engine(3).run(jobs);
  ASSERT_EQ(out.size(), 3u);

  EXPECT_TRUE(out[0].completed);
  EXPECT_TRUE(out[0].violations.empty());
  EXPECT_EQ(out[0].label, "good-a");

  EXPECT_FALSE(out[1].completed);
  EXPECT_NE(out[1].error.find("injected driver failure"), std::string::npos)
      << out[1].error;
  EXPECT_TRUE(out[1].violations.empty());

  EXPECT_TRUE(out[2].completed);
  EXPECT_TRUE(out[2].violations.empty());
  expect_identical(out[0].result, out[2].result);
}

TEST(Engine, PropertyViolationsInCompletedResultsAreSurfaced) {
  const ProtocolInfo& info = protocol("phase-king");
  CommonParams p;
  p.n = 10;
  p.f = 3;
  p.slots = 4;
  p.seed = 41;

  // A driver that completes but returns a result violating validity: the
  // recorded honest-sender input of slot 1 is flipped after the fact.
  const Job tampered{"tampered", [&info, p] {
                       RunResult r = info.run(p);
                       r.sender_inputs[1] ^= 1;
                       return r;
                     }};
  const auto out = Engine(1).run({tampered});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].completed);
  ASSERT_FALSE(out[0].violations.empty());
  EXPECT_NE(out[0].violations[0].find("slot 1"), std::string::npos)
      << out[0].violations[0];
}

TEST(Engine, AllowStallSkipsTerminationButNotSafetyChecks) {
  // Synthetic result: n=2, honest node 1 never commits slot 1 (a
  // termination violation and nothing else).
  auto stalled = []() {
    RunResult r;
    r.n = 2;
    r.f = 0;
    r.slots = 1;
    r.corrupt = {0, 0};
    r.senders = {kNoNode, 0};
    r.sender_inputs = {kBotValue, 5};
    r.commits = CommitLog(2);
    r.commits.record(/*node=*/0, /*slot=*/1, /*value=*/5, /*round=*/3);
    return r;
  };

  const auto strict = Engine(1).run({Job{"strict", stalled}});
  ASSERT_TRUE(strict[0].completed);
  ASSERT_EQ(strict[0].violations.size(), 1u);
  EXPECT_NE(strict[0].violations[0].find("never committed"),
            std::string::npos);

  const auto lenient =
      Engine(1).run({Job{"lenient", stalled, /*allow_stall=*/true}});
  ASSERT_TRUE(lenient[0].completed);
  EXPECT_TRUE(lenient[0].violations.empty());
}

TEST(BenchJson, ZeroSlotAmortizedIsNaNEndToEnd) {
  // A zero-slot RunResult has no well-defined per-slot average; the
  // whole chain (RunResult -> to_record) must carry a quiet NaN instead
  // of dividing by zero.
  RunResult r;
  EXPECT_TRUE(std::isnan(r.amortized()));

  JobOutcome out;
  out.label = "zero-slot";
  out.completed = true;
  out.result = RunResult{};
  EXPECT_TRUE(std::isnan(to_record(out).amortized));
}

TEST(BenchJson, NonFiniteAmortizedRendersAsStructuredNull) {
  // JSON has no NaN literal; a "%.3f"-printed NaN would corrupt the
  // document for every consumer. Non-finite metrics become null.
  RunRecord rec;
  rec.label = "zero-slot";
  rec.amortized = std::numeric_limits<double>::quiet_NaN();
  const std::string json = render_bench_json("t", {rec}, 0, 1, 0.0);
  EXPECT_NE(json.find("\"amortized_bits_per_slot\": null"),
            std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);

  // Finite values keep the fixed-point rendering.
  rec.amortized = 1.5;
  EXPECT_NE(render_bench_json("t", {rec}, 0, 1, 0.0)
                .find("\"amortized_bits_per_slot\": 1.500"),
            std::string::npos);
}

}  // namespace
}  // namespace ambb::engine
