// Registry-driven sweep: every protocol x every supported adversary x
// several seeds must satisfy Definition 2 (consistency, termination,
// validity) — except the documented HotStuff/selective liveness failure,
// which must fail termination and nothing else — and keep one RoundStats
// row per executed round.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "runner/registry.hpp"

namespace ambb {
namespace {

using Param = std::tuple<std::string /*protocol*/, std::string /*adv*/,
                         std::uint64_t /*seed*/>;

std::vector<Param> all_params() {
  std::vector<Param> out;
  for (const auto& p : protocols()) {
    for (const auto& adv : p.policy.named) {
      for (std::uint64_t seed : {1ull, 42ull}) {
        out.emplace_back(p.name, adv, seed);
      }
    }
  }
  return out;
}

class AllProtocols : public ::testing::TestWithParam<Param> {};

/// A run keeps one RoundStats row per executed round, in strictly
/// increasing round order, and counts the elided rest (DESIGN.md §17).
void expect_rows_cover_rounds(const RunResult& r) {
  EXPECT_EQ(r.round_stats.size() + r.elided_rounds, r.rounds);
  EXPECT_EQ(r.stats_summary().rounds, r.rounds);
  for (std::size_t i = 0; i < r.round_stats.size(); ++i) {
    EXPECT_LT(r.round_stats[i].round, r.rounds);
    if (i > 0) {
      EXPECT_GT(r.round_stats[i].round, r.round_stats[i - 1].round)
          << "row " << i;
    }
  }
}

TEST_P(AllProtocols, Definition2Properties) {
  const auto& [name, adv, seed] = GetParam();
  const ProtocolInfo& info = protocol(name);

  CommonParams p;
  p.n = 12;
  p.f = std::min<std::uint32_t>(3, info.max_f(p.n));
  p.slots = 6;
  p.seed = seed;
  p.adversary = adv;
  auto r = info.run(p);

  EXPECT_EQ(check_consistency(r), std::vector<std::string>{});
  EXPECT_EQ(check_validity(r), std::vector<std::string>{});
  expect_rows_cover_rounds(r);

  if (!info.policy.may_stall(adv)) {
    EXPECT_EQ(check_termination(r), std::vector<std::string>{});
  }
  // The guaranteed stalls (hotstuff/selective with corrupt leaders;
  // linear-noquery/selective) are asserted in their dedicated test files.
}

TEST_P(AllProtocols, MaxFaultToleranceHolds) {
  const auto& [name, adv, seed] = GetParam();
  const ProtocolInfo& info = protocol(name);

  CommonParams p;
  p.n = 10;
  p.f = info.max_f(p.n);
  p.slots = 4;
  p.seed = seed + 100;
  p.adversary = adv;
  auto r = info.run(p);

  EXPECT_EQ(check_consistency(r), std::vector<std::string>{})
      << name << "/" << adv << " at f=" << p.f;
  EXPECT_EQ(check_validity(r), std::vector<std::string>{});
  if (!info.policy.may_stall(adv)) {
    EXPECT_EQ(check_termination(r), std::vector<std::string>{})
        << name << "/" << adv << " at f=" << p.f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllProtocols, ::testing::ValuesIn(all_params()),
    [](const auto& info) {
      std::string s = std::get<0>(info.param) + "_" +
                      std::get<1>(info.param) + "_s" +
                      std::to_string(std::get<2>(info.param));
      std::replace(s.begin(), s.end(), '-', '_');
      std::replace(s.begin(), s.end(), ':', '_');  // "ext:linear" rows
      return s;
    });

TEST(AllProtocolsMeta, EveryProtocolHasNoneAdversary) {
  for (const auto& p : protocols()) {
    EXPECT_TRUE(p.policy.accepts("none")) << p.name;
  }
}

TEST(AllProtocolsMeta, SlotCountsRespected) {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 3;
  p.seed = 1;
  for (const auto& info : protocols()) {
    auto r = info.run(p);
    EXPECT_EQ(r.slots, 3u) << info.name;
    EXPECT_EQ(r.n, 8u) << info.name;
  }
}

}  // namespace
}  // namespace ambb
