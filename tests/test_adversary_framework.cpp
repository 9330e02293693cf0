// The composable fault-injection framework (src/adversary/): the
// "sched:" spec grammar, structural validation against (n, f), the
// seeded fuzz generator's threat-model guarantee, and the Definition 2
// properties as oracles over EVERY registry protocol under at least one
// scheduled and one randomized fault schedule. `ctest -L adversary`
// selects this suite (plus test_erase_accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/fault.hpp"
#include "adversary/fuzz.hpp"
#include "adversary/spec.hpp"
#include "common/check.hpp"
#include "runner/registry.hpp"

namespace ambb {
namespace {

using adversary::FaultKind;
using adversary::FaultSchedule;
using adversary::kDensityAll;
using adversary::kRoundMax;

bool is_empty(const FaultSchedule& s) {
  return s.corruptions.empty() && s.erasures.empty() &&
         s.actor_faults.empty() && s.net_faults.empty();
}

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(SchedSpec, ClassifiesScheduleAndFuzzSpecs) {
  EXPECT_TRUE(adversary::is_schedule_spec("sched:corrupt(0,1)"));
  EXPECT_TRUE(adversary::is_schedule_spec("fuzz"));
  EXPECT_TRUE(adversary::is_schedule_spec("fuzz:17"));
  EXPECT_FALSE(adversary::is_schedule_spec("silent"));
  EXPECT_FALSE(adversary::is_schedule_spec("none"));
  EXPECT_FALSE(adversary::is_schedule_spec("schedule"));

  EXPECT_TRUE(adversary::is_fuzz_spec("fuzz"));
  EXPECT_TRUE(adversary::is_fuzz_spec("fuzz:3"));
  EXPECT_FALSE(adversary::is_fuzz_spec("sched:corrupt(0,1)"));
  EXPECT_EQ(adversary::fuzz_profile("fuzz"), 0u);
  EXPECT_EQ(adversary::fuzz_profile("fuzz:17"), 17u);
}

TEST(SchedSpec, ParsesEveryOpIntoTypedEvents) {
  const FaultSchedule s = adversary::parse_schedule_spec(
      "sched:corrupt(0,1,2);corrupt(3,5);erase(2,1,500,2,1);erase(4,5);"
      "silence(1,0,*);selective(2,1,9,0,3);shuffle(5,2,5);stagger(5,6,*,2)");

  ASSERT_EQ(s.corruptions.size(), 3u);
  EXPECT_EQ(s.corruptions[0].from, 0u);
  EXPECT_EQ(s.corruptions[0].node, 1u);
  EXPECT_EQ(s.corruptions[1].node, 2u);
  EXPECT_EQ(s.corruptions[2].from, 3u);
  EXPECT_EQ(s.corruptions[2].node, 5u);

  ASSERT_EQ(s.erasures.size(), 2u);
  EXPECT_EQ(s.erasures[0].round, 2u);
  EXPECT_EQ(s.erasures[0].sender, 1u);
  EXPECT_EQ(s.erasures[0].density_permille, 500u);
  EXPECT_EQ(s.erasures[0].to_mod, 2u);
  EXPECT_EQ(s.erasures[0].to_rem, 1u);
  // Two-arg form defaults: full density, no recipient filter.
  EXPECT_EQ(s.erasures[1].round, 4u);
  EXPECT_EQ(s.erasures[1].sender, 5u);
  EXPECT_EQ(s.erasures[1].density_permille, kDensityAll);
  EXPECT_EQ(s.erasures[1].to_mod, 1u);
  EXPECT_EQ(s.erasures[1].to_rem, 0u);

  ASSERT_EQ(s.actor_faults.size(), 4u);
  EXPECT_EQ(s.actor_faults[0].kind, FaultKind::kSilence);
  EXPECT_EQ(s.actor_faults[0].node, 1u);
  EXPECT_EQ(s.actor_faults[0].from, 0u);
  EXPECT_EQ(s.actor_faults[0].to, kRoundMax);
  EXPECT_EQ(s.actor_faults[1].kind, FaultKind::kSelective);
  EXPECT_EQ(s.actor_faults[1].node, 2u);
  EXPECT_EQ(s.actor_faults[1].from, 1u);
  EXPECT_EQ(s.actor_faults[1].to, 9u);
  EXPECT_EQ(s.actor_faults[1].keep, (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(s.actor_faults[2].kind, FaultKind::kShuffle);
  EXPECT_EQ(s.actor_faults[2].node, 5u);
  EXPECT_EQ(s.actor_faults[3].kind, FaultKind::kStagger);
  EXPECT_EQ(s.actor_faults[3].from, 6u);
  EXPECT_EQ(s.actor_faults[3].to, kRoundMax);
  EXPECT_EQ(s.actor_faults[3].delay, 2u);
}

TEST(SchedSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "sched:",                         // no ops
      "sched:corrupt(0)",               // corrupt needs a node
      "sched:erase(1,2,3,4)",           // 4-arg erase is ambiguous
      "sched:frobnicate(1,2)",          // unknown op
      "sched:corrupt(a,1)",             // non-numeric
      "sched:corrupt(*,1)",             // '*' only valid as a window end
      "sched:corrupt(0,1",              // missing ')'
      "sched:corrupt(0,1);",            // trailing ';'
      "sched:corrupt(0,,1)",            // empty argument
      "sched:stagger(1,0,5)",           // stagger needs the delay
      "sched:selective(1,0,5)",         // selective needs a keep-set
      "sched:corrupt(0,1)x",            // junk between ops
      "sched:corrupt(0,4294967296)",    // node id past 2^32-1, not node 0
      "sched:corrupt(0,-1)",            // signed
      "sched:erase(1,0,4294967296)",    // u32 density out of range
      "sched:stagger(1,0,5,4294967296)",  // u32 delay out of range
      "sched:corrupt(18446744073709551616,1)",  // round past 2^64-1
  };
  for (const char* spec : bad) {
    EXPECT_THROW(adversary::parse_schedule_spec(spec), CheckError) << spec;
  }
  // Not a sched: spec at all.
  EXPECT_THROW(adversary::parse_schedule_spec("fuzz"), CheckError);
  EXPECT_THROW(adversary::fuzz_profile("fuzz:abc"), CheckError);
}

// ---------------------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------------------

TEST(Validate, AcceptsBudgetRespectingSchedules) {
  const FaultSchedule s = adversary::parse_schedule_spec(
      "sched:corrupt(0,1,2);corrupt(3,5);erase(2,1,500,2,1);"
      "silence(1,0,*);selective(2,1,9,0,3);stagger(5,6,*,2)");
  EXPECT_NO_THROW(adversary::validate(s, 12, 3));
  // An erase in the round BEFORE the corruption fires is legal: corrupt(r+1)
  // means "corrupted during observe_round(r)", which may erase round r.
  const FaultSchedule adaptive =
      adversary::parse_schedule_spec("sched:corrupt(2,0);erase(1,0)");
  EXPECT_NO_THROW(adversary::validate(adaptive, 8, 1));
}

TEST(Validate, RejectsScheduleBreakingTheThreatModel) {
  auto expect_invalid = [](const std::string& spec, std::uint32_t n,
                           std::uint32_t f) {
    EXPECT_THROW(
        adversary::validate(adversary::parse_schedule_spec(spec), n, f),
        CheckError)
        << spec << " n=" << n << " f=" << f;
  };

  expect_invalid("sched:corrupt(0,12)", 12, 3);          // node out of range
  expect_invalid("sched:corrupt(0,0,1,2)", 12, 2);       // over budget
  expect_invalid("sched:corrupt(0,1);corrupt(2,1)", 12, 3);  // double corrupt
  // Erasing a sender that is not corrupt by the end of the erased round.
  expect_invalid("sched:corrupt(3,1);erase(1,1)", 12, 3);
  expect_invalid("sched:erase(0,1)", 12, 3);             // never corrupt
  expect_invalid("sched:corrupt(0,1);erase(0,1,1001)", 12, 3);  // density
  expect_invalid("sched:corrupt(0,1);erase(0,1,500,2,2)", 12, 3);  // rem>=mod
  expect_invalid("sched:silence(1,0,*)", 12, 3);         // fault, no corrupt
  // Fault window opens before the node turns Byzantine.
  expect_invalid("sched:corrupt(3,1);silence(1,0,*)", 12, 3);
  expect_invalid("sched:corrupt(0,1);stagger(1,0,*,0)", 12, 3);  // delay 0
  expect_invalid("sched:corrupt(0,1);silence(1,5,2)", 12, 3);  // to < from
  expect_invalid("sched:corrupt(0,1);selective(1,0,*,12)", 12, 3);  // keep>=n
}

// ---------------------------------------------------------------------------
// Fuzz generator
// ---------------------------------------------------------------------------

TEST(FuzzGen, IsAPureFunctionOfTheSeed) {
  const FaultSchedule a = adversary::generate_schedule(12, 3, 40, 7);
  const FaultSchedule b = adversary::generate_schedule(12, 3, 40, 7);
  EXPECT_EQ(adversary::describe(a), adversary::describe(b));

  // Different seeds explore different schedules (a handful of seeds must
  // produce more than one distinct schedule).
  std::set<std::string> distinct;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    distinct.insert(
        adversary::describe(adversary::generate_schedule(12, 3, 40, seed)));
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(FuzzGen, EveryGeneratedScheduleRespectsTheThreatModel) {
  for (std::uint32_t n : {5u, 8u, 13u}) {
    for (std::uint32_t f = 0; f <= n / 2; ++f) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const FaultSchedule s = adversary::generate_schedule(n, f, 30, seed);
        EXPECT_NO_THROW(adversary::validate(s, n, f))
            << "n=" << n << " f=" << f << " seed=" << seed << ": "
            << adversary::describe(s);
        if (f == 0) {
          EXPECT_TRUE(is_empty(s));
        } else {
          // An empty schedule fuzzes nothing: f > 0 must corrupt someone.
          EXPECT_FALSE(s.corruptions.empty());
        }
      }
    }
  }
}

TEST(FuzzGen, DegenerateParametersYieldEmptySchedules) {
  EXPECT_TRUE(is_empty(adversary::generate_schedule(12, 0, 40, 1)));
  EXPECT_TRUE(is_empty(adversary::generate_schedule(12, 3, 0, 1)));
}

// ---------------------------------------------------------------------------
// Registry plumbing
// ---------------------------------------------------------------------------

TEST(Registry, EveryProtocolAcceptsScheduleSpecs) {
  for (const auto& info : protocols()) {
    EXPECT_TRUE(accepts_adversary(info, "sched:corrupt(0,0)")) << info.name;
    EXPECT_TRUE(accepts_adversary(info, "fuzz")) << info.name;
    EXPECT_TRUE(accepts_adversary(info, "fuzz:3")) << info.name;
    EXPECT_TRUE(accepts_adversary(info, "none")) << info.name;
    EXPECT_FALSE(accepts_adversary(info, "no-such-adversary")) << info.name;
  }
}

TEST(Registry, SchedMayStallGovernsTheTerminationOracle) {
  // Protocols with no fallback path may stall under arbitrary schedules;
  // everything else must terminate under ANY budget-respecting schedule.
  EXPECT_TRUE(may_stall(protocol("hotstuff"), "fuzz"));
  EXPECT_TRUE(may_stall(protocol("linear-noquery"), "sched:corrupt(0,0)"));
  EXPECT_FALSE(may_stall(protocol("linear"), "fuzz"));
  EXPECT_FALSE(may_stall(protocol("dolev-strong"), "sched:corrupt(0,0)"));
  // Named specs still go through known_liveness_failures.
  EXPECT_TRUE(may_stall(protocol("hotstuff"), "selective"));
}

// ---------------------------------------------------------------------------
// Definition 2 oracles: every protocol x {scheduled, fuzz} schedules
// ---------------------------------------------------------------------------

using Param = std::tuple<std::string /*protocol*/, std::string /*adv*/>;

std::vector<Param> coverage_params() {
  // Schedule A: static corruption with a silenced node and a selective
  // node. Schedule B: strongly adaptive — node 0 is corrupted at the end
  // of round 1 and its round-1 traffic is erased after the fact; node 2
  // shuffles its payloads and node 0 staggers its output afterwards.
  const std::vector<std::string> advs = {
      "sched:corrupt(0,0,1);silence(0,0,*);selective(1,0,*,0,1)",
      "sched:corrupt(0,2);corrupt(2,0);erase(1,0);shuffle(2,0,*);"
      "stagger(0,2,*,2)",
      "fuzz",
      "fuzz:3",
  };
  std::vector<Param> out;
  for (const auto& info : protocols()) {
    for (const auto& adv : advs) out.emplace_back(info.name, adv);
  }
  return out;
}

class AllProtocolsScheduled : public ::testing::TestWithParam<Param> {};

TEST_P(AllProtocolsScheduled, Definition2PropertiesHold) {
  const auto& [name, adv] = GetParam();
  const ProtocolInfo& info = protocol(name);

  CommonParams p;
  p.n = 12;
  p.f = std::min<std::uint32_t>(3, info.max_f(p.n));
  p.slots = 3;
  p.seed = 11;
  p.adversary = adv;
  const RunResult r = info.run(p);

  EXPECT_EQ(check_consistency(r), std::vector<std::string>{});
  EXPECT_EQ(check_validity(r), std::vector<std::string>{});
  if (!may_stall(info, adv)) {
    EXPECT_EQ(check_termination(r), std::vector<std::string>{});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllProtocolsScheduled, ::testing::ValuesIn(coverage_params()),
    [](const auto& info) {
      std::string s = std::get<0>(info.param) + "_" +
                      (adversary::is_fuzz_spec(std::get<1>(info.param))
                           ? std::get<1>(info.param)
                           : "sched" + std::to_string(std::get<1>(
                                           info.param).size()));
      std::replace(s.begin(), s.end(), '-', '_');
      std::replace(s.begin(), s.end(), ':', '_');
      return s;
    });

// ---------------------------------------------------------------------------
// The oracle itself must fire: a deliberately broken schedule
// ---------------------------------------------------------------------------

TEST(AdversaryOracle, PermanentlySilencedLeaderTripsTermination) {
  // HotStuff demo, slot-1 leader (node 0 under the default rotation)
  // silenced for the whole run: no proposal, no quorum, no commit — the
  // documented Appendix A liveness failure, forced by a two-op schedule.
  // This proves the termination oracle fires on a real stall (the same
  // oracle ambb_fuzz counts), not that it vacuously passes.
  CommonParams p;
  p.n = 12;
  p.f = 3;
  p.slots = 3;
  p.seed = 5;
  p.adversary = "sched:corrupt(0,0);silence(0,0,*)";
  const ProtocolInfo& info = protocol("hotstuff");
  const RunResult r = info.run(p);

  EXPECT_NE(check_termination(r), std::vector<std::string>{});
  // Safety is unconditional: a stalled slot must not break agreement.
  EXPECT_EQ(check_consistency(r), std::vector<std::string>{});
  EXPECT_EQ(check_validity(r), std::vector<std::string>{});
  // The harnesses would skip exactly this oracle for this spec.
  EXPECT_TRUE(may_stall(info, p.adversary));
}

// ---------------------------------------------------------------------------
// Determinism and the legacy port
// ---------------------------------------------------------------------------

TEST(AdversaryDeterminism, SameSeedReproducesTheExecutionExactly) {
  for (const char* name : {"linear", "quadratic"}) {
    CommonParams p;
    p.n = 12;
    p.f = 3;
    p.slots = 3;
    p.seed = 9;
    p.adversary = "fuzz";
    const ProtocolInfo& info = protocol(name);
    const RunResult a = info.run(p);
    const RunResult b = info.run(p);

    EXPECT_EQ(a.honest_bits, b.honest_bits) << name;
    EXPECT_EQ(a.adversary_bits, b.adversary_bits) << name;
    EXPECT_EQ(a.honest_msgs, b.honest_msgs) << name;
    EXPECT_EQ(a.rounds, b.rounds) << name;
    EXPECT_EQ(a.per_slot_bits, b.per_slot_bits) << name;
    EXPECT_EQ(a.corrupt, b.corrupt) << name;
    const auto sa = a.stats_summary();
    const auto sb = b.stats_summary();
    EXPECT_EQ(sa.records, sb.records) << name;
    EXPECT_EQ(sa.deliveries, sb.deliveries) << name;
    EXPECT_EQ(sa.erasures, sb.erasures) << name;
    EXPECT_EQ(sa.corruptions, sb.corruptions) << name;
    for (Slot k = 1; k <= a.slots; ++k) {
      for (NodeId v = 0; v < p.n; ++v) {
        ASSERT_EQ(a.commits.has(v, k), b.commits.has(v, k)) << name;
        if (!a.commits.has(v, k)) continue;
        EXPECT_EQ(a.commits.get(v, k).value, b.commits.get(v, k).value);
        EXPECT_EQ(a.commits.get(v, k).round, b.commits.get(v, k).round);
      }
    }
  }
}

TEST(LegacyPort, LinearSilentEqualsItsExplicitScheduleForm) {
  // The legacy "silent" strategy is now corrupt-first-f + SilentDev
  // actors riding on ScheduledAdversary. The pure-primitive spelling
  // (silence windows on honest replicas) produces the identical honest
  // wire footprint: either way the corrupt nodes emit nothing and the
  // honest nodes see the same deliveries.
  CommonParams legacy;
  legacy.n = 8;
  legacy.f = 2;
  legacy.slots = 2;
  legacy.seed = 3;
  legacy.adversary = "silent";
  CommonParams sched = legacy;
  sched.adversary = "sched:corrupt(0,0,1);silence(0,0,*);silence(1,0,*)";

  const ProtocolInfo& info = protocol("linear");
  const RunResult a = info.run(legacy);
  const RunResult b = info.run(sched);
  EXPECT_EQ(a.honest_bits, b.honest_bits);
  EXPECT_EQ(a.honest_msgs, b.honest_msgs);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.adversary_bits, 0u);
  EXPECT_EQ(b.adversary_bits, 0u);
}

}  // namespace
}  // namespace ambb
