// Properties of Algorithm 4 (Definition 2) across adversaries, sizes and
// seeds, plus behaviors specific to the linear protocol.
#include "bb/linear_bb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <type_traits>

#include "common/check.hpp"

namespace ambb::linear {
namespace {

LinearConfig base_cfg(std::uint32_t n, std::uint32_t f, Slot slots,
                      std::uint64_t seed, const std::string& adv) {
  LinearConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.slots = slots;
  cfg.seed = seed;
  cfg.eps = 0.1;
  cfg.adversary = adv;
  return cfg;
}

using Param = std::tuple<std::uint32_t /*n*/, std::uint32_t /*f*/,
                         std::string /*adversary*/, std::uint64_t /*seed*/>;

class LinearProperties : public ::testing::TestWithParam<Param> {};

TEST_P(LinearProperties, ConsistencyTerminationValidity) {
  const auto& [n, f, adv, seed] = GetParam();
  auto r = run_linear(base_cfg(n, f, 5, seed, adv));
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(
    AdversarySweep, LinearProperties,
    ::testing::Combine(
        ::testing::Values(8u, 16u, 25u),
        ::testing::Values(2u),
        ::testing::Values("none", "silent", "equivocate", "selective",
                          "flood", "mixed", "adaptive-erase"),
        ::testing::Values(1u, 7u)),
    [](const auto& info) {
      std::string s = "n" + std::to_string(std::get<0>(info.param)) + "_f" +
                      std::to_string(std::get<1>(info.param)) + "_" +
                      std::get<2>(info.param) + "_s" +
                      std::to_string(std::get<3>(info.param));
      std::replace(s.begin(), s.end(), '-', '_');
      return s;
    });

INSTANTIATE_TEST_SUITE_P(
    MaxFaultSweep, LinearProperties,
    ::testing::Combine(::testing::Values(16u), ::testing::Values(6u),
                       ::testing::Values("silent", "mixed", "selective"),
                       ::testing::Values(3u, 13u, 23u)),
    [](const auto& info) {
      return "f6_" + std::get<2>(info.param) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(Linear, HonestSenderCommitsInEpochZero) {
  auto cfg = base_cfg(16, 6, 3, 5, "none");
  auto r = run_linear(cfg);
  const Schedule sched{6};
  for (Slot k = 1; k <= r.slots; ++k) {
    for (NodeId v = 0; v < r.n; ++v) {
      const auto& c = r.commits.get(v, k);
      // Committed within epoch 0 of its slot (11 rounds).
      const Round slot_start = (k - 1) * sched.rounds_per_slot();
      EXPECT_LT(c.round, slot_start + Schedule::kRoundsPerEpoch)
          << "node " << v << " slot " << k;
    }
  }
}

TEST(Linear, ValidityDeliversSenderInputs) {
  auto cfg = base_cfg(12, 4, 4, 9, "none");
  cfg.input_for_slot = [](Slot k) { return Value{1000 + k}; };
  auto r = run_linear(cfg);
  ASSERT_TRUE(check_all(r).empty());
  for (Slot k = 1; k <= 4; ++k) {
    EXPECT_EQ(r.commits.get(5, k).value, Value{1000 + k});
  }
}

TEST(Linear, CustomSenderScheduleRespected) {
  auto cfg = base_cfg(12, 4, 3, 9, "none");
  cfg.sender_of = [](Slot) { return NodeId{7}; };  // fixed honest sender
  auto r = run_linear(cfg);
  EXPECT_TRUE(check_all(r).empty());
  EXPECT_EQ(r.senders[1], 7u);
  EXPECT_EQ(r.senders[3], 7u);
}

TEST(Linear, FBoundEnforced) {
  auto cfg = base_cfg(10, 5, 1, 1, "none");  // f=5 > (0.5-0.1)*10=4
  EXPECT_THROW(run_linear(cfg), CheckError);
}

TEST(Linear, FBoundExactOnTheBoundary) {
  // (0.5 - 0.15) * 180 evaluates to 62.99999999999999 in binary floating
  // point, but f = 63 sits exactly on the bound f <= (1/2 - eps) n.
  auto cfg = base_cfg(180, 63, 1, 1, "none");
  cfg.eps = 0.15;
  RunResult r;
  ASSERT_NO_THROW(r = run_linear(cfg));
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
  cfg.f = 64;
  EXPECT_THROW(run_linear(cfg), CheckError);
}

TEST(Linear, AblationOptionsStillCorrect) {
  for (auto opts : {Options::mr_baseline(), Options::no_memory()}) {
    for (const char* adv : {"none", "silent", "selective", "mixed"}) {
      auto cfg = base_cfg(12, 4, 4, 3, adv);
      cfg.opts = opts;
      auto r = run_linear(cfg);
      EXPECT_EQ(check_all(r), std::vector<std::string>{})
          << "adv=" << adv << " persistent=" << opts.persistent_accusations
          << " query=" << opts.use_query_path;
    }
  }
}

TEST(Linear, NoQueryAblationLosesLivenessUnderSelectiveLeaders) {
  // Removing the Query/Respond path is not merely a cost regression: once
  // a selective leader makes a partial quorum commit, committed nodes are
  // gated out of later epochs and no n-f quorum remains — the starved
  // nodes can never be rescued. This is the dissemination problem of
  // Section 1 in its sharpest form.
  for (const char* adv : {"selective", "mixed"}) {
    auto cfg = base_cfg(12, 4, 4, 3, adv);
    cfg.opts = Options::no_query();
    auto r = run_linear(cfg);
    EXPECT_TRUE(check_consistency(r).empty()) << adv;
    EXPECT_TRUE(check_validity(r).empty()) << adv;
    EXPECT_FALSE(check_termination(r).empty())
        << adv << ": expected the ablation to stall";
  }
  // Under non-selective failures it is still live (no partial commits).
  for (const char* adv : {"none", "silent", "equivocate"}) {
    auto cfg = base_cfg(12, 4, 4, 3, adv);
    cfg.opts = Options::no_query();
    auto r = run_linear(cfg);
    EXPECT_EQ(check_all(r), std::vector<std::string>{}) << adv;
  }
}

TEST(Linear, DeterministicAcrossRuns) {
  auto cfg = base_cfg(12, 4, 4, 123, "mixed");
  auto r1 = run_linear(cfg);
  auto r2 = run_linear(cfg);
  EXPECT_EQ(r1.honest_bits, r2.honest_bits);
  EXPECT_EQ(r1.per_slot_bits, r2.per_slot_bits);
  for (Slot k = 1; k <= 4; ++k) {
    EXPECT_EQ(r1.commits.get(6, k).value, r2.commits.get(6, k).value);
  }
}

TEST(Linear, SeedChangesExecution) {
  auto r1 = run_linear(base_cfg(12, 4, 4, 1, "none"));
  auto r2 = run_linear(base_cfg(12, 4, 4, 2, "none"));
  // Different inputs (seed-derived) -> different committed values.
  EXPECT_NE(r1.commits.get(5, 1).value, r2.commits.get(5, 1).value);
}

TEST(Linear, AdaptiveEraseActuallyCorrupts) {
  auto r = run_linear(base_cfg(12, 4, 3, 5, "adaptive-erase"));
  EXPECT_TRUE(check_all(r).empty());
  int corrupt_count = 0;
  for (auto c : r.corrupt) corrupt_count += c;
  EXPECT_EQ(corrupt_count, 1);  // exactly the slot-1 sender
  EXPECT_EQ(r.corrupt[r.senders[1]], 1);
}

TEST(Linear, SilentAdversaryCostDecreasesAfterFirstSlots) {
  // The corrupt-proof formation is a one-time cost: later slots led by the
  // same (already-convicted) senders must be far cheaper.
  auto cfg = base_cfg(16, 6, 32, 3, "silent");
  auto r = run_linear(cfg);
  ASSERT_TRUE(check_all(r).empty());
  const double head = r.amortized(8);
  const double tail = r.amortized_tail(16);
  EXPECT_LT(tail, head * 0.8);
}

TEST(Linear, MessageSizesFollowWireModel) {
  WireModel w{16, 256, 256};
  Msg m;
  m.kind = Kind::kQuery1;
  EXPECT_EQ(size_bits(m, w), w.header_bits());
  m.kind = Kind::kCommitProof;
  EXPECT_EQ(size_bits(m, w), w.header_bits() + 16 + 256 + 256);
  m.kind = Kind::kPropose;
  m.has_cert = false;
  EXPECT_EQ(size_bits(m, w), w.header_bits() + 256 + 1 + 256 + w.id_bits());
  m.has_cert = true;
  EXPECT_EQ(size_bits(m, w),
            w.header_bits() + 256 + 1 + 16 + 256 + 256 + w.id_bits());
}

// Msg keeps one storage slot per role (DESIGN.md §14): the records are
// copied as bytes, and a share and a signature share one slot.
static_assert(std::is_trivially_copyable_v<Msg>);
static_assert(std::is_layout_compatible_v<SigShare, Signature>);

// The fields size_bits prices for each kind, besides the header's kind,
// slot and epoch.
enum Field : unsigned {
  kHasCert = 1u << 0,
  kAccused = 1u << 1,
  kValue = 1u << 2,
  kCertEpoch = 1u << 3,
  kCertSig = 1u << 4,
  kProofSig = 1u << 5,
  kShare = 1u << 6,
  kLeaderSig = 1u << 7,
};

unsigned priced_fields(Kind k) {
  switch (k) {
    case Kind::kCollect:
      return kHasCert | kValue | kCertEpoch | kCertSig;
    case Kind::kPropose:
    case Kind::kPropForward:
      return kHasCert | kValue | kCertEpoch | kCertSig | kLeaderSig;
    case Kind::kVote:
    case Kind::kCertVote:
      return kValue | kShare;
    case Kind::kCert:
    case Kind::kCertForward:
      return kValue | kCertSig;
    case Kind::kCommitProof:
      return kCertEpoch | kValue | kProofSig;
    case Kind::kAccuse:
    case Kind::kAccuseForward:
      return kAccused | kShare;
    case Kind::kCorruptProof:
      return kAccused | kProofSig;
    case Kind::kQuery1:
    case Kind::kQuery2:
      return 0;
    case Kind::kKindCount:
      break;
  }
  ADD_FAILURE() << "kind " << static_cast<int>(k) << " has no field list";
  return 0;
}

Digest filled(std::uint8_t b) {
  Digest d;
  d.fill(b);
  return d;
}

// Every field of every kind survives a trip through a traffic record: no
// two fields one kind carries share storage.
TEST(Linear, EveryPricedFieldSurvivesATrafficRecord) {
  constexpr Slot kSlot = 0x51075107;
  constexpr Epoch kEpoch = 0xE90C;
  constexpr NodeId kAccusedNode = 0x0ACC05ED;
  constexpr Value kVal = 0x7A1E7A1E7A1E7A1EULL;
  constexpr Epoch kCertEpochVal = 0xCE47;
  const SigShare kShareVal{0x5A4E, filled(0xD3)};
  const Signature kSigVal{0x0516, filled(0xE4)};
  for (MsgKind raw = 0; raw < static_cast<MsgKind>(Kind::kKindCount);
       ++raw) {
    const Kind kind = static_cast<Kind>(raw);
    const unsigned fields = priced_fields(kind);
    SCOPED_TRACE(kind_name(kind));
    Msg m;
    m.kind = kind;
    m.slot = kSlot;
    m.epoch = kEpoch;
    if (fields & kHasCert) m.has_cert = true;
    if (fields & kAccused) m.accused = kAccusedNode;
    if (fields & kValue) m.value = kVal;
    if (fields & kCertEpoch) m.cert_epoch = kCertEpochVal;
    if (fields & kCertSig) m.cert.mac = filled(0xC1);
    if (fields & kProofSig) m.proof.mac = filled(0xB2);
    if (fields & kShare) m.share = kShareVal;
    if (fields & kLeaderSig) m.sig = kSigVal;

    TrafficLog<Msg> log;
    log.reset(4);
    log.add_unicast(1, 2, m);
    ASSERT_EQ(log.records().size(), 1u);
    const Msg& got = log.records()[0].msg;
    EXPECT_EQ(got.kind, kind);
    EXPECT_EQ(got.slot, kSlot);
    EXPECT_EQ(got.epoch, kEpoch);
    if (fields & kHasCert) {
      EXPECT_TRUE(got.has_cert);
    }
    if (fields & kAccused) {
      EXPECT_EQ(got.accused, kAccusedNode);
    }
    if (fields & kValue) {
      EXPECT_EQ(got.value, kVal);
    }
    if (fields & kCertEpoch) {
      EXPECT_EQ(got.cert_epoch, kCertEpochVal);
    }
    if (fields & kCertSig) {
      EXPECT_EQ(got.cert.mac, filled(0xC1));
    }
    if (fields & kProofSig) {
      EXPECT_EQ(got.proof.mac, filled(0xB2));
    }
    if (fields & kShare) {
      EXPECT_EQ(got.share, kShareVal);
    }
    if (fields & kLeaderSig) {
      EXPECT_EQ(got.sig, kSigVal);
    }
  }
}

TEST(Linear, KindNamesCoverAllKinds) {
  auto names = kind_names();
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(Kind::kKindCount));
  for (const auto& n : names) EXPECT_NE(n, "?");
}

}  // namespace
}  // namespace ambb::linear
