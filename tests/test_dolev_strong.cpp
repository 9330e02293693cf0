#include "bb/dolev_strong.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace ambb::ds {
namespace {

DsConfig base_cfg(std::uint32_t n, std::uint32_t f, Slot slots,
                  std::uint64_t seed, const std::string& adv, bool msig) {
  DsConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.slots = slots;
  cfg.seed = seed;
  cfg.adversary = adv;
  cfg.use_multisig = msig;
  return cfg;
}

using Param = std::tuple<std::uint32_t, std::uint32_t, std::string,
                         bool /*msig*/, std::uint64_t>;

class DsProperties : public ::testing::TestWithParam<Param> {};

TEST_P(DsProperties, ConsistencyTerminationValidity) {
  const auto& [n, f, adv, msig, seed] = GetParam();
  auto r = run_dolev_strong(base_cfg(n, f, n + 2, seed, adv, msig));
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(
    AdversarySweep, DsProperties,
    ::testing::Combine(
        ::testing::Values(6u, 10u), ::testing::Values(4u),
        ::testing::Values("none", "silent", "equivocate", "stagger"),
        ::testing::Bool(), ::testing::Values(1u, 5u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<2>(info.param) +
             (std::get<3>(info.param) ? "_msig" : "_plain") + "_s" +
             std::to_string(std::get<4>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    DishonestMajority, DsProperties,
    ::testing::Combine(::testing::Values(7u), ::testing::Values(5u, 6u),
                       ::testing::Values("silent", "stagger"),
                       ::testing::Values(false), ::testing::Values(3u)),
    [](const auto& info) {
      return "f" + std::to_string(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param);
    });

TEST(DolevStrong, StaggerForcesBotButConsistently) {
  auto r = run_dolev_strong(base_cfg(8, 4, 8, 3, "stagger", false));
  ASSERT_TRUE(check_all(r).empty());
  bool saw_bot = false;
  for (Slot k = 1; k <= 8; ++k) {
    if (!r.corrupt[r.senders[k]]) continue;
    for (NodeId u = 4; u < 8; ++u) {
      if (r.commits.get(u, k).value == kBotValue) saw_bot = true;
    }
  }
  EXPECT_TRUE(saw_bot) << "the stagger attack never forced a bot commit";
}

TEST(DolevStrong, MultisigStrictlyCheaperThanPlainChains) {
  auto plain = run_dolev_strong(base_cfg(12, 8, 6, 3, "none", false));
  auto msig = run_dolev_strong(base_cfg(12, 8, 6, 3, "none", true));
  ASSERT_TRUE(check_all(plain).empty());
  ASSERT_TRUE(check_all(msig).empty());
  EXPECT_LT(msig.honest_bits, plain.honest_bits);
}

TEST(DolevStrong, NoAmortizationAcrossSlots) {
  // Dolev-Strong has no cross-slot state: per-slot cost is flat.
  auto r = run_dolev_strong(base_cfg(8, 5, 17, 3, "none", false));
  ASSERT_TRUE(check_all(r).empty());
  EXPECT_NEAR(static_cast<double>(r.per_slot_bits[2]),
              static_cast<double>(r.per_slot_bits[10]),
              0.25 * static_cast<double>(r.per_slot_bits[2]));
}

TEST(DolevStrong, ChainValidationRejectsForgeries) {
  KeyRegistry reg(4, 1);
  MultiSigScheme msig(reg);
  Context ctx;
  ctx.n = 4;
  ctx.f = 2;
  ctx.registry = &reg;
  ctx.msig = &msig;
  ctx.wire = WireModel{4, 256, 256};

  const Slot k = 1;
  const Value v = 99;
  const Digest d = relay_digest(k, v);

  Msg m;
  m.kind = Kind::kRelay;
  m.slot = k;
  m.value = v;
  m.chain.push_back(reg.sign(0, d));
  m.chain.push_back(reg.sign(1, d));
  m.agg = msig.extend(msig.extend(msig.empty(), 0, d), 1, d);

  // White-box check through size accounting only; the acceptance logic is
  // covered end-to-end by the property sweeps. Here: the size model the
  // simulator charges, through the same CostPolicy run_dolev_strong uses.
  CostPolicy chain{ctx.wire, ctx.sched, /*use_multisig=*/false};
  EXPECT_EQ(chain.size_bits(m),
            ctx.wire.header_bits() + 256 + 2 * ctx.wire.sig_bits());
  CostPolicy agg{ctx.wire, ctx.sched, /*use_multisig=*/true};
  EXPECT_EQ(agg.size_bits(m),
            ctx.wire.header_bits() + 256 + ctx.wire.multisig_bits());
}

TEST(DolevStrong, HonestSenderAlwaysDeliversInput) {
  DsConfig cfg = base_cfg(9, 6, 9, 11, "silent", false);
  cfg.input_for_slot = [](Slot k) { return Value{500 + k}; };
  auto r = run_dolev_strong(cfg);
  ASSERT_TRUE(check_all(r).empty());
  for (Slot k = 1; k <= 9; ++k) {
    if (r.corrupt[r.senders[k]]) continue;
    for (NodeId u = 6; u < 9; ++u) {
      EXPECT_EQ(r.commits.get(u, k).value, Value{500 + k});
    }
  }
}

}  // namespace
}  // namespace ambb::ds
