#include "bb/dolev_strong.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

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

TEST(DolevStrong, SizeModelChargesChainOrAggregate) {
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

  // The size model the simulator charges, through the same CostPolicy
  // run_dolev_strong uses; chain acceptance is ChainCheck below.
  CostPolicy chain{ctx.wire, ctx.sched, /*use_multisig=*/false};
  EXPECT_EQ(chain.size_bits(m),
            ctx.wire.header_bits() + 256 + 2 * ctx.wire.sig_bits());
  CostPolicy agg{ctx.wire, ctx.sched, /*use_multisig=*/true};
  EXPECT_EQ(agg.size_bits(m),
            ctx.wire.header_bits() + 256 + ctx.wire.multisig_bits());
}

/// One DsNode (node 2 of n = 4, f = 2, sender 0) fed a hand-built inbox
/// in round 1 of slot 1, where one valid signature, the sender's, makes a
/// chain strong enough; rounds 2 and 3 run it to its commit.
struct ChainProbe {
  static constexpr Slot kSlot = 1;
  static constexpr Value kValue = 99;

  explicit ChainProbe(bool use_multisig) {
    ctx.n = 4;
    ctx.f = 2;
    ctx.use_multisig = use_multisig;
    ctx.wire = WireModel{4, 256, 256};
    ctx.sched = Schedule{2};
    ctx.registry = &reg;
    ctx.msig = &msig;
    ctx.commits = &commits;
    ctx.input_for_slot = [](Slot) { return kValue; };
    ctx.sender_of = [](Slot) { return NodeId{0}; };
  }

  Digest digest() const { return relay_digest(kSlot, kValue); }

  /// A relay of kValue whose chain and aggregate carry these signers'
  /// valid signatures.
  Msg relay(std::initializer_list<NodeId> signers) const {
    Msg m;
    m.slot = kSlot;
    m.value = kValue;
    m.agg = msig.empty();
    for (NodeId s : signers) {
      m.chain.push_back(reg.sign(s, digest()));
      m.agg = msig.extend(m.agg, s, digest());
    }
    return m;
  }

  struct Outcome {
    std::size_t relays = 0;  ///< records node 2 sent in round 1
    Value committed = 0;
  };

  /// Deliver `m` from node 1 in round 1 to a fresh node 2, then run
  /// rounds 2 and 3.
  Outcome feed(const Msg& m) {
    commits = CommitLog(ctx.n);
    DsNode node(2, &ctx);
    Outcome o;
    for (Round r = 1; r <= 3; ++r) {
      const Delivery<Msg> inbox[] = {{1, kNoRecord, &m}};
      TrafficLog<Msg> out;
      RoundApi<Msg> api(2, ctx.n, &out);
      node.on_round(r, r == 1 ? std::span(inbox) : std::span(inbox, 0),
                    TrafficView<Msg>{}, api);
      if (r == 1) o.relays = out.records().size();
    }
    o.committed = commits.get(2, kSlot).value;
    return o;
  }

  KeyRegistry reg{4, 1};
  MultiSigScheme msig{reg};
  CommitLog commits{4};
  Context ctx;
};

/// `p` extends and commits a valid one-signature relay, and neither
/// extends nor extracts any of `forged`.
void expect_only_valid_extracted(
    ChainProbe& p, const std::vector<std::pair<const char*, Msg>>& forged) {
  const auto ok = p.feed(p.relay({0}));
  EXPECT_EQ(ok.relays, 1u) << "a valid relay must be extended";
  EXPECT_EQ(ok.committed, ChainProbe::kValue);
  for (const auto& [what, m] : forged) {
    SCOPED_TRACE(what);
    const auto o = p.feed(m);
    EXPECT_EQ(o.relays, 0u);
    EXPECT_EQ(o.committed, kBotValue);
  }
}

TEST(DolevStrong, ChainCheckRejectsTamperedAndForeignSignatures) {
  ChainProbe p(false);
  Msg tampered = p.relay({0});
  tampered.chain[0].mac[0] ^= 0x5A;
  Msg foreign = p.relay({1});
  foreign.chain[0].signer = 0;  // node 1's MAC passed off as the sender's
  Msg tail = p.relay({0, 3});
  tail.chain[1].mac[0] ^= 0x5A;
  expect_only_valid_extracted(p, {{"tampered sender signature", tampered},
                                  {"foreign signature", foreign},
                                  {"tampered second signature", tail}});
}

TEST(DolevStrong, MultisigChainCheckRejectsTamperedAndForeignAggregates) {
  ChainProbe p(true);
  Msg tampered = p.relay({0});
  tampered.agg.agg[0] ^= 0x5A;
  Msg foreign = p.relay({1});
  foreign.agg.signers = BitVec(4);
  foreign.agg.signers.set(0);  // node 1's piece passed off as the sender's
  expect_only_valid_extracted(p, {{"tampered aggregate", tampered},
                                  {"foreign aggregate", foreign}});
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
