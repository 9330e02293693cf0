// Differential test of idle-round elision (DESIGN.md §17) for Algorithm
// 5.2, the quadratic family.
//
// Every configuration below runs twice through the public
// quadratic_bb.hpp API: once as shipped (QuadNode, the Silent deviation
// and the ScheduledAdversary declare next_wake, so the simulator skips
// quiescent actors and rounds), and once with every actor and the
// adversary wrapped in the always-awake reference of always_awake.hpp,
// which also audits the wake contract. The two runs must agree on every
// measured bit: ledger totals, per-slot and per-kind bits, commit logs,
// corrupt flags, every RoundStats counter (ns_* excepted), the JSONL
// trace byte for byte, and the traffic buffers' reserved bytes. The
// unwrapped copy must also match the "quadratic" registry row, except on
// the "forge" row, whose forged signatures no registry adversary sends.
//
// The same grid also tests repeat elision (DESIGN.md §19): under lockstep
// honest readers of the shared multicast stream skip exact repeats, while
// bounded:0, pinned bit-identical to lockstep, takes the timing path and
// never elides. Each row must agree on every measured bit between the two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "adversary/scheduled.hpp"
#include "bb/quadratic_bb.hpp"
#include "crypto/signer.hpp"
#include "runner/drive.hpp"
#include "runner/registry.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

#include "always_awake.hpp"

namespace ambb::quad {
namespace {

using idle_skip::Audit;
using idle_skip::expect_same;
using idle_skip::Outcome;
using AlwaysAwake = idle_skip::AlwaysAwake<Msg>;
using AlwaysAwakeAdversary = idle_skip::AlwaysAwakeAdversary<Msg>;

struct Params {
  std::uint32_t n = 12;
  std::uint32_t f = 7;
  /// 14 slots: every node sends once, and the first two (corrupt under
  /// the named adversaries) send again after they were proven corrupt.
  Slot slots = 14;
  std::string adversary;
  std::string net = "lockstep";
  std::uint64_t seed = 1;
};

/// The registry parameters of `p`.
CommonParams common(const Params& p) {
  CommonParams c;
  c.n = p.n;
  c.f = p.f;
  c.slots = p.slots;
  c.seed = p.seed;
  c.adversary = p.adversary;
  c.net = p.net;
  return c;
}

/// Grid row of the test-local forging adversary below. The registry has
/// no such adversary, so this row is compared only with its reference.
constexpr const char* kForge = "forge";

/// Byzantine node that runs the honest logic except that, as a sender,
/// it proposes nothing, so honest nodes accuse it, remove it and vote it
/// corrupt. In TrustCast round 2 of every slot it also multicasts one
/// message whose signature does not verify: by turns an accusation, a
/// corrupt vote against the slot's sender and a proposal from that
/// sender with a value nobody holds. In round 1 every node either
/// forwarded the proposal or accused the silent sender, so the forged
/// records take indices that held valid records a round earlier: a
/// verdict cached past its round (RecordVerdicts) or keyed on the wrong
/// record turns into an accepted forgery or a dropped message, which the
/// per-recipient reference never makes. Quiet rounds stay elidable, as
/// the grid requires.
class ForgeDev final : public Deviation {
 public:
  bool override_send(QuadNode&, RoundApi<Msg>&) override { return true; }
  void extra(QuadNode& self, Round r, std::uint32_t offset,
             RoundApi<Msg>& api) override {
    if (offset != kForgeOffset) return;
    const Context& ctx = self.ctx();
    const Slot k = ctx.sched.slot_of(r);
    const NodeId sender = ctx.sender_of(k);
    Msg m;
    m.slot = k;
    switch ((self.id() + k) % 3) {
      case 0:
        m.kind = Kind::kAccuse;
        m.accused = (self.id() + 1 + k % (ctx.n - 1)) % ctx.n;
        m.sig = ctx.registry->sign(self.id(), accuse_digest(m.accused));
        break;
      case 1:
        m.kind = Kind::kCorrupt;
        m.accused = sender;
        m.sig = ctx.registry->sign(self.id(), corrupt_digest(sender));
        break;
      default:
        m.kind = Kind::kProp;
        m.value = ctx.input_for_slot(k) ^ 0xF0F0;
        m.sig = ctx.registry->sign(sender, prop_digest(k, m.value));
        break;
    }
    m.sig.mac[0] ^= 0x5A;
    api.multicast(m);
  }
  Round next_wake(const QuadNode& self, Round r,
                  Round honest) const override {
    const Round slot = self.ctx().sched.rounds_per_slot();
    const Round next = r / slot * slot + kForgeOffset;
    return std::min(honest, next > r ? next : next + slot);
  }

 private:
  static constexpr std::uint32_t kForgeOffset = 2;
};

/// The first f nodes run ForgeDev from round 0.
std::unique_ptr<Adversary<Msg>> make_forger(const Context* ctx,
                                            std::uint64_t seed) {
  adversary::FaultSchedule s;
  for (NodeId v = 0; v < ctx->f; ++v) {
    s.corruptions.push_back(adversary::CorruptEvent{0, v});
  }
  return std::make_unique<adversary::ScheduledAdversary<Msg>>(
      std::move(s), ctx->n, seed, nullptr, [ctx](NodeId v) {
        return std::make_unique<QuadNode>(v, ctx, std::make_unique<ForgeDev>());
      });
}

/// run_quadratic's setup and round loop, with an optional AlwaysAwake
/// wrapping of every actor and of the adversary (`audit` != nullptr).
Outcome run(const Params& p, Audit* audit) {
  KeyRegistry registry(p.n, p.seed);
  std::ostringstream jsonl;
  trace::JsonlSink sink(jsonl);
  RunConfig core;
  core.n = p.n;
  core.f = p.f;
  core.slots = p.slots;
  core.seed = p.seed;
  core.adversary = p.adversary;
  core.net = p.net;
  core.trace = &sink;
  RunState st(core, kind_names());

  Context ctx;
  ctx.n = p.n;
  ctx.f = p.f;
  ctx.wire = WireModel{p.n, kDefaultKappaBits, kDefaultValueBits};
  ctx.sched = Schedule{p.n, p.f};
  ctx.registry = &registry;
  ctx.commits = &st.commits;
  ctx.input_for_slot = st.input_for_slot;
  ctx.sender_of = st.sender_of;
  ctx.trace = &sink;

  Sim sim(p.n, p.f, &st.ledger, CostPolicy{ctx.wire, ctx.sched});
  for (NodeId v = 0; v < p.n; ++v) {
    std::unique_ptr<Actor<Msg>> a = std::make_unique<QuadNode>(v, &ctx);
    if (audit != nullptr) {
      a = std::make_unique<AlwaysAwake>(v, p.n, std::move(a), audit);
    }
    sim.set_actor(v, std::move(a));
  }
  const std::uint64_t total_rounds =
      std::uint64_t{p.slots} * ctx.sched.rounds_per_slot();
  const NetPolicy net = make_net_policy(p.net, p.seed);
  std::unique_ptr<Adversary<Msg>> adversary = select_adversary<Msg>(
      core, kAdversarySalt, total_rounds, net,
      [&ctx](NodeId v) {
        return std::make_unique<QuadNode>(v, &ctx,
                                          std::make_unique<Deviation>());
      },
      [&ctx](const std::string& spec, std::uint64_t seed) {
        return spec == kForge ? make_forger(&ctx, seed)
                              : make_quad_adversary(spec, &ctx, seed);
      });
  if (audit != nullptr && adversary != nullptr) {
    adversary = std::make_unique<AlwaysAwakeAdversary>(
        p.n, std::move(adversary), audit);
  }
  SimConfig<Msg> sc;
  sc.trace = &sink;
  sc.net = net;
  sc.adversary = adversary.get();
  sim.configure(sc);

  for (std::uint64_t i = 0; i < total_rounds; ++i) {
    const std::uint32_t off = ctx.sched.offset_of(i);
    trace::Event ev;
    ev.round = i;
    ev.slot = ctx.sched.slot_of(i);
    if (off == 0) {
      ev.kind = trace::EventKind::kSlotStart;
      ev.node = ctx.sender_of(ev.slot);
      sink.on_event(ev);
      ev.kind = trace::EventKind::kEpochPhase;
      ev.detail = "propose";
      sink.on_event(ev);
    } else if (off == 1 || off == p.n + 1) {
      ev.kind = trace::EventKind::kEpochPhase;
      ev.detail = off == 1 ? "trustcast" : "dolev-strong";
      sink.on_event(ev);
    }
    sim.step();
  }

  Outcome o;
  o.honest_bits = st.ledger.honest_bits_total();
  o.adversary_bits = st.ledger.adversary_bits_total();
  o.per_slot = st.ledger.per_slot();
  o.per_kind = st.ledger.per_kind();
  o.commits = idle_skip::commit_rows(st.commits, p.n, p.slots);
  for (NodeId v = 0; v < p.n; ++v) o.corrupt.push_back(sim.is_corrupt(v));
  o.rounds = sim.take_round_stats();
  o.elided_rounds = sim.elided_rounds();
  o.jsonl = jsonl.str();
  o.traffic_bytes = sim.traffic_reserved_bytes();
  return o;
}

/// A schedule that wakes the sleeping adversary mid-stretch (a slot is
/// 22 rounds at n=12 f=7): node 8 is corrupted at the end of round 9 and
/// its round-10 traffic erased, both inside slot 1's quiet stretch after
/// every node holds the proposal; node 1, the slot-2 sender, is corrupted
/// right after its round-22 proposal, whose copies to odd nodes are
/// erased, so they accuse it and the Dolev-Strong phase runs. Off
/// lockstep, timing faults ride along: node 3's slot-4 proposal arrives
/// a round late.
std::string sched_spec(const std::string& net) {
  std::string s = "sched:corrupt(10,8);erase(10,8);corrupt(23,1);"
                  "erase(22,1,1000,2,1)";
  if (net != "lockstep") s += ";delay(3,60,130,1);reorder(5,0,*)";
  return s;
}

class IdleSkipQuad
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(IdleSkipQuad, ElisionMatchesAlwaysAwakeReference) {
  const auto& [adv, net] = GetParam();
  Audit audit;
  for (std::uint64_t seed : {1u, 2u}) {
    Params p;
    p.adversary = adv == "sched" ? sched_spec(net) : adv;
    p.net = net;
    p.seed = seed;
    SCOPED_TRACE(p.adversary + " / " + net + " / seed " +
                 std::to_string(seed));
    const Outcome ref = run(p, &audit);
    const Outcome got = run(p, nullptr);
    expect_same(got, ref);
    if (adv == kForge) continue;
    Outcome prod = idle_skip::production_outcome("quadratic", common(p));
    prod.traffic_bytes = got.traffic_bytes;
    expect_same(got, prod);
  }
  EXPECT_GT(audit.sleeping_calls, 0u) << "no call was ever elidable";
}

class RepeatElisionQuad : public ::testing::TestWithParam<std::string> {};

TEST_P(RepeatElisionQuad, LockStepMatchesBoundedZero) {
  const std::string& adv = GetParam();
  for (std::uint64_t seed : {1u, 2u}) {
    Params p;
    // The lock-step schedule: its timing faults would be traced off it.
    p.adversary = adv == "sched" ? sched_spec("lockstep") : adv;
    p.seed = seed;
    SCOPED_TRACE(p.adversary + " / seed " + std::to_string(seed));
    const RepeatIndex::Stats before = RepeatIndex::stats();
    const Outcome got = run(p, nullptr);
    const RepeatIndex::Stats after = RepeatIndex::stats();
    p.net = "bounded:0";
    Outcome ref = run(p, nullptr);
    EXPECT_EQ(RepeatIndex::stats().multicasts, after.multicasts)
        << "the timing path looked for repeats";
    // Every row has repeats: at least the proposal's or an accusation's
    // forwards.
    EXPECT_GT(after.repeats - before.repeats, 0u);
    // The timing path holds other buffers.
    ref.traffic_bytes = got.traffic_bytes;
    expect_same(got, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RepeatElisionQuad,
    ::testing::Values("none", "silent", "equivocate", "conspiracy",
                      "lateprop", "floodaccuse", "framer", "fuzz", "fuzz:1",
                      "fuzz:2", "fuzz:3", "sched", kForge),
    [](const auto& info) {
      std::string s = info.param;
      for (char& c : s) {
        if (c == '-' || c == ':') c = '_';
      }
      return s;
    });

TEST(IdleSkipQuad, TwoWordGraphsMatchTheReference) {
  // n = 66 puts the trust-graph rows across a 64-bit word boundary while
  // the silent coalition's first slots drive the accusation flood; the
  // silent nodes never wake, so the quiet rounds take the O(1) path.
  Params p;
  p.n = 66;
  p.f = 33;
  p.slots = 3;
  p.adversary = "silent";
  Audit audit;
  const Outcome ref = run(p, &audit);
  const Outcome got = run(p, nullptr);
  expect_same(got, ref);
  EXPECT_GT(audit.sleeping_calls, 0u);
  EXPECT_GT(got.constant_time_rounds(), 0u);
}

TEST(IdleSkipQuad, QuietStretchesTakeTheConstantTimePath) {
  // With honest senders every node holds the proposal after TrustCast
  // round 1 and nobody is due again before the commit round: most rounds
  // must take the O(1) path, which keeps no row and only counts them.
  Params p;
  p.adversary = "none";
  const Outcome o = run(p, nullptr);
  EXPECT_GT(o.constant_time_rounds(), o.rounds.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IdleSkipQuad,
    ::testing::Combine(
        ::testing::Values("none", "silent", "equivocate", "conspiracy",
                          "lateprop", "floodaccuse", "framer", "fuzz",
                          "fuzz:1", "fuzz:2", "fuzz:3", "sched", kForge),
        ::testing::Values("lockstep", "bounded:2", "async:4")),
    [](const auto& info) {
      std::string s = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : s) {
        if (c == '-' || c == ':') c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace ambb::quad
