// Differential test of idle-round elision (DESIGN.md §17) for Algorithm 4.
//
// Every Alg-4 configuration below runs twice through the public
// linear_bb.hpp / linear_adversary.hpp API: once as shipped (LinearNode,
// its Deviations and the ScheduledAdversary declare next_wake, so the
// simulator skips quiescent actors and rounds), and once with every
// actor and the adversary wrapped in the always-awake reference of
// always_awake.hpp, which also audits the wake contract. The two runs
// must agree on every measured bit: ledger totals, per-slot and per-kind
// bits, commit logs, corrupt flags, every RoundStats counter (ns_*
// excepted), the JSONL trace byte for byte, and the traffic buffers'
// reserved bytes (which pins that the O(1) path keeps the log swap). The
// unwrapped copy must also match the registry row it mirrors, except on
// the "forge" row, whose forged records no registry adversary sends; that
// row must keep consistency and validity instead (and termination under
// lock-step), since a check deleted outright accepts a forgery in both
// runs alike. After every round of the unwrapped run, the accusation
// share table must hold only valid shares, one for each pair a node
// accepted (tests/share_table.hpp): the forge row's forged shares must
// never land there.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adversary/scheduled.hpp"
#include "bb/linear_adversary.hpp"
#include "bb/linear_bb.hpp"
#include "crypto/signer.hpp"
#include "crypto/threshold.hpp"
#include "graph/expander.hpp"
#include "runner/drive.hpp"
#include "runner/registry.hpp"
#include "runner/result.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

#include "always_awake.hpp"
#include "share_table.hpp"

namespace ambb::linear {
namespace {

// At n = 12 the busy rounds differ enough in record count that each
// traffic log's capacity depends on which rounds it gets, so a quiescent
// path that dropped the log swap would change the reserved bytes.
constexpr std::uint32_t kN = 12;
constexpr std::uint32_t kF = 3;
constexpr Slot kSlots = 5;
constexpr double kEps = 0.1;

using idle_skip::Audit;
using idle_skip::Outcome;
using AlwaysAwake = idle_skip::AlwaysAwake<Msg>;
using AlwaysAwakeAdversary = idle_skip::AlwaysAwakeAdversary<Msg>;

struct Params {
  std::string adversary;
  std::string net;
  Options opts;
  std::uint64_t seed = 1;
};

/// The registry parameters of `p`.
CommonParams common(const Params& p) {
  CommonParams c;
  c.n = kN;
  c.f = kF;
  c.slots = kSlots;
  c.seed = p.seed;
  c.eps = kEps;
  c.adversary = p.adversary;
  c.net = p.net;
  return c;
}

/// Grid row of the test-local forging adversary below. The registry has
/// no such adversary, so this row is compared only with its reference.
constexpr const char* kForge = "forge";

/// The threshold signature of `d` combined from the first n - f nodes'
/// shares: the one valid signature on `d`, whoever combined it.
ThresholdSig combined(const Context& ctx, const Digest& d) {
  std::vector<SigShare> shares;
  for (NodeId v = 0; v < ctx.n - ctx.f; ++v) {
    shares.push_back(ctx.th->share(v, d));
  }
  return ctx.th->combine(shares, d);
}

/// Byzantine node that sends none of its honest traffic, so its epochs as
/// leader fail and honest nodes accuse it with valid shares. It also
/// forges, in six rounds of every epoch:
///   - in the first (Collect), it multicasts an accusation whose share
///     does not verify;
///   - in Propose, from slot 2 on, it multicasts a valid commit-proof of
///     the previous slot's value (a no-op at a node that committed that
///     slot), and in Propagate-1 a commit-proof of this slot and epoch
///     for 0xF0F0 that does not verify;
///   - in Vote, once it has seen its own corrupt-proof, it multicasts
///     that valid proof (news to a node that forgets corrupt-proofs
///     between slots), and in Certificate a corrupt-proof that does not
///     verify, of the last epoch's leader, the first honest one;
///   - in Respond-1, it sends every node a kPropForward and a
///     kCertForward group record (DESIGN.md §22) that pass every
///     recipient-side check (slot, epoch, leader as signer) but whose
///     signature or certificate does not verify. They land in Query-2,
///     at the first record indices, which valid Query-1 accusations of
///     the epoch's failed leader took one round earlier whenever it was
///     accused afresh; the two kinds swap places from one forger to the
///     next, so each meets such an index.
/// Each forged proof passes every recipient-side check too, and in an
/// epoch whose leader sends nothing it lands at the record index where
/// this forger's valid proof of the same kind lay one round earlier.
/// A verdict cached past its round (RecordVerdicts) or keyed on the wrong
/// record turns into an accepted forgery, which plants a bad certificate
/// in the next Collect, commits 0xF0F0 or gates an honest leader's epoch,
/// or into a dropped accusation; the per-recipient reference makes none
/// of these. Quiet rounds stay elidable, as the grid requires.
class ForgeDev final : public Deviation {
 public:
  bool drop_send(Round, std::uint32_t, Kind, NodeId) override {
    return true;
  }
  void extra(LinearNode& self, Round r, std::uint32_t offset,
             RoundApi<Msg>& api) override {
    const Context& ctx = self.ctx();
    const Slot k = ctx.sched.slot_of(r);
    const Epoch i = ctx.sched.epoch_of(r);
    convicted_ = convicted_ || self.has_corrupt_proof(self.id());
    if (offset == kValidCommitOffset || offset == kForgedCommitOffset) {
      if (k < 2 || !ctx.commits->has(self.id(), k - 1)) return;
      const CommitRecord& c = ctx.commits->get(self.id(), k - 1);
      Msg m;
      m.kind = Kind::kCommitProof;
      if (offset == kValidCommitOffset) {
        m.slot = k - 1;
        m.epoch = m.cert_epoch = ctx.sched.epoch_of(c.round);
        m.value = c.value;
        m.proof = combined(ctx, commit_digest(m.slot, m.epoch, m.value));
      } else {
        m.slot = k;
        m.epoch = m.cert_epoch = i;
        m.value = 0xF0F0;
        m.proof.mac[0] = 0x5A;
      }
      api.multicast(m);
      return;
    }
    if (offset == kValidCorruptOffset || offset == kForgedCorruptOffset) {
      if (!convicted_) return;
      Msg m;
      m.kind = Kind::kCorruptProof;
      m.slot = k;
      if (offset == kValidCorruptOffset) {
        m.accused = self.id();
        m.proof = combined(ctx, accuse_digest(m.accused));
      } else {
        m.accused = ctx.leader(k, ctx.sched.epochs_per_slot() - 1);
        m.proof.mac[0] = 0x5A;
      }
      api.multicast(m);
      return;
    }
    if (offset == kAccuseOffset) {
      Msg m;
      m.kind = Kind::kAccuse;
      m.slot = k;
      m.accused =
          (self.id() + 1 + static_cast<NodeId>(r % (ctx.n - 1))) % ctx.n;
      m.share = ctx.th->share(self.id(), accuse_digest(m.accused));
      m.share.mac[0] ^= 0x5A;
      api.multicast(m);
      return;
    }
    if (offset != kForwardOffset) return;
    const NodeId leader = ctx.leader(k, i);
    // A proposal carrying a certificate that would become the freshest.
    Msg prop;
    prop.kind = Kind::kPropForward;
    prop.slot = k;
    prop.epoch = i;
    prop.value = 0xF0F0;
    prop.has_cert = true;
    prop.cert_epoch = 0;
    prop.cert.mac[0] = 0x5A;
    // As the leader it signs for real, so only the certificate is bad;
    // otherwise the signature names the leader and does not verify.
    prop.sig = ctx.registry->sign(self.id(), prop_digest(prop));
    prop.sig.signer = leader;
    Msg cert;
    cert.kind = Kind::kCertForward;
    cert.slot = k;
    cert.epoch = i;
    cert.value = 0xF0F0;
    cert.cert.mac[0] = 0x5A;
    const bool prop_first = self.id() % 2 == 0;
    api.send_group(ctx.nodes, prop_first ? prop : cert);
    api.send_group(ctx.nodes, prop_first ? cert : prop);
  }
  Round next_wake(const LinearNode&, Round r, Round) const override {
    const Round epoch = Schedule::kRoundsPerEpoch;
    const Round start = r / epoch * epoch;
    for (std::uint32_t offset : kOffsets) {
      if (start + offset > r) return start + offset;
    }
    return start + epoch + kOffsets[0];
  }

 private:
  static constexpr std::uint32_t kAccuseOffset = 0;
  static constexpr std::uint32_t kValidCommitOffset = 1;    ///< Propose
  static constexpr std::uint32_t kForgedCommitOffset = 2;   ///< Propagate-1
  static constexpr std::uint32_t kValidCorruptOffset = 3;   ///< Vote
  static constexpr std::uint32_t kForgedCorruptOffset = 4;  ///< Certificate
  static constexpr std::uint32_t kForwardOffset = 8;        ///< Respond-1
  static constexpr std::uint32_t kOffsets[] = {
      kAccuseOffset,       kValidCommitOffset,   kForgedCommitOffset,
      kValidCorruptOffset, kForgedCorruptOffset, kForwardOffset};

  /// This node has seen its own corrupt-proof, in this slot or before.
  bool convicted_ = false;
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
        return std::make_unique<LinearNode>(v, ctx,
                                            std::make_unique<ForgeDev>());
      });
}

/// run_linear's setup and round loop, with an optional AlwaysAwake
/// wrapping of every actor and of the adversary (`audit` != nullptr).
/// `violations`, if set, receives the run's broken BB properties:
/// consistency and validity, and termination under lock-step.
Outcome run(const Params& p, Audit* audit,
            std::vector<std::string>* violations = nullptr) {
  KeyRegistry registry(kN, p.seed);
  ThresholdScheme th(registry, kN - kF);
  Graph expander = build_expander(kN, kEps, p.seed ^ 0xE0A11DE5ULL);
  std::ostringstream jsonl;
  trace::JsonlSink sink(jsonl);
  RunConfig core;
  core.n = kN;
  core.f = kF;
  core.slots = kSlots;
  core.seed = p.seed;
  core.adversary = p.adversary;
  core.net = p.net;
  core.trace = &sink;
  RunState st(core, kind_names(), 0x17057EEDULL);
  st.ledger.reserve_slots(kSlots + 1);

  const Context ctx = make_context(core, st, p.opts, registry, th, expander);

  Sim sim(kN, kF, &st.ledger, CostPolicy{ctx.wire, ctx.sched});
  for (NodeId v = 0; v < kN; ++v) {
    std::unique_ptr<Actor<Msg>> a = std::make_unique<LinearNode>(v, &ctx);
    if (audit != nullptr) {
      a = std::make_unique<AlwaysAwake>(v, kN, std::move(a), audit);
    }
    sim.set_actor(v, std::move(a));
  }
  const std::uint64_t total_rounds = kSlots * ctx.sched.rounds_per_slot();
  const NetPolicy net = make_net_policy(p.net, p.seed);
  std::unique_ptr<Adversary<Msg>> adversary = select_adversary<Msg>(
      core, kAdversarySalt, total_rounds, net,
      [&ctx](NodeId v) {
        return std::make_unique<LinearNode>(v, &ctx,
                                            std::make_unique<Deviation>());
      },
      [&ctx](const std::string& spec, std::uint64_t seed) {
        return spec == kForge ? make_forger(&ctx, seed)
                              : make_adversary(spec, &ctx, seed);
      });
  if (audit != nullptr && adversary != nullptr) {
    adversary = std::make_unique<AlwaysAwakeAdversary>(
        kN, std::move(adversary), audit);
  }
  SimConfig<Msg> sc;
  sc.trace = &sink;
  sc.net = net;
  sc.adversary = adversary.get();
  sim.configure(sc);

  // The unwrapped run's nodes are visible, so it checks the share table
  // after every round (tests/share_table.hpp).
  bool check_shares = audit == nullptr;
  for (std::uint64_t i = 0; i < total_rounds; ++i) {
    if (i % ctx.sched.rounds_per_slot() == 0) {
      trace::Event ev;
      ev.kind = trace::EventKind::kSlotStart;
      ev.round = i;
      ev.slot = ctx.sched.slot_of(i);
      ev.node = ctx.sender_of(ev.slot);
      sink.on_event(ev);
    }
    if (i % Schedule::kRoundsPerEpoch == 0) {
      trace::Event ev;
      ev.kind = trace::EventKind::kEpochPhase;
      ev.round = i;
      ev.slot = ctx.sched.slot_of(i);
      ev.epoch = ctx.sched.epoch_of(i);
      ev.node = ctx.leader(ev.slot, ev.epoch);
      ev.detail = "epoch";
      sink.on_event(ev);
    }
    sim.step();
    if (check_shares) check_shares = share_table::expect_sound(ctx, sim);
  }

  Outcome o;
  o.honest_bits = st.ledger.honest_bits_total();
  o.adversary_bits = st.ledger.adversary_bits_total();
  o.per_slot = st.ledger.per_slot();
  o.per_kind = st.ledger.per_kind();
  o.commits = idle_skip::commit_rows(st.commits, kN, kSlots);
  for (NodeId v = 0; v < kN; ++v) o.corrupt.push_back(sim.is_corrupt(v));
  o.rounds = sim.take_round_stats();
  o.elided_rounds = sim.elided_rounds();
  o.jsonl = jsonl.str();
  o.traffic_bytes = sim.traffic_reserved_bytes();
  if (violations != nullptr) {
    RunResult res;
    res.n = kN;
    res.slots = kSlots;
    res.commits = st.commits;
    res.corrupt.assign(kN, 0);
    for (NodeId v = 0; v < kN; ++v) res.corrupt[v] = sim.is_corrupt(v);
    res.senders.assign(kSlots + 1, kNoNode);
    res.sender_inputs.assign(kSlots + 1, kBotValue);
    for (Slot k = 1; k <= kSlots; ++k) {
      res.senders[k] = st.sender_of(k);
      res.sender_inputs[k] = st.input_for_slot(k);
    }
    *violations = check_consistency(res);
    const auto add = [violations](const std::vector<std::string>& more) {
      violations->insert(violations->end(), more.begin(), more.end());
    };
    add(check_validity(res));
    if (p.net == "lockstep") add(check_termination(res));
  }
  return o;
}

using idle_skip::expect_same;

/// A schedule that wakes the sleeping adversary mid-stretch: node 4 is
/// corrupted at the end of round 29 and its round-30 traffic erased, both
/// inside the quiet epochs after slot 1 committed; node 1, the slot-2
/// sender, is corrupted right after its round-56 proposal, whose copies
/// to odd nodes are erased. Off lockstep, timing faults ride along.
std::string sched_spec(const std::string& net) {
  std::string s = "sched:corrupt(30,4);erase(30,4);corrupt(57,1);"
                  "erase(56,1,1000,2,1)";
  if (net != "lockstep") s += ";delay(2,60,130,1);reorder(5,0,*)";
  return s;
}

class IdleSkip
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(IdleSkip, ElisionMatchesAlwaysAwakeReference) {
  const auto& [adv, net] = GetParam();
  const std::tuple<const char*, Options, const char*> options[] = {
      {"paper", Options::paper(), "linear"},
      {"mr_baseline", Options::mr_baseline(), "mr-baseline"},
      {"no_memory", Options::no_memory(), "linear-nomem"},
      {"no_query", Options::no_query(), "linear-noquery"},
  };
  Audit audit;
  for (const auto& [opt_name, opts, proto] : options) {
    for (std::uint64_t seed : {1u, 7u}) {
      Params p;
      p.adversary = adv == "sched" ? sched_spec(net) : adv;
      p.net = net;
      p.opts = opts;
      p.seed = seed;
      SCOPED_TRACE(p.adversary + " / " + net + " / " + opt_name +
                   " / seed " + std::to_string(seed));
      const Outcome ref = run(p, &audit);
      std::vector<std::string> violations;
      const Outcome got = run(p, nullptr, &violations);
      expect_same(got, ref);
      if (adv == kForge) {
        for (const std::string& v : violations) ADD_FAILURE() << v;
        continue;
      }
      Outcome prod = idle_skip::production_outcome(proto, common(p));
      prod.traffic_bytes = got.traffic_bytes;
      expect_same(got, prod);
    }
  }
  EXPECT_GT(audit.sleeping_calls, 0u) << "no call was ever elidable";
}

TEST(IdleSkip, QuietEpochsTakeTheConstantTimePath) {
  // Failure-free Alg-4 commits in epoch 0 of every slot, so epochs
  // 1..f+1 carry no traffic and no node is due: those rounds must take
  // the O(1) path, which keeps no row and only counts them.
  Params p;
  p.adversary = "none";
  p.net = "lockstep";
  const Outcome o = run(p, nullptr);
  EXPECT_GT(o.constant_time_rounds(), o.rounds.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IdleSkip,
    ::testing::Combine(
        ::testing::Values("none", "silent", "equivocate", "selective",
                          "flood", "drop", "chaos", "mixed", "adaptive-erase",
                          "fuzz", "fuzz:1", "fuzz:2", "fuzz:3", "sched",
                          kForge),
        ::testing::Values("lockstep", "bounded:2", "async:4")),
    [](const auto& info) {
      std::string s = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : s) {
        if (c == '-' || c == ':') c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace ambb::linear
