#include "bb/hotstuff_demo.hpp"

#include "adversary/scheduled.hpp"
#include "common/byte_buf.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "crypto/intern.hpp"
#include <algorithm>

#include "runner/assemble.hpp"

namespace ambb::hs {

std::vector<std::string> kind_names() {
  return {"propose", "vote1", "cert", "vote2", "proof"};
}

namespace {
Digest tagged_digest(const char* tag, Slot k, Value v) {
  Encoder& e = Encoder::scratch();
  e.reserve(32);
  e.put_tag(tag);
  e.put_u32(k);
  e.put_u64(v);
  return DigestCache::local().hash(tag, e.view());
}
}  // namespace

Digest prop_digest(Slot k, Value v) { return tagged_digest("hs-prop", k, v); }
Digest round1_digest(Slot k, Value v) { return tagged_digest("hs-r1", k, v); }
Digest round2_digest(Slot k, Value v) { return tagged_digest("hs-r2", k, v); }

std::uint64_t size_bits(const Msg& m, const WireModel& wire) {
  std::uint64_t bits = wire.header_bits();
  switch (m.kind) {
    case Kind::kPropose:
      bits += wire.value_bits + wire.sig_bits();
      break;
    case Kind::kVote1:
    case Kind::kVote2:
      bits += wire.value_bits + wire.sig_bits();
      break;
    case Kind::kCert:
    case Kind::kProof:
      bits += wire.value_bits + wire.thsig_bits();
      break;
    case Kind::kKindCount:
      AMBB_CHECK(false);
  }
  return bits;
}

namespace {

class HsNode final : public Actor<Msg> {
 public:
  /// starve(slot, to) — a leader deviation: drop the commit-proof copy
  /// addressed to `to`. Null for honest nodes.
  using StarveFn = std::function<bool(Slot, NodeId)>;

  HsNode(NodeId id, const Context* ctx, StarveFn starve = nullptr)
      : id_(id), ctx_(ctx), starve_(std::move(starve)) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override {
    (void)rushed;
    const Schedule& sched = ctx_->sched;
    const Slot k = sched.slot_of(r);
    const std::uint32_t off = sched.offset_of(r);
    const NodeId leader = ctx_->sender_of(k);
    const std::uint32_t quorum = ctx_->n - ctx_->f;

    if (k != cur_slot_) {
      cur_slot_ = k;
      value_ = kBotValue;
      votes1_.clear();
      votes2_.clear();
      cert_made_ = proof_made_ = false;
    }

    switch (off) {
      case 0:
        if (id_ == leader) {
          Msg m;
          m.kind = Kind::kPropose;
          m.slot = k;
          m.value = ctx_->input_for_slot(k);
          m.sig = ctx_->registry->sign(id_, prop_digest(k, m.value));
          value_ = m.value;
          api.multicast(m);
        }
        break;
      case 1:
        for (const auto& env : inbox) {
          const Msg& m = env.msg();
          if (m.kind != Kind::kPropose || m.slot != k) continue;
          if (m.sig.signer != leader ||
              !ctx_->registry->verify(m.sig, prop_digest(k, m.value))) {
            continue;
          }
          value_ = m.value;
          Msg v;
          v.kind = Kind::kVote1;
          v.slot = k;
          v.value = m.value;
          v.share = ctx_->th->share(id_, round1_digest(k, m.value));
          if (id_ == leader) {
            votes1_.push_back(v.share);
          } else {
            api.send(leader, v);
          }
          break;
        }
        break;
      case 2:
        if (id_ == leader && !cert_made_) {
          for (const auto& env : inbox) {
            const Msg& m = env.msg();
            if (m.kind != Kind::kVote1 || m.slot != k ||
                m.value != value_) {
              continue;
            }
            if (ctx_->th->verify_share(m.share, round1_digest(k, value_))) {
              votes1_.push_back(m.share);
            }
          }
          if (votes1_.size() >= quorum) {
            cert_made_ = true;
            {
              trace::Event ev;
              ev.kind = trace::EventKind::kCertFormed;
              ev.round = r;
              ev.slot = k;
              ev.node = id_;
              ev.value = value_;
              ev.detail = "cert";
              trace::emit(ctx_->trace, ev);
            }
            Msg c;
            c.kind = Kind::kCert;
            c.slot = k;
            c.value = value_;
            c.thsig = ctx_->th->combine(
                std::span<const SigShare>(votes1_), round1_digest(k, value_));
            api.multicast(c);
          }
        }
        break;
      case 3:
        for (const auto& env : inbox) {
          const Msg& m = env.msg();
          if (m.kind != Kind::kCert || m.slot != k) continue;
          if (!ctx_->th->verify(m.thsig, round1_digest(k, m.value))) continue;
          Msg v;
          v.kind = Kind::kVote2;
          v.slot = k;
          v.value = m.value;
          v.share = ctx_->th->share(id_, round2_digest(k, m.value));
          if (id_ == leader) {
            votes2_.push_back(v.share);
          } else {
            api.send(leader, v);
          }
          break;
        }
        break;
      case 4:
        if (id_ == leader && !proof_made_) {
          for (const auto& env : inbox) {
            const Msg& m = env.msg();
            if (m.kind != Kind::kVote2 || m.slot != k ||
                m.value != value_) {
              continue;
            }
            if (ctx_->th->verify_share(m.share, round2_digest(k, value_))) {
              votes2_.push_back(m.share);
            }
          }
          if (votes2_.size() >= quorum) {
            proof_made_ = true;
            {
              trace::Event ev;
              ev.kind = trace::EventKind::kCertFormed;
              ev.round = r;
              ev.slot = k;
              ev.node = id_;
              ev.value = value_;
              ev.detail = "commit-proof";
              trace::emit(ctx_->trace, ev);
            }
            Msg p;
            p.kind = Kind::kProof;
            p.slot = k;
            p.value = value_;
            p.thsig = ctx_->th->combine(
                std::span<const SigShare>(votes2_), round2_digest(k, value_));
            if (starve_ == nullptr) {
              api.multicast(p);
            } else {
              for (NodeId v = 0; v < ctx_->n; ++v) {
                if (!starve_(k, v)) api.send(v, p);
              }
            }
          }
        }
        break;
      case 5:
        for (const auto& env : inbox) {
          const Msg& m = env.msg();
          if (m.kind != Kind::kProof || m.slot != k) continue;
          if (!ctx_->th->verify(m.thsig, round2_digest(k, m.value))) continue;
          if (!ctx_->commits->has(id_, k)) {
            ctx_->commits->record(id_, k, m.value, r);
            trace::Event ev;
            ev.kind = trace::EventKind::kSlotCommit;
            ev.round = r;
            ev.slot = k;
            ev.node = id_;
            ev.value = m.value;
            trace::emit(ctx_->trace, ev);
          }
          break;
        }
        break;
    }
  }

 private:
  NodeId id_;
  const Context* ctx_;
  HsNode::StarveFn starve_;
  Slot cur_slot_ = 0;
  Value value_ = kBotValue;
  std::vector<SigShare> votes1_, votes2_;
  bool cert_made_ = false, proof_made_ = false;
};

/// Corrupt leaders withhold the commit-proof from the f highest-numbered
/// honest nodes; corrupt non-leaders behave honestly (they must, or the
/// quorum narrative falls apart — the attack needs a *valid* proof).
class SelectiveHsAdversary final : public Adversary<Msg> {
 public:
  explicit SelectiveHsAdversary(const Context* ctx) : ctx_(ctx) {}

  std::vector<NodeId> initial_corruptions() override {
    std::vector<NodeId> out;
    for (NodeId v = 0; v < ctx_->f; ++v) out.push_back(v);
    return out;
  }

  std::unique_ptr<Actor<Msg>> actor_for(NodeId node) override {
    const std::uint32_t n = ctx_->n;
    const std::uint32_t f = ctx_->f;
    return std::make_unique<HsNode>(
        node, ctx_, [n, f](Slot, NodeId to) { return to >= n - f; });
  }

 private:
  const Context* ctx_;
};

}  // namespace

RunResult run_hotstuff_demo(const HsConfig& cfg) {
  AMBB_CHECK_MSG(3 * cfg.f < cfg.n, "HotStuff assumes f < n/3");

  KeyRegistry registry(cfg.n, cfg.seed);
  ThresholdScheme th(registry, cfg.n - cfg.f);
  CommitLog commits(cfg.n);
  commits.presize(cfg.slots);  // no lazy regrow mid-run
  CostLedger ledger(kind_names());

  Context ctx;
  ctx.n = cfg.n;
  ctx.f = cfg.f;
  ctx.wire = WireModel{cfg.n, cfg.kappa_bits, cfg.value_bits};
  ctx.sched = Schedule{};
  ctx.registry = &registry;
  ctx.th = &th;
  ctx.commits = &commits;
  const std::uint64_t input_seed = cfg.seed ^ 0x5EEDF00DULL;
  ctx.input_for_slot = cfg.input_for_slot
                           ? cfg.input_for_slot
                           : [input_seed](Slot s) {
                               std::uint64_t x = input_seed + s;
                               return splitmix64(x);
                             };
  ctx.sender_of = cfg.sender_of ? cfg.sender_of : [n = cfg.n](Slot s) {
    return static_cast<NodeId>((s - 1) % n);
  };
  Sim sim(cfg.n, std::max<std::uint32_t>(cfg.f, 1), &ledger,
          CostPolicy{ctx.wire, ctx.sched});
  ctx.trace = cfg.trace;
  for (NodeId v = 0; v < cfg.n; ++v) {
    sim.set_actor(v, std::make_unique<HsNode>(v, &ctx));
  }
  const std::uint64_t total_rounds =
      static_cast<std::uint64_t>(cfg.slots) * ctx.sched.rounds_per_slot();
  sim.reserve_rounds(total_rounds);
  const NetPolicy net = make_net_policy(cfg.net, cfg.seed);
  std::unique_ptr<Adversary<Msg>> adversary;
  if (adversary::is_schedule_spec(cfg.adversary)) {
    adversary::ScheduleEnv<Msg> env;
    env.n = cfg.n;
    env.f = cfg.f;
    env.seed = cfg.seed ^ 0xAD7E25A1ULL;
    env.horizon = total_rounds;
    env.trace = cfg.trace;
    env.net = net;
    env.honest_factory = [ctxp = &ctx](NodeId v) {
      return std::make_unique<HsNode>(v, ctxp);
    };
    adversary = adversary::make_scheduled_adversary<Msg>(cfg.adversary, env);
  } else if (cfg.adversary == "selective") {
    adversary = std::make_unique<SelectiveHsAdversary>(&ctx);
  } else {
    AMBB_CHECK_MSG(cfg.adversary == "none",
                   "unknown hs adversary " << cfg.adversary);
  }
  SimConfig<Msg> sc;
  sc.trace = cfg.trace;
  sc.net = net;
  sc.adversary = adversary.get();
  sim.configure(sc);
  for (std::uint64_t i = 0; i < total_rounds; ++i) {
    if (ctx.sched.offset_of(i) == 0) {
      const Slot k = ctx.sched.slot_of(i);
      trace::Event ev;
      ev.kind = trace::EventKind::kSlotStart;
      ev.round = i;
      ev.slot = k;
      ev.node = ctx.sender_of(k);
      trace::emit(cfg.trace, ev);
    }
    sim.step();
  }

  return assemble_result(
      cfg.n, cfg.f, cfg.slots, sim.now(), ledger, commits, sim.round_stats(),
      [&sim](NodeId v) { return sim.is_corrupt(v); }, ctx.sender_of,
      ctx.input_for_slot);
}

}  // namespace ambb::hs
