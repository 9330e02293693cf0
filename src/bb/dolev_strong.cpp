#include "bb/dolev_strong.hpp"

#include <algorithm>

#include "common/byte_buf.hpp"
#include "common/check.hpp"
#include "crypto/intern.hpp"

namespace ambb::ds {

std::vector<std::string> kind_names() { return {"relay"}; }

Digest relay_digest(Slot k, Value v) {
  Encoder& e = Encoder::scratch();
  e.reserve(32);
  e.put_tag("ds-relay");
  e.put_u32(k);
  e.put_u64(v);
  return DigestCache::local().hash("ds-relay", e.view());
}

DsNode::DsNode(NodeId id, const Context* ctx,
               std::unique_ptr<Deviation> deviation)
    : id_(id), ctx_(ctx), dev_(std::move(deviation)) {}

std::uint32_t DsNode::chain_strength(const Msg& m, NodeId sender) const {
  const Digest d = relay_digest(m.slot, m.value);
  if (ctx_->use_multisig) {
    if (!ctx_->msig->verify(m.agg, d)) return 0;
    if (!m.agg.signers.get(sender)) return 0;
    return static_cast<std::uint32_t>(m.agg.signer_count());
  }
  BitVec seen(ctx_->n);
  bool has_sender = false;
  for (const auto& sig : m.chain) {
    if (sig.signer >= ctx_->n || seen.get(sig.signer)) return 0;
    if (!ctx_->registry->verify(sig, d)) return 0;
    seen.set(sig.signer);
    if (sig.signer == sender) has_sender = true;
  }
  if (!has_sender) return 0;
  return static_cast<std::uint32_t>(seen.count());
}

Msg DsNode::extend(const Msg& m) const {
  Msg out = m;
  const Digest d = relay_digest(m.slot, m.value);
  if (ctx_->use_multisig) {
    if (!out.agg.signers.get(id_)) {
      out.agg = ctx_->msig->extend(out.agg, id_, d);
    }
  } else {
    out.chain.push_back(ctx_->registry->sign(id_, d));
  }
  return out;
}

void DsNode::on_round(Round r, std::span<const Delivery<Msg>> inbox,
                      const TrafficView<Msg>& rushed,
                      RoundApi<Msg>& api) {
  (void)rushed;
  const Schedule& sched = ctx_->sched;
  const Slot k = sched.slot_of(r);
  const std::uint32_t t = sched.offset_of(r);
  if (k != cur_slot_) {
    cur_slot_ = k;
    extracted_.clear();
  }
  if (dev_ != nullptr && dev_->silent(r)) return;

  const NodeId sender = ctx_->sender_of(k);

  if (t == 0) {
    if (id_ == sender) {
      if (dev_ != nullptr && dev_->override_send(k, id_, *ctx_, api)) {
        // handled
      } else {
        Msg m;
        m.kind = Kind::kRelay;
        m.slot = k;
        m.value = ctx_->input_for_slot(k);
        const Digest d = relay_digest(k, m.value);
        m.chain.push_back(ctx_->registry->sign(id_, d));
        m.agg = ctx_->msig->extend(ctx_->msig->empty(), id_, d);
        extracted_.push_back(m.value);
        api.multicast(m);
      }
    }
  } else {
    for (const auto& env : inbox) {
      const Msg& m = env.msg();
      if (m.kind != Kind::kRelay || m.slot != k) continue;
      if (extracted_.size() >= 2) break;
      if (std::find(extracted_.begin(), extracted_.end(), m.value) !=
          extracted_.end()) {
        continue;
      }
      if (chain_strength(m, sender) < t) continue;
      extracted_.push_back(m.value);
      if (t <= ctx_->f) api.multicast(extend(m));
    }
    if (t == ctx_->f + 1 && !ctx_->commits->has(id_, k)) {
      const Value v = extracted_.size() == 1 ? extracted_[0] : kBotValue;
      ctx_->commits->record(id_, k, v, r);
      trace::Event ev;
      ev.kind = trace::EventKind::kSlotCommit;
      ev.round = r;
      ev.slot = k;
      ev.node = id_;
      ev.value = v;
      trace::emit(ctx_->trace, ev);
    }
  }
  if (dev_ != nullptr) dev_->extra(k, t, id_, *ctx_, api);
}

// ---------------------------------------------------------------------------
// Adversaries
// ---------------------------------------------------------------------------

namespace {

class SilentDev final : public Deviation {
 public:
  bool silent(Round) const override { return true; }
};

class EquivocateDev final : public Deviation {
 public:
  bool override_send(Slot k, NodeId self, const Context& ctx,
                     RoundApi<Msg>& api) override {
    for (int which = 0; which < 2; ++which) {
      Msg m;
      m.kind = Kind::kRelay;
      m.slot = k;
      m.value = which == 0 ? 0xAAAA : 0xBBBB;
      const Digest d = relay_digest(k, m.value);
      m.chain.push_back(ctx.registry->sign(self, d));
      m.agg = ctx.msig->extend(ctx.msig->empty(), self, d);
      for (NodeId v = 0; v < ctx.n; ++v) {
        if (static_cast<int>(v % 2) == which) api.send(v, m);
      }
    }
    return true;
  }
};

/// The classic last-minute attack: the corrupt sender broadcasts value A
/// normally, while the coalition secretly assembles an f-signature chain
/// on value B and injects it at round f-1 to every honest node at once.
/// All of them extract at round f and relay the Theta(n)-signature chain
/// to everyone — the Theta(kappa n^3) worst case of Table 1. Everyone
/// ends at two values and commits bot — consistently, which is exactly
/// what the f+1 rounds guarantee.
class StaggerDev final : public Deviation {
 public:
  bool override_send(Slot k, NodeId self, const Context& ctx,
                     RoundApi<Msg>& api) override {
    Msg m;
    m.kind = Kind::kRelay;
    m.slot = k;
    m.value = ctx.input_for_slot(k);
    const Digest d = relay_digest(k, m.value);
    m.chain.push_back(ctx.registry->sign(self, d));
    m.agg = ctx.msig->extend(ctx.msig->empty(), self, d);
    api.multicast(m);
    return true;
  }

  void extra(Slot k, std::uint32_t offset, NodeId self, const Context& ctx,
             RoundApi<Msg>& api) override {
    if (ctx.f < 2 || self != 0 || offset != ctx.f - 1) return;
    const NodeId sender = ctx.sender_of(k);
    if (sender >= ctx.f) return;  // only attack corrupt-sender slots
    Msg m;
    m.kind = Kind::kRelay;
    m.slot = k;
    m.value = 0xD15C0;
    const Digest d = relay_digest(k, m.value);
    m.agg = ctx.msig->empty();
    for (NodeId c = 0; c < ctx.f; ++c) {
      m.chain.push_back(ctx.registry->sign(c, d));
      m.agg = ctx.msig->extend(m.agg, c, d);
    }
    for (NodeId v = ctx.f; v < ctx.n; ++v) api.send(v, m);
  }
};

std::unique_ptr<Deviation> deviation_for(const std::string& role) {
  if (role == "silent") return std::make_unique<SilentDev>();
  if (role == "equivocate") return std::make_unique<EquivocateDev>();
  AMBB_CHECK_MSG(role == "stagger", "unknown ds role " << role);
  return std::make_unique<StaggerDev>();
}

}  // namespace

RunResult run_dolev_strong(const DsConfig& cfg) {
  AMBB_CHECK_MSG(cfg.n >= 3 && cfg.f < cfg.n, "Dolev-Strong needs f < n");

  KeyRegistry registry(cfg.n, cfg.seed);
  MultiSigScheme msig(registry);
  RunState run(cfg, kind_names());

  Context ctx;
  ctx.n = cfg.n;
  ctx.f = cfg.f;
  ctx.use_multisig = cfg.use_multisig;
  ctx.wire = WireModel{cfg.n, cfg.kappa_bits, cfg.value_bits};
  ctx.sched = Schedule{cfg.f};
  ctx.registry = &registry;
  ctx.msig = &msig;
  ctx.commits = &run.commits;
  ctx.input_for_slot = run.input_for_slot;
  ctx.sender_of = run.sender_of;
  ctx.trace = cfg.trace;

  Family<Msg, CostPolicy> fam;
  fam.policy = CostPolicy{ctx.wire, ctx.sched, ctx.use_multisig};
  fam.rounds_per_slot = ctx.sched.rounds_per_slot();
  fam.node = [&ctx](NodeId v) { return std::make_unique<DsNode>(v, &ctx); };
  fam.named = [&ctx](const std::string& spec, std::uint64_t) {
    return std::make_unique<StaticAdversary<Msg>>(
        ctx.f, [&ctx, spec](NodeId v) {
          return std::make_unique<DsNode>(v, &ctx, deviation_for(spec));
        });
  };
  return drive(cfg, run, fam);
}

}  // namespace ambb::ds
