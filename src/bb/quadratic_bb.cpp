#include "bb/quadratic_bb.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ambb::quad {

QuadNode::QuadNode(NodeId id, const Context* ctx,
                   std::unique_ptr<Deviation> deviation)
    : id_(id),
      ctx_(ctx),
      dev_(std::move(deviation)),
      engine_(id, ctx),
      voted_(ctx->n),
      vote_seen_(ctx->n, ctx->n),
      vote_forwarded_(ctx->n, ctx->n),
      vote_sigs_(ctx->n) {}

Msg QuadNode::build_prop(Value v) const {
  Msg m;
  m.kind = Kind::kProp;
  m.slot = cur_slot_;
  m.value = v;
  m.sig = ctx_->registry->sign(id_, prop_digest(cur_slot_, v));
  return m;
}

void QuadNode::out_multicast(RoundApi<Msg>& api, const Msg& m, Round r,
                             std::uint32_t offset) {
  if (dev_ == nullptr) {
    api.multicast(m);
    return;
  }
  for (NodeId v = 0; v < ctx_->n; ++v) {
    if (!dev_->drop_send(r, offset, m.kind, v)) api.send(v, m);
  }
}

void QuadNode::vote_corrupt(NodeId target, RoundApi<Msg>& api, Round r) {
  if (voted_.get(target)) return;
  voted_.set(target);
  {
    trace::Event ev;
    ev.kind = trace::EventKind::kCorruptVote;
    ev.round = r;
    ev.slot = cur_slot_;
    ev.node = id_;
    ev.subject = target;
    trace::emit(ctx_->trace, ev);
  }
  Msg m;
  m.kind = Kind::kCorrupt;
  m.slot = cur_slot_;
  m.accused = target;
  m.sig = ctx_->registry->sign(id_, corrupt_digest(target));
  // Record our own vote so the tau-counting sees it immediately.
  if (!vote_seen_.get(target, id_)) {
    vote_seen_.set(target, id_);
    vote_sigs_[target].push_back(m.sig);
  }
  vote_forwarded_.set(target, id_);
  api.multicast(m);
}

void QuadNode::on_round(Round r, std::span<const Delivery<Msg>> inbox,
                        const TrafficView<Msg>& rushed,
                        RoundApi<Msg>& api) {
  (void)rushed;
  const Schedule& sched = ctx_->sched;
  const Slot k = sched.slot_of(r);
  const std::uint32_t offset = sched.offset_of(r);
  const std::uint32_t n = ctx_->n;
  const std::uint32_t f = ctx_->f;

  if (k != cur_slot_) {
    cur_slot_ = k;
    engine_.begin_slot(k);
  }
  engine_.set_round(r);

  if (dev_ != nullptr && dev_->silent(r)) return;

  const NodeId sender = engine_.slot_sender();

  // Inbox processing: TrustCast machinery runs in every round of the slot
  // (removals keep flowing during the DS phase — transferability needs
  // it); corrupt votes are recorded here.
  for (const auto& env : inbox) {
    const Msg& m = env.msg();
    if (m.kind == Kind::kCorrupt) {
      const NodeId voter = m.sig.signer;
      const NodeId target = m.accused;
      if (voter >= n || target >= n) continue;
      if (vote_seen_.get(target, voter)) continue;
      const bool valid = ctx_->verdicts.get(r, env.record, [&] {
        return ctx_->registry->verify(m.sig, corrupt_digest(target));
      });
      if (!valid) continue;
      vote_seen_.set(target, voter);
      vote_sigs_[target].push_back(m.sig);
    } else {
      const bool allow_send =
          dev_ == nullptr || !dev_->suppress_engine_sends(r, offset);
      engine_.handle(env, api, allow_send);
    }
  }
  // One prune for the whole inbox; everything below reads a settled graph.
  engine_.settle();

  if (offset == 0) {
    if (id_ == sender) {
      if (dev_ != nullptr && dev_->override_send(*this, api)) {
        // handled by the deviation
      } else {
        engine_.send_proposal(api);
      }
    }
  } else if (offset >= 1 && offset <= n) {
    engine_.tc_round_action(offset, api);
  } else {
    // Dolev-Strong phase: tau in [0, f+1].
    const std::uint32_t tau = offset - (n + 1);
    if (tau == 0) {
      if (!engine_.sender_present()) vote_corrupt(sender, api, r);
    } else {
      if (!engine_.sender_present() &&
          vote_seen_.row_count(sender) >= tau) {
        // Forward every vote we have not forwarded yet (each is a
        // distinct <corrupt, S_k>_w, shared across slots), then our own.
        for (std::size_t idx = 0; idx < vote_sigs_[sender].size(); ++idx) {
          const Signature& sig = vote_sigs_[sender][idx];
          if (vote_forwarded_.get(sender, sig.signer)) continue;
          vote_forwarded_.set(sender, sig.signer);
          Msg m;
          m.kind = Kind::kCorrupt;
          m.slot = cur_slot_;
          m.accused = sender;
          m.sig = sig;
          out_multicast(api, m, r, offset);
        }
        vote_corrupt(sender, api, r);
      }
    }
    // Commit at the end of the last round of the slot.
    if (offset == n + f + 2) {
      if (!ctx_->commits->has(id_, k)) {
        Value v = kBotValue;
        if (!voted_.get(sender)) {
          auto rv = engine_.received_value();
          // TrustCast termination guarantees an honest node that never
          // voted holds exactly one sender value. A Byzantine actor
          // replaying this logic (deviation attached) may not.
          AMBB_CHECK_MSG(rv.has_value() || dev_ != nullptr,
                         "node " << id_ << " slot " << k
                                 << ": no corrupt vote but no value either");
          v = rv.value_or(kBotValue);
        }
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
  }

  if (dev_ != nullptr) dev_->extra(*this, r, offset, api);
}

Round QuadNode::next_wake(Round r) const {
  // on_round tolerates skipped rounds: begin_slot runs on the first call
  // of a new slot and set_round only stamps events. Waking in every
  // commit round keeps each slot's commit on its own round; waking right
  // after it starts the next slot at its offset 0, so sender_of is only
  // ever asked about slots the run has.
  const std::uint32_t n = ctx_->n;
  const std::uint32_t offset = ctx_->sched.offset_of(r);
  const std::uint32_t commit = n + ctx_->f + 2;
  std::uint32_t wake = commit;  // offset within this slot
  if (offset >= commit) {
    wake = offset + 1;  // the next slot's offset 0
  } else if (engine_.sender_present()) {
    // The distance-based accusation rule acts every TrustCast round.
    if (offset < n && !engine_.has_prop()) wake = offset + 1;
  } else {
    // tau = 0 casts the vote; 1 <= tau <= f+1 forwards unseen votes (and
    // votes late if the sender was removed after tau = 0).
    const NodeId sender = engine_.slot_sender();
    if (!voted_.get(sender)) {
      wake = std::max(offset + 1, n + 1);
    } else if (!vote_forwarded_.row_contains(sender, vote_seen_)) {
      wake = std::max(offset + 1, n + 2);
    }
  }
  const Round honest = r - offset + wake;
  return dev_ == nullptr ? honest : dev_->next_wake(*this, r, honest);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

RunResult run_quadratic(const QuadConfig& cfg) {
  AMBB_CHECK_MSG(cfg.n >= 3, "need at least 3 nodes");
  AMBB_CHECK_MSG(cfg.f < cfg.n, "Algorithm 5.2 requires f < n");

  KeyRegistry registry(cfg.n, cfg.seed);
  RunState run(cfg, kind_names());

  Context ctx;
  ctx.n = cfg.n;
  ctx.f = cfg.f;
  ctx.wire = WireModel{cfg.n, cfg.kappa_bits, cfg.value_bits};
  ctx.sched = Schedule{cfg.n, cfg.f};
  ctx.registry = &registry;
  ctx.commits = &run.commits;
  ctx.input_for_slot = run.input_for_slot;
  ctx.sender_of = run.sender_of;
  ctx.trace = cfg.trace;

  Family<Msg, CostPolicy> fam;
  fam.policy = CostPolicy{ctx.wire, ctx.sched};
  fam.rounds_per_slot = ctx.sched.rounds_per_slot();
  fam.node = [&ctx](NodeId v) { return std::make_unique<QuadNode>(v, &ctx); };
  // The corrupted-seat replica runs honest logic but carries a no-op
  // Deviation marker: honest-only invariant CHECKs (TrustCast's
  // vote-or-value guarantee) must not fire for a Byzantine node
  // replaying honest logic from mid-run fresh state.
  fam.replica = [&ctx](NodeId v) {
    return std::make_unique<QuadNode>(v, &ctx, std::make_unique<Deviation>());
  };
  fam.named = [&ctx](const std::string& spec, std::uint64_t seed) {
    return make_quad_adversary(spec, &ctx, seed);
  };
  fam.hooks = &cfg;
  return drive(cfg, run, fam, [&ctx](Round r, Slot k, std::uint32_t off) {
    const char* phase = off == 0            ? "propose"
                        : off == 1          ? "trustcast"
                        : off == ctx.n + 1 ? "dolev-strong"
                                            : nullptr;
    if (phase == nullptr) return;
    trace::Event ev;
    ev.kind = trace::EventKind::kEpochPhase;
    ev.round = r;
    ev.slot = k;
    if (off == 0) ev.node = ctx.sender_of(k);
    ev.detail = phase;
    ctx.trace->on_event(ev);
  });
}

}  // namespace ambb::quad
