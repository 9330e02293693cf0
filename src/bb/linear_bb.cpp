#include "bb/linear_bb.hpp"

#include <algorithm>

#include "bb/linear_adversary.hpp"
#include "common/byte_buf.hpp"
#include "common/check.hpp"
#include "crypto/intern.hpp"

namespace ambb::linear {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCollect: return "collect";
    case Kind::kPropose: return "propose";
    case Kind::kPropForward: return "prop-forward";
    case Kind::kVote: return "vote";
    case Kind::kCert: return "cert";
    case Kind::kCertForward: return "cert-forward";
    case Kind::kCertVote: return "cert-vote";
    case Kind::kCommitProof: return "commit-proof";
    case Kind::kAccuse: return "accuse";
    case Kind::kAccuseForward: return "accuse-forward";
    case Kind::kCorruptProof: return "corrupt-proof";
    case Kind::kQuery1: return "query1";
    case Kind::kQuery2: return "query2";
    case Kind::kKindCount: break;
  }
  return "?";
}

std::vector<std::string> kind_names() {
  std::vector<std::string> out;
  for (MsgKind k = 0; k < static_cast<MsgKind>(Kind::kKindCount); ++k) {
    out.push_back(kind_name(static_cast<Kind>(k)));
  }
  return out;
}

std::uint64_t size_bits(const Msg& m, const WireModel& wire) {
  std::uint64_t bits = wire.header_bits();
  switch (m.kind) {
    case Kind::kCollect:
      bits += 1;  // bot flag
      if (m.has_cert) bits += 16 + wire.value_bits + wire.thsig_bits();
      break;
    case Kind::kPropose:
    case Kind::kPropForward:
      bits += wire.value_bits + 1;
      if (m.has_cert) bits += 16 + wire.thsig_bits();
      bits += wire.sig_bits();  // leader signature
      break;
    case Kind::kVote:
    case Kind::kCertVote:
      bits += wire.value_bits + wire.sig_bits();  // share
      break;
    case Kind::kCert:
    case Kind::kCertForward:
      bits += wire.value_bits + wire.thsig_bits();
      break;
    case Kind::kCommitProof:
      bits += 16 + wire.value_bits + wire.thsig_bits();
      break;
    case Kind::kAccuse:
    case Kind::kAccuseForward:
      bits += wire.id_bits() + wire.sig_bits();  // accused id + share
      break;
    case Kind::kCorruptProof:
      bits += wire.id_bits() + wire.thsig_bits();
      break;
    case Kind::kQuery1:
    case Kind::kQuery2:
      break;  // header only
    case Kind::kKindCount:
      AMBB_CHECK(false);
  }
  return bits;
}

std::uint64_t CostPolicy::size_bits(const Msg& m) const {
  return linear::size_bits(m, wire);
}

// The digest helpers below run on the per-delivery hot path (every
// recipient re-derives the digest it verifies). Each one encodes into the
// thread-local scratch encoder — no per-call buffer — and resolves through
// the interning cache, which memoizes Sha256::hash keyed on the full
// (tag, canonical bytes) pair. Digest values are bit-identical to hashing
// the canonical bytes directly (the tag only keys the cache).
//
// On top of the shared cache, each helper keeps a one-entry
// last-arguments memo: the leader's checks of the shares it collects, and
// every check the record verdicts do not cover (Collect certificates,
// timing-path deliveries), repeat arguments back to back, and the memo
// answers them with a few compares instead of an encode + cache probe.
// The memos are load-bearing: without those of vote_digest, commit_digest
// and prop_digest alg4-lockstep ran 1,923 -> 1,648 slots/s on a 4-core
// Xeon (DESIGN.md §14). Purely an observer of a pure function.

Digest vote_digest(Slot k, Epoch i, Value m) {
  struct Memo { Slot k; Epoch i; Value m; Digest d; bool set; };
  thread_local Memo memo{0, 0, 0, {}, false};
  if (memo.set && memo.k == k && memo.i == i && memo.m == m) return memo.d;
  Encoder& e = Encoder::scratch();
  e.reserve(32);
  e.put_tag("vote");
  e.put_u32(k);
  e.put_u16_checked(i);
  e.put_u64(m);
  memo = Memo{k, i, m, DigestCache::local().hash("vote", e.view()), true};
  return memo.d;
}

Digest commit_digest(Slot k, Epoch i, Value m) {
  struct Memo { Slot k; Epoch i; Value m; Digest d; bool set; };
  thread_local Memo memo{0, 0, 0, {}, false};
  if (memo.set && memo.k == k && memo.i == i && memo.m == m) return memo.d;
  Encoder& e = Encoder::scratch();
  e.reserve(32);
  e.put_tag("commit");
  e.put_u32(k);
  e.put_u16_checked(i);
  e.put_u64(m);
  memo = Memo{k, i, m, DigestCache::local().hash("commit", e.view()), true};
  return memo.d;
}

// On the timing path every recipient of an accusation derives this digest
// (no record id, so no shared verdict), and accusations of one target
// arrive in bursts, so the memo answers most calls (DESIGN.md §14).
Digest accuse_digest(NodeId accused) {
  struct Memo { NodeId t; Digest d; bool set; };
  thread_local Memo memo{0, {}, false};
  if (memo.set && memo.t == accused) return memo.d;
  Encoder& e = Encoder::scratch();
  e.reserve(16);
  e.put_tag("accuse");
  e.put_u32(accused);
  memo = Memo{accused, DigestCache::local().hash("accuse", e.view()), true};
  return memo.d;
}

Digest prop_digest(const Msg& prop) {
  // Last-args memo over every encoded field (the signature is NOT part of
  // the digest, so it is rightly absent from the key): all n recipients
  // validate the same multicast proposal back to back.
  struct Memo {
    Slot k;
    Epoch i;
    Value m;
    bool has_cert;
    Epoch cert_epoch;
    Digest cert_mac;
    Digest d;
    bool set;
  };
  thread_local Memo memo{0, 0, 0, false, 0, {}, {}, false};
  if (memo.set && memo.k == prop.slot && memo.i == prop.epoch &&
      memo.m == prop.value && memo.has_cert == prop.has_cert &&
      (!prop.has_cert || (memo.cert_epoch == prop.cert_epoch &&
                          memo.cert_mac == prop.cert.mac))) {
    return memo.d;
  }
  Encoder& e = Encoder::scratch();
  e.reserve(64);
  e.put_tag("prop");
  e.put_u32(prop.slot);
  e.put_u16_checked(prop.epoch);
  e.put_u64(prop.value);
  e.put_u8(prop.has_cert ? 1 : 0);
  if (prop.has_cert) {
    e.put_u16_checked(prop.cert_epoch);
    e.put_bytes(std::span<const std::uint8_t>(prop.cert.mac.data(),
                                              prop.cert.mac.size()));
  }
  memo = Memo{prop.slot,       prop.epoch,
              prop.value,      prop.has_cert,
              prop.cert_epoch, prop.cert.mac,
              DigestCache::local().hash("prop", e.view()),
              true};
  return memo.d;
}

// ---------------------------------------------------------------------------
// LinearNode
// ---------------------------------------------------------------------------

LinearNode::LinearNode(NodeId id, const Context* ctx,
                       std::unique_ptr<Deviation> deviation)
    : id_(id),
      ctx_(ctx),
      dev_(std::move(deviation)),
      accused_by_me_(ctx->n),
      accuse_seen_(ctx->n, ctx->n),
      accuse_count_(ctx->n, 0),
      corrupt_proof_have_(ctx->n, 0),
      corrupt_proof_sent_(ctx->n, 0),
      corrupt_proof_sig_(ctx->n),
      star4_forwarded_(ctx->sched.epochs_per_slot()),
      lead_vote_from_(ctx->n),
      lead_cert_vote_from_(ctx->n),
      fresh_accuse_from_(ctx->n, 0),
      answered_scratch_(ctx->n) {
  // Leadership rotates across slots, so every node eventually collects
  // votes. Reserving up front keeps steady-state rounds allocation-free
  // even for a node's FIRST stint as leader (tests/test_alloc_hotpath).
  lead_votes_.reserve(ctx->n);
  lead_cert_votes_.reserve(ctx->n);
  prop_values_seen_.reserve(4);
  if (dev_ != nullptr) kept_scratch_.reserve(ctx->n);
}

void LinearNode::out(RoundApi<Msg>& api, NodeId to, const Msg& m) {
  if (dev_ != nullptr && dev_->drop_send(round_, offset_, m.kind, to)) return;
  api.send(to, m);
}

void LinearNode::out_multicast(RoundApi<Msg>& api, const Msg& m) {
  if (dev_ == nullptr) {
    api.multicast(m);
    return;
  }
  out_group(api, ctx_->nodes, m);
}

// Under a Deviation the kept recipients stay in delivery-index order, and
// drop_send is asked once per recipient in that order (RandomDropDev
// draws per call), as when each send went out on its own.
void LinearNode::out_group(RoundApi<Msg>& api, std::span<const NodeId> to,
                           const Msg& m) {
  if (dev_ == nullptr) {
    api.send_group(to, m);
    return;
  }
  kept_scratch_.clear();
  for (NodeId v : to) {
    if (!dev_->drop_send(round_, offset_, m.kind, v)) {
      kept_scratch_.push_back(v);
    }
  }
  api.send_group(kept_scratch_, m);
}

void LinearNode::reset_slot(Slot k) {
  cur_slot_ = k;
  committed_ = ctx_->commits->has(id_, k);
  committed_value_ = kBotValue;
  have_freshest_ = false;
  freshest_epoch_ = 0;
  freshest_value_ = 0;
  have_commit_proof_ = false;
  star4_forwarded_.clear_all();
  forwarded_commit_proof_ = false;
  if (!ctx_->opts.persistent_accusations) {
    accused_by_me_.clear_all();
    accused_others_ = 0;
    accuse_seen_.clear_all();
    std::fill(accuse_count_.begin(), accuse_count_.end(), 0);
    std::fill(corrupt_proof_have_.begin(), corrupt_proof_have_.end(), 0);
    std::fill(corrupt_proof_sent_.begin(), corrupt_proof_sent_.end(), 0);
  }
}

void LinearNode::reset_epoch(Epoch i) {
  cur_epoch_ = i;
  cur_leader_ = ctx_->leader(cur_slot_, i);
  sent_collect_ = false;
  collect_had_cert_ = false;
  collect_epoch_ = 0;
  prop_values_seen_.clear();
  equivocation_ = false;
  propagated_ = false;
  propagated_value_ = 0;
  epoch_got_cert_ = false;
  query_target_.reset();
  epoch_had_traffic_ = false;
  lead_proposed_ = false;
  lead_value_ = 0;
  lead_votes_.clear();
  lead_vote_from_.clear_all();
  lead_cert_votes_.clear();
  lead_cert_vote_from_.clear_all();
  lead_cert_made_ = false;
  lead_proof_made_ = false;
}

void LinearNode::note_cert(Slot k, Epoch j, Value v,
                           const ThresholdSig& cert) {
  if (k != cur_slot_ || !fresher(j)) return;
  have_freshest_ = true;
  freshest_epoch_ = j;
  freshest_value_ = v;
  freshest_cert_ = cert;
}

namespace {

/// The commit-proof of value v, epoch j, slot k.
Msg commit_proof_msg(Slot k, Epoch j, Value v, const ThresholdSig& proof) {
  Msg m;
  m.kind = Kind::kCommitProof;
  m.slot = k;
  m.epoch = j;
  m.cert_epoch = j;
  m.value = v;
  m.proof = proof;
  return m;
}

}  // namespace

Msg LinearNode::held_commit_proof() const {
  return commit_proof_msg(cur_slot_, commit_proof_epoch_, commit_proof_value_,
                          commit_proof_);
}

void LinearNode::relay_held_proof(NodeId convicted, RoundApi<Msg>& api) {
  if (have_commit_proof_ &&
      ctx_->leader(cur_slot_, commit_proof_epoch_) == convicted &&
      commit_proof_epoch_ < star4_forwarded_.size() &&
      !star4_forwarded_.get(commit_proof_epoch_)) {
    star4_forwarded_.set(commit_proof_epoch_);
    out_multicast(api, held_commit_proof());
  }
}

// The exact complement of maybe_commit below, condition by condition: a
// later slot is ignored; a past slot only commits; in the current slot a
// proof is held if fresher, relayed under (*4) or always-forward if one is
// due, and commits. Most commit-proofs repeat one the node holds, so
// process_inbox drops them before the check (DESIGN.md §14).
bool LinearNode::commit_proof_inert(Slot k, Epoch j) const {
  if (k > cur_slot_) return true;
  if (k < cur_slot_) return ctx_->commits->has(id_, k);
  const bool star4_due = j < star4_forwarded_.size() &&
                         !star4_forwarded_.get(j) &&
                         corrupt_proof_have_[ctx_->leader(k, j)];
  return committed_ && have_commit_proof_ && j <= commit_proof_epoch_ &&
         !star4_due &&
         (!ctx_->opts.always_forward_commit_proof || forwarded_commit_proof_);
}

void LinearNode::maybe_commit(Slot k, Epoch j, Value v,
                              const ThresholdSig& proof, Round r,
                              RoundApi<Msg>& api) {
  if (k == cur_slot_) {
    // Hold the proof for responding to queries and (*4) forwarding even
    // if this node committed earlier in the slot.
    if (!have_commit_proof_ || j > commit_proof_epoch_) {
      have_commit_proof_ = true;
      commit_proof_epoch_ = j;
      commit_proof_value_ = v;
      commit_proof_ = proof;
    }
    // (*4): if the epoch leader has a corrupt-proof, everyone relays the
    // commit-proof once so totality holds in the expensive epoch.
    const NodeId lj = ctx_->leader(k, j);
    if (corrupt_proof_have_[lj] && j < star4_forwarded_.size() &&
        !star4_forwarded_.get(j)) {
      star4_forwarded_.set(j);
      out_multicast(api, commit_proof_msg(k, j, v, proof));
    }
    if (ctx_->opts.always_forward_commit_proof && !forwarded_commit_proof_) {
      forwarded_commit_proof_ = true;
      out_multicast(api, commit_proof_msg(k, j, v, proof));
    }
    if (!committed_) {
      committed_ = true;
      committed_value_ = v;
      ctx_->commits->record(id_, k, v, r);
      trace_commit(k, j, v, r);
    }
  } else if (k < cur_slot_ && !ctx_->commits->has(id_, k)) {
    // A proof for a past slot arriving on the slot boundary.
    ctx_->commits->record(id_, k, v, r);
    trace_commit(k, j, v, r);
  }
}

void LinearNode::trace_commit(Slot k, Epoch j, Value v, Round r) {
  trace::Event ev;
  ev.kind = trace::EventKind::kSlotCommit;
  ev.round = r;
  ev.slot = k;
  ev.epoch = j;
  ev.node = id_;
  ev.value = v;
  trace::emit(ctx_->trace, ev);
}

void LinearNode::handle_accuse(const Delivery<Msg>& env,
                               RoundApi<Msg>& api) {
  const Msg& m = env.msg();
  const NodeId accuser = m.share.signer;
  const NodeId target = m.accused;
  if (accuser >= ctx_->n || target >= ctx_->n || accuser == target) return;
  // A duplicate is dropped whatever its share, so test that first: most
  // forwards that reach the accused repeat an accusation it already saw.
  if (accuse_seen_.get(accuser, target)) return;
  const bool valid = ctx_->verdicts.get(round_, env.record, [&] {
    return ctx_->th->verify_share(m.share, accuse_digest(target));
  });
  if (!valid) return;
  accuse_seen_.set(accuser, target);
  ctx_->hold_accuse_share(accuser, target, m.share);
  fresh_accuse_from_[accuser] = 1;
  fresh_pairs_.emplace_back(accuser, target);
  fresh_dirty_ = true;

  // (*2): forward each accusation to the accused once, so selectively
  // delivered accusations still reach their target. The dedup above
  // bounds this to one forward per (accuser, target) pair per node.
  if (target != id_) {
    Msg fwd = m;
    fwd.kind = Kind::kAccuseForward;
    fwd.slot = cur_slot_;
    out(api, target, fwd);
  }

  // (*3): aggregate n-f accusations into a corrupt-proof.
  if (!corrupt_proof_have_[target]) {
    if (++accuse_count_[target] >= ctx_->n - ctx_->f) {
      corrupt_proof_sig_[target] =
          ctx_->combine_accusations(accuse_seen_, target);
      corrupt_proof_have_[target] = 1;
      {
        trace::Event ev;
        ev.kind = trace::EventKind::kCertFormed;
        ev.round = round_;
        ev.slot = cur_slot_;
        ev.epoch = cur_epoch_;
        ev.node = id_;
        ev.subject = target;
        ev.detail = "corrupt-proof";
        trace::emit(ctx_->trace, ev);
      }
      if (!corrupt_proof_sent_[target]) {
        corrupt_proof_sent_[target] = 1;
        Msg cp;
        cp.kind = Kind::kCorruptProof;
        cp.slot = cur_slot_;
        cp.accused = target;
        cp.proof = corrupt_proof_sig_[target];
        out_multicast(api, cp);
      }
      // (*4) may now fire for a commit-proof we already hold.
      relay_held_proof(target, api);
    }
  }
}

// A forward's d recipients share its record, as a multicast's n do, so
// the signature and certificate are checked once per record. The checks
// that depend on the recipient (its slot, epoch and leader) come first.
bool LinearNode::validate_proposal(const Delivery<Msg>& env) const {
  const Msg& m = env.msg();
  if (m.slot != cur_slot_ || m.epoch != cur_epoch_) return false;
  if (m.sig.signer != cur_leader()) return false;
  return ctx_->verdicts.get(round_, env.record, [&] {
    if (!ctx_->registry->verify(m.sig, prop_digest(m))) return false;
    if (!m.has_cert) return true;
    return m.cert_epoch < m.epoch &&
           ctx_->th->verify(m.cert,
                            vote_digest(m.slot, m.cert_epoch, m.value));
  });
}

bool LinearNode::cert_verifies(const Delivery<Msg>& env) const {
  const Msg& m = env.msg();
  return ctx_->verdicts.get(round_, env.record, [&] {
    return ctx_->th->verify(m.cert, vote_digest(m.slot, m.epoch, m.value));
  });
}

bool LinearNode::proof_verifies(const Delivery<Msg>& env) const {
  const Msg& m = env.msg();
  return ctx_->verdicts.get(round_, env.record, [&] {
    return ctx_->th->verify(
        m.proof, m.kind == Kind::kCommitProof
                     ? commit_digest(m.slot, m.cert_epoch, m.value)
                     : accuse_digest(m.accused));
  });
}

void LinearNode::process_inbox(Round r, std::span<const Delivery<Msg>> inbox,
                               RoundApi<Msg>& api) {
  if (fresh_dirty_) {
    std::fill(fresh_accuse_from_.begin(), fresh_accuse_from_.end(), 0);
    fresh_pairs_.clear();
    fresh_dirty_ = false;
  }
  for (const auto& env : inbox) {
    const Msg& m = env.msg();
    switch (m.kind) {
      case Kind::kAccuse:
      case Kind::kAccuseForward:
        handle_accuse(env, api);
        break;
      case Kind::kCorruptProof: {
        if (m.accused >= ctx_->n) break;
        if (corrupt_proof_have_[m.accused]) break;
        if (!proof_verifies(env)) break;
        corrupt_proof_have_[m.accused] = 1;
        corrupt_proof_sent_[m.accused] = 1;  // aggregate already public
        corrupt_proof_sig_[m.accused] = m.proof;
        relay_held_proof(m.accused, api);
        break;
      }
      case Kind::kCommitProof:
        if (commit_proof_inert(m.slot, m.cert_epoch)) break;
        if (proof_verifies(env)) {
          maybe_commit(m.slot, m.cert_epoch, m.value, m.proof, r, api);
        }
        break;
      // A certificate no fresher than the one held, on a forward of a value
      // this epoch already saw or on its own, changes nothing whether or
      // not it verifies, so it is dropped before the check: most forwards
      // and certificates repeat what the node holds.
      case Kind::kCollect:
        if (m.has_cert && m.slot == cur_slot_ && fresher(m.cert_epoch) &&
            ctx_->th->verify(m.cert,
                             vote_digest(m.slot, m.cert_epoch, m.value))) {
          note_cert(m.slot, m.cert_epoch, m.value, m.cert);
        }
        break;
      case Kind::kPropForward: {
        const bool known =
            std::find(prop_values_seen_.begin(), prop_values_seen_.end(),
                      m.value) != prop_values_seen_.end();
        if (known && !(m.has_cert && fresher(m.cert_epoch))) break;
        if (validate_proposal(env)) {
          if (!known) prop_values_seen_.push_back(m.value);
          if (prop_values_seen_.size() >= 2) equivocation_ = true;
          if (m.has_cert) note_cert(m.slot, m.cert_epoch, m.value, m.cert);
        }
        break;
      }
      case Kind::kCert:
      case Kind::kCertForward:
        if (m.slot == cur_slot_ && fresher(m.epoch) && cert_verifies(env)) {
          note_cert(m.slot, m.epoch, m.value, m.cert);
        }
        break;
      case Kind::kVote:
        // Leader-side collection; validated in do_certificate's path here.
        if (cur_leader() == id_ && m.slot == cur_slot_ &&
            m.epoch == cur_epoch_ && lead_proposed_ &&
            m.value == lead_value_ && m.share.signer < ctx_->n &&
            !lead_vote_from_.get(m.share.signer) &&
            ctx_->th->verify_share(
                m.share, vote_digest(cur_slot_, cur_epoch_, lead_value_))) {
          lead_vote_from_.set(m.share.signer);
          lead_votes_.push_back(m.share);
        }
        break;
      case Kind::kCertVote:
        if (cur_leader() == id_ && m.slot == cur_slot_ &&
            m.epoch == cur_epoch_ && lead_proposed_ &&
            m.value == lead_value_ && m.share.signer < ctx_->n &&
            !lead_cert_vote_from_.get(m.share.signer) &&
            ctx_->th->verify_share(
                m.share, commit_digest(cur_slot_, cur_epoch_, lead_value_))) {
          lead_cert_vote_from_.set(m.share.signer);
          lead_cert_votes_.push_back(m.share);
        }
        break;
      case Kind::kPropose:
      case Kind::kQuery1:
      case Kind::kQuery2:
        // Handled by the offset-specific steps below.
        break;
      case Kind::kKindCount:
        break;
    }
  }
}

void LinearNode::do_collect(RoundApi<Msg>& api) {
  sent_collect_ = true;
  collect_had_cert_ = have_freshest_;
  collect_epoch_ = freshest_epoch_;
  const NodeId leader = cur_leader();
  if (leader == id_) return;  // the leader knows its own freshest cert
  Msg m;
  m.kind = Kind::kCollect;
  m.slot = cur_slot_;
  m.epoch = cur_epoch_;
  m.has_cert = have_freshest_;
  if (have_freshest_) {
    m.cert_epoch = freshest_epoch_;
    m.value = freshest_value_;
    m.cert = freshest_cert_;
  }
  out(api, leader, m);
}

Msg LinearNode::build_fresh_proposal(Value v) const {
  Msg m;
  m.kind = Kind::kPropose;
  m.slot = cur_slot_;
  m.epoch = cur_epoch_;
  m.value = v;
  m.has_cert = false;
  m.sig = ctx_->registry->sign(id_, prop_digest(m));
  return m;
}

void LinearNode::do_propose(RoundApi<Msg>& api) {
  if (cur_leader() != id_ || lead_proposed_) return;
  lead_proposed_ = true;
  if (dev_ != nullptr && dev_->override_propose(*this, api)) {
    lead_value_ = kBotValue;  // a deviating leader forfeits vote collection
    return;
  }
  Msg m;
  m.kind = Kind::kPropose;
  m.slot = cur_slot_;
  m.epoch = cur_epoch_;
  if (have_freshest_) {
    m.value = freshest_value_;
    m.has_cert = true;
    m.cert_epoch = freshest_epoch_;
    m.cert = freshest_cert_;
  } else {
    m.value = cur_epoch_ == 0 ? ctx_->input_for_slot(cur_slot_) : Value{0};
    m.has_cert = false;
  }
  m.sig = ctx_->registry->sign(id_, prop_digest(m));
  lead_value_ = m.value;
  out_multicast(api, m);
}

void LinearNode::do_propagate1(std::span<const Delivery<Msg>> inbox,
                               RoundApi<Msg>& api) {
  for (const auto& env : inbox) {
    const Msg& m = env.msg();
    if (m.kind != Kind::kPropose) continue;
    if (!validate_proposal(env)) continue;
    if (std::find(prop_values_seen_.begin(), prop_values_seen_.end(),
                  m.value) == prop_values_seen_.end()) {
      prop_values_seen_.push_back(m.value);
    }
    if (m.has_cert) note_cert(m.slot, m.cert_epoch, m.value, m.cert);
    // Freshness: the certificate must be at least as fresh as what this
    // node sent in Collect (bot if it sent bot).
    const bool fresh_enough =
        !collect_had_cert_ || (m.has_cert && m.cert_epoch >= collect_epoch_);
    if (fresh_enough && !propagated_) {
      propagated_ = true;
      propagated_value_ = m.value;
      propagated_prop_ = m;
      propagated_prop_.kind = Kind::kPropForward;
      out_group(api, ctx_->expander->neighbors(id_), propagated_prop_);
    }
  }
  if (prop_values_seen_.size() >= 2) equivocation_ = true;
}

void LinearNode::issue_accuse(NodeId v, RoundApi<Msg>& api) {
  if (accused_by_me_.get(v)) return;
  accused_by_me_.set(v);
  if (v != id_) ++accused_others_;
  {
    trace::Event ev;
    ev.kind = trace::EventKind::kAccusation;
    ev.round = round_;
    ev.slot = cur_slot_;
    ev.node = id_;
    ev.subject = v;
    trace::emit(ctx_->trace, ev);
  }
  Msg m;
  m.kind = Kind::kAccuse;
  m.slot = cur_slot_;
  m.accused = v;
  m.share = ctx_->th->share(id_, accuse_digest(v));
  // Record our own accusation immediately: helper selection in the same
  // round must already exclude nodes we just accused.
  if (!accuse_seen_.get(id_, v)) {
    accuse_seen_.set(id_, v);
    ctx_->hold_accuse_share(id_, v, m.share);
    if (!corrupt_proof_have_[v]) ++accuse_count_[v];
  }
  out_multicast(api, m);
}

void LinearNode::do_vote(RoundApi<Msg>& api) {
  if (equivocation_) {
    issue_accuse(cur_leader(), api);
    return;
  }
  if (!propagated_) return;
  if (cur_leader() == id_) {
    // The leader votes for its own proposal by injecting its share.
    Msg m;
    m.kind = Kind::kVote;
    m.slot = cur_slot_;
    m.epoch = cur_epoch_;
    m.value = propagated_value_;
    m.share = ctx_->th->share(
        id_, vote_digest(cur_slot_, cur_epoch_, propagated_value_));
    if (!lead_vote_from_.get(id_)) {
      lead_vote_from_.set(id_);
      lead_votes_.push_back(m.share);
    }
    return;
  }
  Msg m;
  m.kind = Kind::kVote;
  m.slot = cur_slot_;
  m.epoch = cur_epoch_;
  m.value = propagated_value_;
  m.share = ctx_->th->share(
      id_, vote_digest(cur_slot_, cur_epoch_, propagated_value_));
  out(api, cur_leader(), m);
}

void LinearNode::do_certificate(RoundApi<Msg>& api) {
  if (cur_leader() != id_ || !lead_proposed_ || lead_cert_made_) return;
  if (lead_votes_.size() < ctx_->n - ctx_->f) return;
  lead_cert_made_ = true;
  Msg m;
  m.kind = Kind::kCert;
  m.slot = cur_slot_;
  m.epoch = cur_epoch_;
  m.value = lead_value_;
  m.cert = ctx_->th->combine(std::span<const SigShare>(lead_votes_),
                             vote_digest(cur_slot_, cur_epoch_, lead_value_));
  note_cert(cur_slot_, cur_epoch_, lead_value_, m.cert);
  {
    trace::Event ev;
    ev.kind = trace::EventKind::kCertFormed;
    ev.round = round_;
    ev.slot = cur_slot_;
    ev.epoch = cur_epoch_;
    ev.node = id_;
    ev.value = lead_value_;
    ev.detail = "cert";
    trace::emit(ctx_->trace, ev);
  }
  out_multicast(api, m);
}

void LinearNode::do_propagate2(std::span<const Delivery<Msg>> inbox,
                               RoundApi<Msg>& api) {
  if (epoch_got_cert_) return;
  for (const auto& env : inbox) {
    const Msg& m = env.msg();
    if (m.kind != Kind::kCert || m.slot != cur_slot_ ||
        m.epoch != cur_epoch_) {
      continue;
    }
    if (!cert_verifies(env)) continue;
    epoch_got_cert_ = true;
    Msg fwd = m;
    fwd.kind = Kind::kCertForward;
    out_group(api, ctx_->expander->neighbors(id_), fwd);
    Msg cv;
    cv.kind = Kind::kCertVote;
    cv.slot = cur_slot_;
    cv.epoch = cur_epoch_;
    cv.value = m.value;
    cv.share = ctx_->th->share(
        id_, commit_digest(cur_slot_, cur_epoch_, m.value));
    if (cur_leader() == id_) {
      if (!lead_cert_vote_from_.get(id_)) {
        lead_cert_vote_from_.set(id_);
        lead_cert_votes_.push_back(cv.share);
      }
    } else {
      out(api, cur_leader(), cv);
    }
    break;
  }
}

void LinearNode::do_commit(RoundApi<Msg>& api) {
  if (cur_leader() != id_ || !lead_proposed_ || lead_proof_made_) return;
  if (lead_cert_votes_.size() < ctx_->n - ctx_->f) return;
  lead_proof_made_ = true;
  const Msg m = commit_proof_msg(
      cur_slot_, cur_epoch_, lead_value_,
      ctx_->th->combine(std::span<const SigShare>(lead_cert_votes_),
                        commit_digest(cur_slot_, cur_epoch_, lead_value_)));
  {
    trace::Event ev;
    ev.kind = trace::EventKind::kCertFormed;
    ev.round = round_;
    ev.slot = cur_slot_;
    ev.epoch = cur_epoch_;
    ev.node = id_;
    ev.value = lead_value_;
    ev.detail = "commit-proof";
    trace::emit(ctx_->trace, ev);
  }
  out_multicast(api, m);
}

std::optional<NodeId> LinearNode::pick_helper(NodeId leader) const {
  for (NodeId v = 0; v < ctx_->n; ++v) {
    if (v == id_) continue;
    if (accused_by_me_.get(v)) continue;
    if (accuse_seen_.get(v, leader)) continue;
    return v;
  }
  return std::nullopt;
}

std::optional<NodeId> LinearNode::expected_responder(NodeId querier,
                                                     NodeId leader) const {
  for (NodeId w = 0; w < ctx_->n; ++w) {
    if (w == querier) continue;
    if (accuse_seen_.get(querier, w)) continue;
    if (accuse_seen_.get(w, leader)) continue;
    return w;
  }
  return std::nullopt;
}

void LinearNode::do_query1(RoundApi<Msg>& api) {
  if (committed_) return;
  issue_accuse(cur_leader(), api);
  if (!ctx_->opts.use_query_path) return;
  auto helper = pick_helper(cur_leader());
  if (!helper.has_value()) return;
  query_target_ = helper;
  Msg m;
  m.kind = Kind::kQuery1;
  m.slot = cur_slot_;
  m.epoch = cur_epoch_;
  out(api, *helper, m);
}

void LinearNode::respond_to_querier(NodeId v, RoundApi<Msg>& api) {
  if (!accuse_seen_.get(v, cur_leader())) return;  // v must accuse L_i
  auto exp = expected_responder(v, cur_leader());
  if (!exp.has_value() || *exp != id_) return;
  out(api, v, held_commit_proof());
}

void LinearNode::do_respond1(std::span<const Delivery<Msg>> inbox,
                             RoundApi<Msg>& api) {
  if (!have_commit_proof_ || !ctx_->opts.use_query_path) return;
  if (inbox.empty() && fresh_pairs_.empty()) return;  // nothing to answer
  BitVec& answered = answered_scratch_;  // reused; avoids per-round alloc
  answered.clear_all();
  for (const auto& env : inbox) {
    const Msg& m = env.msg();
    if (m.kind != Kind::kQuery1 || m.slot != cur_slot_ ||
        m.epoch != cur_epoch_) {
      continue;
    }
    if (answered.get(env.from)) continue;
    answered.set(env.from);
    respond_to_querier(env.from, api);
  }
  // Implicit queries: a FRESH accusation of this epoch's leader announces
  // "I am starved" to everyone at once. Answering it directly closes the
  // race in which the starved node's round-Query-1 helper choice (made
  // before the simultaneous accusations landed) targeted another equally
  // starved node. Cost is the same as an explicit query1: at most one
  // response, from the unique expected responder.
  for (const auto& [accuser, target] : fresh_pairs_) {
    if (target != cur_leader() || answered.get(accuser)) continue;
    answered.set(accuser);
    respond_to_querier(accuser, api);
  }
}

void LinearNode::do_query2(RoundApi<Msg>& api) {
  if (committed_ || !ctx_->opts.use_query_path) return;
  if (!query_target_.has_value()) return;
  // Re-select the helper with current knowledge: the simultaneous
  // Query-1 accusations of L_i have arrived by now, so every equally
  // starved honest node is excluded, and the selection agrees with the
  // predicate each responder evaluated last round.
  auto v = pick_helper(cur_leader());
  if (!v.has_value()) return;
  if (*v == *query_target_) {
    // The node we actually queried passes the predicate and stayed
    // silent: provably withholding. Accuse it and query everyone.
    ++expensive_epochs_;
    issue_accuse(*v, api);
    Msg m = build_query2();
    out_multicast(api, m);
  } else {
    // The helper choice shifted under the fresh accusations: the new
    // candidate never received a query, so it gets a (late) query1 now,
    // answered in the Respond-2 round; no accusation is justified yet.
    query_target_ = v;
    Msg m;
    m.kind = Kind::kQuery1;
    m.slot = cur_slot_;
    m.epoch = cur_epoch_;
    out(api, *v, m);
  }
}

Msg LinearNode::build_query2() const {
  Msg m;
  m.kind = Kind::kQuery2;
  m.slot = cur_slot_;
  m.epoch = cur_epoch_;
  return m;
}

void LinearNode::do_respond2(std::span<const Delivery<Msg>> inbox,
                             RoundApi<Msg>& api) {
  if (!have_commit_proof_ || !ctx_->opts.use_query_path) return;
  if (inbox.empty()) return;  // responses are driven by queries alone
  BitVec& answered = answered_scratch_;  // reused; avoids per-round alloc
  answered.clear_all();
  for (const auto& env : inbox) {
    const Msg& m = env.msg();
    if (m.slot != cur_slot_ || m.epoch != cur_epoch_) continue;
    if (m.kind == Kind::kQuery2) {
      const NodeId v = env.from;
      // Respond only when v's query is backed by a fresh accusation this
      // round — this is what bounds Respond-2 to n responses per node.
      if (!fresh_accuse_from_[v] || answered.get(v)) continue;
      answered.set(v);
      out(api, v, held_commit_proof());
    } else if (m.kind == Kind::kQuery1) {
      // A late query1 from the Query-2 round (helper re-selection);
      // answered under the exact Respond-1 predicate.
      if (answered.get(env.from)) continue;
      answered.set(env.from);
      respond_to_querier(env.from, api);
    }
  }
}

void LinearNode::on_round(Round r, std::span<const Delivery<Msg>> inbox,
                          const TrafficView<Msg>& rushed,
                          RoundApi<Msg>& api) {
  (void)rushed;
  round_ = r;
  const Schedule& sched = ctx_->sched;
  // Schedule position. Rounds arrive consecutively, so the common case is
  // an incremental step of the cached (slot, epoch, offset) triple; the
  // full divisions only run on a cache miss (first round, or a test
  // driving rounds out of order).
  Slot k;
  Epoch i;
  if (r == sched_next_r_) {
    k = sched_k_;
    i = sched_i_;
    offset_ = sched_off_;
  } else {
    k = sched.slot_of(r);
    i = sched.epoch_of(r);
    offset_ = sched.offset_of(r);
  }
  sched_next_r_ = r + 1;
  sched_k_ = k;
  sched_i_ = i;
  sched_off_ = offset_ + 1;
  if (sched_off_ == Schedule::kRoundsPerEpoch) {
    sched_off_ = 0;
    if (++sched_i_ == sched.epochs_per_slot()) {
      sched_i_ = 0;
      ++sched_k_;
    }
  }

  if (k != cur_slot_) {
    reset_slot(k);
    reset_epoch(i);
  } else if (i != cur_epoch_) {
    reset_epoch(i);
  }

  if (dev_ != nullptr && dev_->silent(r)) return;

  // "At any point" rules first. An empty inbox with clean fresh-accusation
  // buffers has nothing to do — the common case for gated nodes.
  if (!inbox.empty() || fresh_dirty_) process_inbox(r, inbox, api);

  // Progress steps are gated: skip if committed in this slot or the epoch
  // leader has a corrupt-proof. Respond-1/2 stay live (see header).
  const bool gated = committed_ || corrupt_proof_have_[cur_leader()];

  switch (offset_) {
    case 0:
      if (!gated) do_collect(api);
      break;
    case 1:
      if (!gated) do_propose(api);
      break;
    case 2:
      if (!gated) do_propagate1(inbox, api);
      break;
    case 3:
      if (!gated) do_vote(api);
      break;
    case 4:
      if (!gated) do_certificate(api);
      break;
    case 5:
      if (!gated) do_propagate2(inbox, api);
      break;
    case 6:
      if (!gated) do_commit(api);
      break;
    case 7:
      if (!gated) do_query1(api);
      break;
    case 8:
      do_respond1(inbox, api);
      break;
    case 9:
      if (!gated) do_query2(api);
      break;
    case 10:
      do_respond2(inbox, api);
      break;
    default:
      AMBB_CHECK(false);
  }

  if (dev_ != nullptr) dev_->extra(*this, r, offset_, api);
}

Round LinearNode::next_wake(Round r) const {
  // on_round tolerates skipped rounds: the schedule cache falls back to
  // divisions and reset_slot/reset_epoch run on the next call. Waking at
  // the epoch/slot start keeps those resets on the same round.
  Round honest = r + 1;
  if (committed_) {
    const std::uint64_t rps = ctx_->sched.rounds_per_slot();
    honest = (r / rps + 1) * rps;
  } else if (corrupt_proof_have_[cur_leader()]) {
    honest = (r / Schedule::kRoundsPerEpoch + 1) * Schedule::kRoundsPerEpoch;
  }
  return dev_ == nullptr ? honest : dev_->next_wake(*this, r, honest);
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

void Context::hold_accuse_share(NodeId accuser, NodeId target,
                                const SigShare& s) const {
  const std::size_t i = std::size_t{accuser} * n + target;
  AMBB_CHECK(target < n && i < accuse_shares.size());
  SigShare& entry = accuse_shares[i];
  AMBB_CHECK_MSG(entry.signer == kNoNode || entry == s,
                 "accusation share (" << accuser << ", " << target
                                      << ") rewritten with another share");
  entry = s;
}

// Each honest node combines once per convicted target, over about n - f
// entries that all its peers combine over too, so checking each entry at
// every combine made most of a run's share checks (DESIGN.md §14). Entries
// are write-once, so one check per run covers every later use; the first
// still throws on an invalid entry, so a share that reached the table
// around the verdict fails loudly.
ThresholdSig Context::combine_accusations(const BitMatrix& accepted,
                                          NodeId target) const {
  const Digest d = accuse_digest(target);
  std::size_t distinct = 0;
  for (NodeId a = 0; a < n; ++a) {
    if (!accepted.get(a, target)) continue;
    ++distinct;
    if (accuse_checked.get(a, target)) continue;
    const SigShare& s = accuse_share(a, target);
    AMBB_CHECK_MSG(s.signer == a && th->verify_share(s, d),
                   "invalid share passed to combine");
    accuse_checked.set(a, target);
  }
  return th->aggregate(distinct, d);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

Context make_context(const RunConfig& cfg, RunState& run, const Options& opts,
                     const KeyRegistry& registry, const ThresholdScheme& th,
                     const Graph& expander) {
  Context ctx;
  ctx.n = cfg.n;
  ctx.f = cfg.f;
  ctx.wire = WireModel{cfg.n, cfg.kappa_bits, cfg.value_bits};
  ctx.sched = Schedule{cfg.f};
  ctx.registry = &registry;
  ctx.th = &th;
  ctx.expander = &expander;
  ctx.commits = &run.commits;
  ctx.opts = opts;
  ctx.input_for_slot = run.input_for_slot;
  ctx.sender_of = run.sender_of;
  ctx.trace = cfg.trace;
  ctx.nodes.reserve(cfg.n);
  for (NodeId t = 0; t < cfg.n; ++t) ctx.nodes.push_back(t);
  ctx.accuse_shares.resize(std::size_t{cfg.n} * cfg.n);
  ctx.accuse_checked = BitMatrix(cfg.n, cfg.n);
  return ctx;
}

RunResult run_linear(const LinearConfig& cfg) {
  AMBB_CHECK_MSG(cfg.n >= 4, "need at least 4 nodes");
  AMBB_CHECK_MSG(
      cfg.eps <= 0.5 && cfg.f <= floor_frac(0.5 - cfg.eps, cfg.n),
      "Algorithm 4 requires f <= (1/2 - eps) n; got f=" << cfg.f << " n="
                                                        << cfg.n);

  KeyRegistry registry(cfg.n, cfg.seed);
  ThresholdScheme th(registry, cfg.n - cfg.f);
  Graph expander = build_expander(cfg.n, cfg.eps, cfg.seed ^ 0xE0A11DE5ULL);
  RunState run(cfg, kind_names(), /*input_salt=*/0x17057EEDULL);
  // Steady-state charges never regrow the per-slot table (pinned by
  // test_alloc_hotpath).
  run.ledger.reserve_slots(cfg.slots + 1);
  if (cfg.input_with_log) {
    run.input_for_slot = [fn = cfg.input_with_log,
                          &commits = run.commits](Slot s) {
      return fn(s, commits);
    };
  }

  const Context ctx =
      make_context(cfg, run, cfg.opts, registry, th, expander);

  Family<Msg, CostPolicy> fam;
  fam.policy = CostPolicy{ctx.wire, ctx.sched};
  fam.rounds_per_slot = ctx.sched.rounds_per_slot();
  fam.node = [&ctx](NodeId v) { return std::make_unique<LinearNode>(v, &ctx); };
  // No-op Deviation marker: the corrupted-seat replica of a schedule
  // adversary is behaviourally honest, but any honest-only invariant in
  // LinearNode must treat it as Byzantine (it may start from fresh state
  // mid-run).
  fam.replica = [&ctx](NodeId v) {
    return std::make_unique<LinearNode>(v, &ctx,
                                        std::make_unique<Deviation>());
  };
  fam.named = [&ctx](const std::string& spec, std::uint64_t seed) {
    return make_adversary(spec, &ctx, seed);
  };
  fam.hooks = &cfg;
  return drive(cfg, run, fam, [&ctx](Round r, Slot k, std::uint32_t off) {
    if (off % Schedule::kRoundsPerEpoch != 0) return;
    trace::Event ev;
    ev.kind = trace::EventKind::kEpochPhase;
    ev.round = r;
    ev.slot = k;
    ev.epoch = off / Schedule::kRoundsPerEpoch;
    ev.node = ctx.leader(k, ev.epoch);
    ev.detail = "epoch";
    ctx.trace->on_event(ev);
  });
}

}  // namespace ambb::linear
