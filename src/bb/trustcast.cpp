#include "bb/trustcast.hpp"

#include <algorithm>

#include "common/byte_buf.hpp"
#include "common/check.hpp"
#include "crypto/intern.hpp"

namespace ambb::quad {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kProp: return "prop";
    case Kind::kAccuse: return "accuse";
    case Kind::kCorrupt: return "corrupt";
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
    case Kind::kProp:
      bits += wire.value_bits + wire.sig_bits();
      break;
    case Kind::kAccuse:
    case Kind::kCorrupt:
      bits += wire.id_bits() + wire.sig_bits();
      break;
    case Kind::kKindCount:
      AMBB_CHECK(false);
  }
  return bits;
}

std::uint64_t CostPolicy::size_bits(const Msg& m) const {
  return quad::size_bits(m, wire);
}

// Hot-path digests: thread-local scratch encoder + interning cache (the
// tag keys the cache only; digest bytes are unchanged).

Digest prop_digest(Slot k, Value v) {
  Encoder& e = Encoder::scratch();
  e.reserve(32);
  e.put_tag("tc-prop");
  e.put_u32(k);
  e.put_u64(v);
  return DigestCache::local().hash("tc-prop", e.view());
}

Digest accuse_digest(NodeId accused) {
  Encoder& e = Encoder::scratch();
  e.reserve(16);
  e.put_tag("tc-accuse");
  e.put_u32(accused);
  return DigestCache::local().hash("tc-accuse", e.view());
}

Digest corrupt_digest(NodeId target) {
  Encoder& e = Encoder::scratch();
  e.reserve(16);
  e.put_tag("tc-corrupt");
  e.put_u32(target);
  return DigestCache::local().hash("tc-corrupt", e.view());
}

TrustCastEngine::TrustCastEngine(NodeId id, const Context* ctx)
    : id_(id),
      ctx_(ctx),
      graph_(ctx->n),
      accuse_sent_seen_(ctx->n, ctx->n) {}

void TrustCastEngine::begin_slot(Slot k) {
  slot_ = k;
  sender_ = ctx_->sender_of(k);
  prop_values_.clear();
  props_forwarded_ = 0;
}

std::optional<Value> TrustCastEngine::received_value() const {
  if (prop_values_.size() == 1) return prop_values_[0];
  return std::nullopt;
}

void TrustCastEngine::remove_edge(NodeId a, NodeId b) {
  graph_.remove_edge(a, b);
  prune_pending_ = true;
  trace::Event ev;
  ev.kind = trace::EventKind::kTrustEdgeRemoved;
  ev.round = round_;
  ev.slot = slot_;
  ev.node = id_;
  ev.subject = a;
  ev.peer = b;
  ev.detail = "accusation";
  trace::emit(ctx_->trace, ev);
}

void TrustCastEngine::settle() {
  if (!prune_pending_) return;
  graph_.prune_unconnected(id_);
  prune_pending_ = false;
}

void TrustCastEngine::issue_accuse(NodeId v, RoundApi<Msg>& api) {
  if (accuse_sent_seen_.get(id_, v)) return;
  accuse_sent_seen_.set(id_, v);
  {
    trace::Event ev;
    ev.kind = trace::EventKind::kAccusation;
    ev.round = round_;
    ev.slot = slot_;
    ev.node = id_;
    ev.subject = v;
    trace::emit(ctx_->trace, ev);
  }
  // Eager: tc_round_action reads has_vertex after each accusation.
  remove_edge(id_, v);
  settle();
  Msg m;
  m.kind = Kind::kAccuse;
  m.slot = slot_;
  m.accused = v;
  m.sig = ctx_->registry->sign(id_, accuse_digest(v));
  api.multicast(m);
}

void TrustCastEngine::send_proposal(RoundApi<Msg>& api) {
  AMBB_CHECK(id_ == sender_);
  Msg m;
  m.kind = Kind::kProp;
  m.slot = slot_;
  m.value = ctx_->input_for_slot(slot_);
  m.sig = ctx_->registry->sign(id_, prop_digest(slot_, m.value));
  prop_values_.push_back(m.value);
  ++props_forwarded_;
  api.multicast(m);
}

void TrustCastEngine::handle(const Delivery<Msg>& d, RoundApi<Msg>& api,
                             bool allow_send) {
  const Msg& m = d.msg();
  switch (m.kind) {
    case Kind::kProp: {
      if (m.slot != slot_) return;
      if (m.sig.signer != sender_) return;
      // A known value is dropped whatever its signature, so test that
      // first: most forwards repeat the value the node already holds.
      if (std::find(prop_values_.begin(), prop_values_.end(), m.value) !=
          prop_values_.end()) {
        return;
      }
      const bool valid = ctx_->verdicts.get(round_, d.record, [&] {
        return ctx_->registry->verify(m.sig, prop_digest(m.slot, m.value));
      });
      if (!valid) return;
      prop_values_.push_back(m.value);
      // Forward each of the (at most two) distinct sender messages once.
      if (props_forwarded_ < 2 && allow_send) {
        ++props_forwarded_;
        api.multicast(m);
      }
      if (prop_values_.size() < 2 || sender_ == id_) break;
      settle();
      if (graph_.has_vertex(sender_)) {
        // Equivocation: remove the sender outright.
        graph_.remove_vertex(sender_);
        graph_.prune_unconnected(id_);
        trace::Event ev;
        ev.kind = trace::EventKind::kTrustEdgeRemoved;
        ev.round = round_;
        ev.slot = slot_;
        ev.node = id_;
        ev.subject = sender_;
        ev.detail = "equivocation";
        trace::emit(ctx_->trace, ev);
      }
      break;
    }
    case Kind::kAccuse: {
      const NodeId accuser = m.sig.signer;
      const NodeId accused = m.accused;
      if (accuser >= ctx_->n || accused >= ctx_->n || accuser == accused)
        return;
      if (accuse_sent_seen_.get(accuser, accused)) return;  // duplicate
      const bool valid = ctx_->verdicts.get(round_, d.record, [&] {
        return ctx_->registry->verify(m.sig, accuse_digest(accused));
      });
      if (!valid) return;
      accuse_sent_seen_.set(accuser, accused);
      remove_edge(accuser, accused);
      // Forward once per (accuser, accused) pair, ever.
      if (allow_send) {
        Msg fwd = m;
        fwd.slot = slot_;
        api.multicast(fwd);
      }
      break;
    }
    case Kind::kCorrupt:
      break;  // Dolev-Strong phase messages handled by the caller
    case Kind::kKindCount:
      AMBB_CHECK(false);
  }
}

void TrustCastEngine::tc_round_action(std::uint32_t t, RoundApi<Msg>& api) {
  AMBB_CHECK(t >= 1);
  settle();
  if (has_prop()) return;  // received something from the sender
  if (!graph_.has_vertex(sender_)) return;
  const auto dist = graph_.distances_from(sender_);
  for (NodeId v = 0; v < ctx_->n; ++v) {
    if (v == id_ || !graph_.has_vertex(v)) continue;
    if (dist[v] < t) issue_accuse(v, api);  // prunes after each edge
  }
}

}  // namespace ambb::quad
