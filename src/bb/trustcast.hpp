// TrustCast (Algorithm 5.1, simplified from Wan et al. TCC'20).
//
// A designated sender multicasts a message; every node either receives it
// or obtains provable evidence of the sender's misbehavior, expressed as
// the sender's removal from a locally maintained trust graph. Properties
// (for honest u, v, starting from a complete graph and T >= n):
//   Transferability: G_u at round t+1 is a subgraph of G_v at round t.
//   Termination:     by round n, u received the message or removed S.
//   Integrity:       the edge (u, v) between honest nodes is never removed.
//
// The trust graph and all accusation bookkeeping persist across slots —
// that is the amortization: each (accuser, accused) pair multicasts at
// most one accusation over the entire execution, bounding maintenance at
// O(kappa n^4) total (Section 5.1).
//
// This header provides the reusable per-node engine; Algorithm 5.2
// (quadratic_bb.hpp) composes it with a Dolev-Strong vote on sender
// corruption.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/signer.hpp"
#include "graph/trust_graph.hpp"
#include "sim/commit_log.hpp"
#include "sim/net.hpp"

namespace ambb::quad {

enum class Kind : MsgKind {
  kProp = 0,      ///< sender's signed proposal (and its forwards)
  kAccuse,        ///< <accuse, v>_w: removes trust edge (v, w)
  kCorrupt,       ///< Dolev-Strong phase vote <corrupt, S_k>_u
  kKindCount
};

const char* kind_name(Kind k);
std::vector<std::string> kind_names();

struct Msg {
  Kind kind = Kind::kProp;
  Slot slot = 0;
  Value value = 0;
  NodeId accused = kNoNode;  ///< kAccuse / kCorrupt target
  Signature sig{};           ///< sender / accuser / voter signature
};

std::uint64_t size_bits(const Msg& m, const WireModel& wire);

Digest prop_digest(Slot k, Value v);
Digest accuse_digest(NodeId accused);
Digest corrupt_digest(NodeId target);

/// Schedule of Algorithm 5.2: each slot takes n + f + 3 rounds
/// (round 0 send, rounds 1..n TrustCast, rounds n+1..n+f+2 Dolev-Strong).
struct Schedule {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  std::uint64_t rounds_per_slot() const {
    return static_cast<std::uint64_t>(n) + f + 3;
  }
  Slot slot_of(Round r) const {
    return static_cast<Slot>(r / rounds_per_slot()) + 1;
  }
  std::uint32_t offset_of(Round r) const {
    return static_cast<std::uint32_t>(r % rounds_per_slot());
  }
};

struct Context {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  WireModel wire;
  Schedule sched;
  const KeyRegistry* registry = nullptr;
  CommitLog* commits = nullptr;
  std::function<Value(Slot)> input_for_slot;
  std::function<NodeId(Slot)> sender_of;
  trace::TraceSink* trace = nullptr;  ///< optional event sink, not owned
  /// Signature verdict of each kProp / kAccuse / kCorrupt record of the
  /// round, shared by its recipients (the check does not depend on them).
  mutable RecordVerdicts verdicts;
};

/// Accounting policy, evaluated once per traffic record.
struct CostPolicy {
  WireModel wire;
  Schedule sched;

  std::uint64_t size_bits(const Msg& m) const;
  MsgKind kind(const Msg& m) const { return static_cast<MsgKind>(m.kind); }
  Slot slot(const Msg& m, Round sent_round) const {
    return m.slot != 0 ? m.slot : sched.slot_of(sent_round);
  }
};

using Sim = Simulation<Msg, CostPolicy>;

/// Per-node TrustCast state machine. Owns the node's persistent trust
/// graph and accusation dedup state; the caller (QuadNode) drives
/// handle() for every inbound message, settle() once after its inbox, and
/// tc_round_action() during TrustCast rounds.
///
/// Pruning is lazy (DESIGN.md §18): an accepted accusation removes its
/// edge and leaves the graph dirty, and the prune runs once, before the
/// next read of vertex presence. Edges only ever disappear, so one prune
/// after a batch of removals yields the graph that a prune after each
/// removal would.
class TrustCastEngine {
 public:
  TrustCastEngine(NodeId id, const Context* ctx);

  void begin_slot(Slot k);

  /// Current simulator round, for event timestamps only (never feeds
  /// back into protocol decisions). Callers set it once per round.
  void set_round(Round r) { round_ = r; }

  /// Process one inbound message: prop forwarding + equivocation, edge
  /// removals + accusation forwarding, pruning. Safe to call in every
  /// round of the slot (removals must keep flowing during the DS phase
  /// for transferability). Corrupt-vote messages are ignored here.
  /// `allow_send = false` updates local state but suppresses the
  /// forwarding an honest node would do (Byzantine colluders use this).
  /// Leaves the graph unpruned until settle().
  void handle(const Delivery<Msg>& d, RoundApi<Msg>& api,
              bool allow_send = true);

  /// Run the prune that handle() deferred, if any.
  void settle();

  /// The sender's own round-0 action (honest sender only).
  void send_proposal(RoundApi<Msg>& api);

  /// Distance-based accusation rule for TrustCast round 1 <= t <= n.
  void tc_round_action(std::uint32_t t, RoundApi<Msg>& api);

  // ---- state queries (settled graph only) ----
  const TrustGraph& graph() const {
    AMBB_CHECK(!prune_pending_);
    return graph_;
  }
  bool sender_present() const { return graph().has_vertex(sender_); }
  /// The unique value received from the sender this slot (nullopt if none
  /// or if the sender equivocated — in which case it is also removed).
  std::optional<Value> received_value() const;
  /// True once any proposal value from this slot's sender was seen (the
  /// distance-based accusation rule is off from then on).
  bool has_prop() const { return !prop_values_.empty(); }
  NodeId slot_sender() const { return sender_; }
  Slot slot() const { return slot_; }

 private:
  /// Remove edge (a, b) and emit its kTrustEdgeRemoved event; the prune
  /// it calls for is left pending.
  void remove_edge(NodeId a, NodeId b);
  void issue_accuse(NodeId v, RoundApi<Msg>& api);

  NodeId id_;
  const Context* ctx_;
  TrustGraph graph_;
  bool prune_pending_ = false;  ///< an edge went since the last prune

  // persistent: one multicast per (accuser, accused) pair, ever.
  BitMatrix accuse_sent_seen_;  ///< [accuser][accused]

  // per slot
  Slot slot_ = 0;
  NodeId sender_ = kNoNode;
  std::vector<Value> prop_values_;  ///< distinct sender values seen (<= 2)
  std::uint32_t props_forwarded_ = 0;
  Round round_ = 0;  ///< event timestamps only
};

}  // namespace ambb::quad
