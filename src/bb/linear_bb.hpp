// Algorithm 4: multi-shot Byzantine broadcast with amortized O(kappa*n)
// communication under f <= (1/2 - eps)n (Section 4 of the paper).
//
// Structure per slot k: f+2 epochs of 11 rounds each; epoch i of slot k
// starts at round 11*((k-1)(f+2) + i). Epoch leader: L_0 = S_k (the slot
// sender), L_i = node i-1 (0-indexed) for 1 <= i <= f+1, so epochs
// 1..f+1 have distinct leaders and at least one is honest.
//
// Round offsets within an epoch:
//   0 Collect      send freshest slot-k certificate (or bot) to L_i
//   1 Propose      leader multicasts <prop, k, i, m, C>_{L_i}
//   2 Propagate-1  forward an acceptably-fresh proposal to expander nbrs
//   3 Vote         accuse on equivocation, else vote share -> leader
//   4 Certificate  leader aggregates n-f votes -> C_{k,i}(m), multicast
//   5 Propagate-2  forward cert to nbrs; cert share -> leader
//   6 Commit       leader aggregates n-f cert shares -> commit-proof,
//                  multicast
//   7 Query-1      missing proof: multicast accuse(L_i), query1 -> helper
//   8 Respond-1    helper with a proof answers its querier
//   9 Query-2      helper failed: multicast accuse(helper) + query2
//  10 Respond-2    nodes with a proof answer fresh-accusation query2s
//
// Two points are under-specified in the paper text; we implement the
// reading required by the paper's own proofs and document it here:
//
//  1. All nodes that miss the commit-proof accuse L_i simultaneously in
//     round Query-1, so a querier cannot know at selection time whether
//     its helper also missed the proof (and an equally starved honest
//     helper cannot respond). Lemma 3's proof ("u would not have sent
//     query1 to L_i") only goes through if the accusation of round
//     Query-2 targets a helper selected with round-Query-2 knowledge,
//     which by then includes all simultaneous Query-1 accusations: the
//     querier re-evaluates "smallest v not accused by me that has not
//     accused L_i" and accuses THAT node (it provably withheld a proof
//     it must hold, or is refusing service). Accusing the stale round-
//     Query-1 target instead would make honest nodes accuse equally
//     starved honest helpers; corrupt-proofs could then form on honest
//     future leaders and termination would break — later epochs cannot
//     rescue a starved node on their own, because committed nodes are
//     gated out of voting and no n-f quorum remains.
//  2. The epoch gate ("runs the following steps if it has neither
//     committed nor received the corrupt-proof of L_i") applies to the
//     progress steps (offsets 0-7 and 9). Respond-1/Respond-2 must keep
//     running after commit — a committed node is exactly the node that
//     holds the commit-proof its querier needs, and Lemma 3 relies on
//     helpers answering. A responder answers with any slot-k commit
//     proof it holds (same wire size).
//
// Cross-slot persistent state (the amortization technique): the set of
// accusations a node has issued and seen, corrupt-proofs, and the derived
// helper-selection order. Every super-linear event consumes a fresh
// accusation pair or a one-time corrupt-proof, bounding the additive cost
// by O(kappa*n^3) (Section 4.2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/signer.hpp"
#include "crypto/threshold.hpp"
#include "graph/expander.hpp"
#include "runner/drive.hpp"
#include "runner/result.hpp"
#include "sim/commit_log.hpp"
#include "sim/net.hpp"

namespace ambb::linear {

enum class Kind : MsgKind {
  kCollect = 0,
  kPropose,
  kPropForward,
  kVote,
  kCert,
  kCertForward,
  kCertVote,
  kCommitProof,
  kAccuse,
  kAccuseForward,
  kCorruptProof,
  kQuery1,
  kQuery2,
  kKindCount
};

const char* kind_name(Kind k);
std::vector<std::string> kind_names();

/// One storage slot per role (DESIGN.md §14): no kind carries both a
/// certificate and a proof, nor both a share and the leader's signature
/// (size_bits), so each pair shares a union. SigShare and Signature are
/// layout-compatible, so a read through either name is defined. The
/// field order leaves two bytes of padding: 96 bytes in all.
struct Msg {
  // User-provided: GCC 12 deletes the implicit one, as a union member has
  // a non-trivial default constructor. The initializers below apply.
  Msg() {}

  Kind kind = Kind::kCollect;
  bool has_cert = false;     ///< Collect/Propose: false encodes bot
  NodeId accused = kNoNode;  ///< Accuse* / CorruptProof
  Value value = 0;
  Slot slot = 0;
  Epoch epoch = 0;
  /// Collect/Propose: the certificate's epoch; CommitProof: the proof's
  /// epoch j.
  Epoch cert_epoch = 0;
  union {
    ThresholdSig cert{};     ///< thsig(vote, k, j, m)
    ThresholdSig proof;      ///< commit-proof or corrupt-proof
  };
  union {
    SigShare share{};        ///< Vote / CertVote / Accuse share
    Signature sig;           ///< leader signature on a proposal
  };
};

/// Exact wire size in bits under the paper's size model.
std::uint64_t size_bits(const Msg& m, const WireModel& wire);

// Signing digests (domain-separated canonical encodings).
Digest vote_digest(Slot k, Epoch i, Value m);
Digest commit_digest(Slot k, Epoch i, Value m);
Digest accuse_digest(NodeId accused);
Digest prop_digest(const Msg& prop);

/// Ablation switches (DESIGN.md experiment A1 and the Momose-Ren-style
/// baseline of Table 1 rows 2-3).
struct Options {
  /// Keep accusation state across slots (the paper's amortization). When
  /// false, all accusation knowledge resets at each slot boundary.
  bool persistent_accusations = true;
  /// Use the Query-1/2 + Respond-1/2 dissemination path.
  bool use_query_path = true;
  /// Every node multicasts the first commit-proof it receives (the
  /// always-forward dissemination of quadratic BBs). Gives O(kappa n^2)
  /// per slot regardless of the adversary.
  bool always_forward_commit_proof = false;

  static Options paper() { return {}; }
  /// Momose-Ren-style O(kappa n^2)-per-slot baseline (see DESIGN.md).
  static Options mr_baseline() { return {false, false, true}; }
  static Options no_memory() { return {false, true, false}; }
  static Options no_query() { return {true, false, false}; }
};

struct Schedule {
  std::uint32_t f = 0;
  static constexpr std::uint32_t kRoundsPerEpoch = 11;

  std::uint32_t epochs_per_slot() const { return f + 2; }
  std::uint64_t rounds_per_slot() const {
    return static_cast<std::uint64_t>(kRoundsPerEpoch) * epochs_per_slot();
  }
  Slot slot_of(Round r) const {
    return static_cast<Slot>(r / rounds_per_slot()) + 1;
  }
  Epoch epoch_of(Round r) const {
    return static_cast<Epoch>((r % rounds_per_slot()) / kRoundsPerEpoch);
  }
  std::uint32_t offset_of(Round r) const {
    return static_cast<std::uint32_t>(r % kRoundsPerEpoch);
  }
};

/// Accounting policy, evaluated by the simulator once per traffic record
/// (once per multicast, once per unicast — never per delivery).
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

/// Execution context shared by all actors of one run; build it with
/// make_context. Read-only apart from `verdicts`, a cache.
struct Context {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  WireModel wire;
  Schedule sched;
  const KeyRegistry* registry = nullptr;
  const ThresholdScheme* th = nullptr;  ///< threshold t = n - f
  const Graph* expander = nullptr;
  CommitLog* commits = nullptr;
  Options opts;
  std::function<Value(Slot)> input_for_slot;
  std::function<NodeId(Slot)> sender_of;
  trace::TraceSink* trace = nullptr;  ///< optional event sink, not owned
  /// 0..n-1: the recipient list of a multicast sent as a group.
  std::vector<NodeId> nodes;
  /// Verdict of each record of the round on the part of its check that
  /// does not depend on the recipient, shared by its recipients: an
  /// accusation's share, a proposal's signature and certificate, a
  /// certificate, a commit-proof, a corrupt-proof. Each record has one
  /// kind, so one table serves all.
  mutable RecordVerdicts verdicts;
  /// Accepted accusation shares of the run, [accuser * n + target]. A
  /// valid share is a function of (accuser, target) alone, so the run
  /// holds each once, not once per node (DESIGN.md §14). A node writes an
  /// entry only when it accepts the pair (handle_accuse after the
  /// record's verdict, issue_accuse for its own share) and reads only
  /// entries of pairs it accepted.
  mutable std::vector<SigShare> accuse_shares;

  NodeId leader(Slot k, Epoch i) const {
    return i == 0 ? sender_of(k) : static_cast<NodeId>((i - 1) % n);
  }
  SigShare& accuse_share(NodeId accuser, NodeId target) const {
    const std::size_t i = std::size_t{accuser} * n + target;
    AMBB_CHECK(target < n && i < accuse_shares.size());
    return accuse_shares[i];
  }
};

/// The Context of one run over `run`'s commit log and inputs and the
/// given keys and expander, with its share table sized. Every Alg-4 run
/// builds its Context here.
Context make_context(const RunConfig& cfg, RunState& run, const Options& opts,
                     const KeyRegistry& registry, const ThresholdScheme& th,
                     const Graph& expander);

class LinearNode;

/// Byzantine deviation hooks. An adversary actor is a LinearNode carrying
/// a Deviation; null means honest. Keeping deviations as explicit hooks on
/// the honest state machine makes each attack's deviation auditable.
class Deviation {
 public:
  virtual ~Deviation() = default;
  /// Drop everything this round (receive-only).
  virtual bool silent(Round) const { return false; }
  /// Filter an outgoing message (selective send / withholding).
  virtual bool drop_send(Round r, std::uint32_t offset, Kind kind,
                         NodeId to) {
    (void)r;
    (void)offset;
    (void)kind;
    (void)to;
    return false;
  }
  /// Take over the leader's Propose step entirely (e.g. equivocate).
  /// Return true if handled.
  virtual bool override_propose(LinearNode& self, RoundApi<Msg>& api) {
    (void)self;
    (void)api;
    return false;
  }
  /// Arbitrary extra traffic at the end of the round.
  virtual void extra(LinearNode& self, Round r, std::uint32_t offset,
                     RoundApi<Msg>& api) {
    (void)self;
    (void)r;
    (void)offset;
    (void)api;
  }
  /// Wake contract of the deviating node (Actor::next_wake); `honest` is
  /// the wake of the honest state machine underneath. The default r + 1
  /// opts out of idle-round elision, as any deviation that may send on
  /// its own (through extra()) must unless it knows it will not.
  virtual Round next_wake(const LinearNode& self, Round r,
                          Round honest) const {
    (void)self;
    (void)honest;
    return r + 1;
  }
};

class LinearNode final : public Actor<Msg> {
 public:
  LinearNode(NodeId id, const Context* ctx,
             std::unique_ptr<Deviation> deviation = nullptr);

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override;

  /// Quiescent until the next slot start once committed, until the next
  /// epoch start while the epoch leader has a corrupt-proof (the progress
  /// steps are gated off and Respond-1/2 answer mail only); otherwise
  /// every round. A Deviation may override the answer.
  Round next_wake(Round r) const override;

  // ---- Introspection (tests + deviations) ----
  NodeId id() const { return id_; }
  const Context& ctx() const { return *ctx_; }
  bool accused(NodeId v) const { return accused_by_me_.get(v); }
  /// How many nodes other than this one it has accused.
  std::uint32_t accused_others() const { return accused_others_; }
  bool seen_accuse(NodeId accuser, NodeId target) const {
    return accuse_seen_.get(accuser, target);
  }
  bool has_corrupt_proof(NodeId v) const { return corrupt_proof_have_[v]; }
  std::uint64_t expensive_epochs() const { return expensive_epochs_; }

  // ---- Helpers usable from Deviation implementations ----
  /// Build a correctly signed proposal for the current (slot, epoch) with
  /// the given value and no certificate.
  Msg build_fresh_proposal(Value v) const;
  /// Issue (and record) an accusation share against v, multicast.
  void issue_accuse(NodeId v, RoundApi<Msg>& api);
  Msg build_query2() const;

 private:
  // Inbox processing: the "at any point" (*) rules plus state updates.
  void process_inbox(Round r, std::span<const Delivery<Msg>> inbox,
                     RoundApi<Msg>& api);
  void handle_accuse(const Delivery<Msg>& env, RoundApi<Msg>& api);
  /// (*3): the corrupt-proof on `target` from the accepted shares.
  ThresholdSig combine_accusations(NodeId target) const;
  /// Hold, relay and commit a commit-proof; its only caller has checked
  /// it (proof_verifies).
  void maybe_commit(Slot k, Epoch j, Value v, const ThresholdSig& proof,
                    Round r, RoundApi<Msg>& api);
  /// The commit-proof this node holds for the current slot.
  Msg held_commit_proof() const;
  /// (*4): `convicted` now has a corrupt-proof; if it led the held
  /// proof's epoch, relay that proof once.
  void relay_held_proof(NodeId convicted, RoundApi<Msg>& api);
  void trace_commit(Slot k, Epoch j, Value v, Round r);
  /// Whether a certificate of epoch j would replace the freshest one
  /// held; note_cert keeps only such a one.
  bool fresher(Epoch j) const { return !have_freshest_ || j > freshest_epoch_; }
  void note_cert(Slot k, Epoch j, Value v, const ThresholdSig& cert);

  // Offset-specific progress steps.
  void do_collect(RoundApi<Msg>& api);
  void do_propose(RoundApi<Msg>& api);
  void do_propagate1(std::span<const Delivery<Msg>> inbox,
                     RoundApi<Msg>& api);
  void do_vote(RoundApi<Msg>& api);
  void do_certificate(RoundApi<Msg>& api);
  void do_propagate2(std::span<const Delivery<Msg>> inbox,
                     RoundApi<Msg>& api);
  void do_commit(RoundApi<Msg>& api);
  void do_query1(RoundApi<Msg>& api);
  void do_respond1(std::span<const Delivery<Msg>> inbox, RoundApi<Msg>& api);
  void respond_to_querier(NodeId querier, RoundApi<Msg>& api);
  void do_query2(RoundApi<Msg>& api);
  void do_respond2(std::span<const Delivery<Msg>> inbox, RoundApi<Msg>& api);

  void reset_slot(Slot k);
  void reset_epoch(Epoch i);
  void out(RoundApi<Msg>& api, NodeId to, const Msg& m);
  void out_multicast(RoundApi<Msg>& api, const Msg& m);
  /// Send `m` to each node of `to` as one group record, minus the sends
  /// a Deviation drops (asked per recipient, in list order).
  void out_group(RoundApi<Msg>& api, std::span<const NodeId> to,
                 const Msg& m);
  /// Smallest w != self with !accused_by_me(w) and !seen_accuse(w, leader).
  std::optional<NodeId> pick_helper(NodeId leader) const;
  /// Mirrors pick_helper from the perspective of querier q: the node every
  /// honest responder believes should answer q.
  std::optional<NodeId> expected_responder(NodeId querier,
                                           NodeId leader) const;
  /// A kPropose / kPropForward of this epoch's leader: the slot, epoch
  /// and signer first, then the record's verdict on the signature and
  /// certificate.
  bool validate_proposal(const Delivery<Msg>& env) const;
  /// The record's verdict on a kCert / kCertForward certificate.
  bool cert_verifies(const Delivery<Msg>& env) const;
  /// The record's verdict on a kCommitProof / kCorruptProof threshold
  /// signature; the caller has made the recipient-side drops.
  bool proof_verifies(const Delivery<Msg>& env) const;
  /// Leader of (cur_slot_, cur_epoch_), recomputed by reset_epoch (cached:
  /// the Context::leader indirection is a std::function in epoch 0).
  NodeId cur_leader() const { return cur_leader_; }

  NodeId id_;
  const Context* ctx_;
  std::unique_ptr<Deviation> dev_;
  Round round_ = 0;
  std::uint32_t offset_ = 0;

  // Incremental schedule cache: position the NEXT round will have if it
  // arrives consecutively (it always does under the simulator).
  Round sched_next_r_ = static_cast<Round>(-1);
  Slot sched_k_ = 0;
  Epoch sched_i_ = 0;
  std::uint32_t sched_off_ = 0;

  // ---- persistent across slots ----
  BitVec accused_by_me_;
  std::uint32_t accused_others_ = 0;  ///< |accused_by_me_ minus self|
  BitMatrix accuse_seen_;  ///< [accuser][accused], shares in the Context
  /// Per accused: pairs accepted while it had no corrupt-proof.
  std::vector<std::uint32_t> accuse_count_;
  std::vector<std::uint8_t> corrupt_proof_have_;
  std::vector<std::uint8_t> corrupt_proof_sent_;
  std::vector<ThresholdSig> corrupt_proof_sig_;
  std::uint64_t expensive_epochs_ = 0;  ///< instrumentation

  // ---- per slot ----
  Slot cur_slot_ = 0;
  bool committed_ = false;
  Value committed_value_ = kBotValue;
  bool have_freshest_ = false;  ///< false encodes bot
  Epoch freshest_epoch_ = 0;
  Value freshest_value_ = 0;
  ThresholdSig freshest_cert_{};
  bool have_commit_proof_ = false;  ///< proof held for responding
  Epoch commit_proof_epoch_ = 0;
  Value commit_proof_value_ = 0;
  ThresholdSig commit_proof_{};
  BitVec star4_forwarded_;  ///< (*4) once per epoch of this slot
  bool forwarded_commit_proof_ = false;  ///< Options::always_forward

  // ---- per epoch ----
  Epoch cur_epoch_ = 0;
  NodeId cur_leader_ = kNoNode;
  bool sent_collect_ = false;
  bool collect_had_cert_ = false;  ///< freshness baseline I sent in Collect
  Epoch collect_epoch_ = 0;
  std::vector<Value> prop_values_seen_;
  bool equivocation_ = false;
  bool propagated_ = false;
  Value propagated_value_ = 0;
  Msg propagated_prop_{};
  bool epoch_got_cert_ = false;
  std::optional<NodeId> query_target_;
  bool epoch_had_traffic_ = false;  ///< instrumentation (expensive slots)

  // leader-only per epoch
  bool lead_proposed_ = false;
  Value lead_value_ = 0;
  std::vector<SigShare> lead_votes_;
  BitVec lead_vote_from_;
  std::vector<SigShare> lead_cert_votes_;
  BitVec lead_cert_vote_from_;
  bool lead_cert_made_ = false;
  bool lead_proof_made_ = false;

  // round-local: accusations that first arrived this round. fresh_dirty_
  // tracks whether the buffers hold anything, so the (common) quiet round
  // skips the O(n) clear.
  std::vector<std::uint8_t> fresh_accuse_from_;
  std::vector<std::pair<NodeId, NodeId>> fresh_pairs_;  ///< (accuser, target)
  bool fresh_dirty_ = false;

  // Reused Respond-round scratch bitmap (who was already answered); a
  // member so steady-state rounds allocate nothing.
  BitVec answered_scratch_;
  // Recipients a Deviation keeps of a multicast or group send; reserved
  // to n when there is a Deviation.
  std::vector<NodeId> kept_scratch_;
};

/// Driver configuration for a full multi-shot run.
struct LinearConfig : RunConfig, SimHooks<Sim> {
  double eps = 0.1;  ///< f must be <= (1/2 - eps) n
  Options opts;
  /// Causal-input variant (Sequentiality, Definition 2): the sender of
  /// slot k may derive its input from values committed at slots j < k.
  /// Must only read slots < k. Takes precedence over input_for_slot.
  std::function<Value(Slot, const CommitLog&)> input_with_log;
};

RunResult run_linear(const LinearConfig& cfg);

}  // namespace ambb::linear
