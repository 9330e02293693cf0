// Multi-shot Dolev-Strong [13]: the classic f < n authenticated Byzantine
// broadcast, run independently per slot (no amortization) — Table 1's
// dishonest-majority baseline.
//
// Slot structure (f+2 rounds):
//   round 0        sender multicasts <v> with its signature
//   rounds 1..f+1  a node that receives a value with a chain of >= t
//                  distinct signatures (sender's included) at round t
//                  extracts it (at most two distinct values), appends its
//                  own signature and multicasts
//   end of f+1     commit the unique extracted value, else bot
//
// Two wire modes reproduce both Table 1 rows:
//   plain signatures: a chain of c signatures costs c * (kappa + log n)
//                     -> O(kappa n^3) per slot
//   multi-signature:  a chain is one kappa-bit aggregate + n-bit bitmap
//                     -> O((kappa + n) n^2) = O(kappa n^2 + n^3) per slot
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/multisig.hpp"
#include "crypto/signer.hpp"
#include "runner/drive.hpp"
#include "runner/result.hpp"
#include "sim/commit_log.hpp"
#include "sim/net.hpp"

namespace ambb::ds {

enum class Kind : MsgKind { kRelay = 0, kKindCount };

std::vector<std::string> kind_names();

/// A relayed value with its signature chain. Both representations are
/// carried; `use_multisig` in the config decides which one is *charged*
/// on the wire (and which one honest nodes verify).
struct Msg {
  Kind kind = Kind::kRelay;
  Slot slot = 0;
  Value value = 0;
  std::vector<Signature> chain;  ///< plain mode: individual signatures
  MultiSig agg;                  ///< multisig mode: aggregate + bitmap
};

Digest relay_digest(Slot k, Value v);

struct Schedule {
  std::uint32_t f = 0;
  std::uint64_t rounds_per_slot() const { return f + 2ull; }
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
  bool use_multisig = false;
  WireModel wire;
  Schedule sched;
  const KeyRegistry* registry = nullptr;
  const MultiSigScheme* msig = nullptr;
  CommitLog* commits = nullptr;
  std::function<Value(Slot)> input_for_slot;
  std::function<NodeId(Slot)> sender_of;
  trace::TraceSink* trace = nullptr;  ///< optional event sink, not owned
};

/// Accounting policy, evaluated once per traffic record. A DS chain's
/// size depends only on the wire mode and chain length, so the policy
/// carries the mode flag instead of the whole Context.
struct CostPolicy {
  WireModel wire;
  Schedule sched;
  bool use_multisig = false;

  std::uint64_t size_bits(const Msg& m) const {
    std::uint64_t bits = wire.header_bits() + wire.value_bits;
    if (use_multisig) {
      bits += wire.multisig_bits();
    } else {
      bits += static_cast<std::uint64_t>(m.chain.size()) * wire.sig_bits();
    }
    return bits;
  }
  MsgKind kind(const Msg&) const { return MsgKind{0}; }
  Slot slot(const Msg& m, Round sent_round) const {
    return m.slot != 0 ? m.slot : sched.slot_of(sent_round);
  }
};

using Sim = Simulation<Msg, CostPolicy>;

class Deviation {
 public:
  virtual ~Deviation() = default;
  virtual bool silent(Round) const { return false; }
  /// Take over the sender's round-0 send.
  virtual bool override_send(Slot k, NodeId self, const Context& ctx,
                             RoundApi<Msg>& api) {
    (void)k;
    (void)self;
    (void)ctx;
    (void)api;
    return false;
  }
  virtual void extra(Slot k, std::uint32_t offset, NodeId self,
                     const Context& ctx, RoundApi<Msg>& api) {
    (void)k;
    (void)offset;
    (void)self;
    (void)ctx;
    (void)api;
  }
};

class DsNode final : public Actor<Msg> {
 public:
  DsNode(NodeId id, const Context* ctx,
         std::unique_ptr<Deviation> deviation = nullptr);

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override;

 private:
  /// Number of distinct valid signers in the message's chain, kNoNode
  /// semantics: returns 0 if anything is malformed or the sender's
  /// signature is missing.
  std::uint32_t chain_strength(const Msg& m, NodeId sender) const;
  Msg extend(const Msg& m) const;

  NodeId id_;
  const Context* ctx_;
  std::unique_ptr<Deviation> dev_;
  Slot cur_slot_ = 0;
  std::vector<Value> extracted_;
};

/// Driver configuration. Named adversaries: silent | equivocate | stagger.
struct DsConfig : RunConfig {
  DsConfig() {
    n = 8;
    f = 5;
    slots = 4;
  }
  bool use_multisig = false;
};

RunResult run_dolev_strong(const DsConfig& cfg);

}  // namespace ambb::ds
