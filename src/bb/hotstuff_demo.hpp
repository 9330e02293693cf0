// HotStuff-without-fallback (Appendix A): a synchronous leader-hub
// protocol with threshold-signature vote aggregation and NO dissemination
// fallback. Demonstrates the permanent liveness failure the paper's
// Algorithm 4 exists to fix: a selective-send leader can produce a valid
// commit-proof while withholding it from up to f honest nodes, who then
// never commit that slot — and nothing in the protocol ever helps them.
//
// Slot structure (6 rounds): propose, vote-1 -> leader, cert multicast,
// vote-2 -> leader, commit-proof multicast, commit-on-receipt.
//
// This is deliberately a simplification of HotStuff (no views/pacemaker,
// no pipelining, synchronous rounds) — exactly the "failure-free
// synchronous multi-shot BB" reading Appendix A gives it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/threshold.hpp"
#include "runner/drive.hpp"
#include "runner/result.hpp"
#include "sim/commit_log.hpp"
#include "sim/net.hpp"

namespace ambb::hs {

enum class Kind : MsgKind {
  kPropose = 0,
  kVote1,
  kCert,
  kVote2,
  kProof,
  kKindCount
};

std::vector<std::string> kind_names();

struct Msg {
  Kind kind = Kind::kPropose;
  Slot slot = 0;
  Value value = 0;
  SigShare share{};
  ThresholdSig thsig{};
  Signature sig{};  ///< leader signature on the proposal
};

Digest prop_digest(Slot k, Value v);
Digest round1_digest(Slot k, Value v);
Digest round2_digest(Slot k, Value v);

struct Schedule {
  std::uint64_t rounds_per_slot() const { return 6; }
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
  const ThresholdScheme* th = nullptr;  ///< t = n - f
  CommitLog* commits = nullptr;
  std::function<Value(Slot)> input_for_slot;
  std::function<NodeId(Slot)> sender_of;
  trace::TraceSink* trace = nullptr;  ///< optional event sink, not owned
};

std::uint64_t size_bits(const Msg& m, const WireModel& wire);

/// Accounting policy, evaluated once per traffic record.
struct CostPolicy {
  WireModel wire;
  Schedule sched;

  std::uint64_t size_bits(const Msg& m) const {
    return hs::size_bits(m, wire);
  }
  MsgKind kind(const Msg& m) const { return static_cast<MsgKind>(m.kind); }
  Slot slot(const Msg& m, Round sent_round) const {
    return m.slot != 0 ? m.slot : sched.slot_of(sent_round);
  }
};

using Sim = Simulation<Msg, CostPolicy>;

/// Driver configuration. Named adversary: selective.
struct HsConfig : RunConfig {
  HsConfig() {
    n = 8;
    f = 2;
    slots = 4;
  }
};

/// NOTE: under the "selective" adversary this intentionally FAILS the
/// termination property — that is the point of Appendix A. Callers must
/// not assert check_termination on such runs.
RunResult run_hotstuff_demo(const HsConfig& cfg);

}  // namespace ambb::hs
