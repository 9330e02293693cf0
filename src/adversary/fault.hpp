// Composable fault-injection primitives.
//
// The paper's claims are adversary-conditional: Algorithm 4's O(kappa*n)
// amortization holds under *strongly adaptive* erasure/corruption
// schedules, and the Appendix A liveness failure needs a selective-send
// leader. Instead of one hand-written Adversary subclass per attack, an
// adversary is described here as a SCHEDULE of primitive faults:
//
//   corrupt(r, v)                 v is Byzantine from round r on (r = 0
//                                 means initially corrupt; r > 0 means the
//                                 adversary corrupts v during the strongly
//                                 adaptive step at the end of round r-1,
//                                 so it may also erase v's round-(r-1)
//                                 traffic after the fact)
//   erase(r, v, density, ...)     erase a (seeded) subset of the
//                                 deliveries v emitted in round r
//   silence(v, from, to)          v emits nothing in rounds [from, to]
//   selective(v, from, to, keep)  v's sends only reach the keep-set
//   shuffle(v, from, to)          equivocation-by-misdirection: v's
//                                 per-recipient payload assignment is
//                                 permuted (valid signed messages arrive
//                                 at the wrong recipients)
//   stagger(v, from, to, d)       v's round-r output is withheld and
//                                 released in round r+d
//   delay(v, from, to, d)         timing fault: every delivery v emits in
//                                 rounds [from, to] arrives d extra
//                                 rounds late (clamped to the net
//                                 policy's bound; needs bounded/async)
//   reorder(v, from, to)          timing fault: v's deliveries in the
//                                 window get seeded per-delivery extra
//                                 delays in [0, bound] — arrival order is
//                                 scrambled relative to emission order
//
// delay/reorder are NETWORK faults, not corruptions: under a
// partially-synchronous or asynchronous policy the adversary schedules
// the network itself, so they may target ANY sender — honest included —
// and consume no corruption budget. They are rejected under lockstep
// (the synchronous model has no timing power).
//
// Faults compose by union (a schedule is a set of events; several faults
// may target the same node) and sequence (round windows). The types in
// this header are plain data, independent of any protocol's message type;
// scheduled.hpp materializes a schedule into an Adversary<Msg> for a
// concrete protocol, spec.cpp parses the "sched:..." string form, and
// fuzz.cpp generates seeded random budget-respecting schedules.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ambb::adversary {

/// Inclusive upper bound for "until the end of the run" round windows.
inline constexpr Round kRoundMax = std::numeric_limits<Round>::max();

/// Erase densities are expressed in permille (1000 = every delivery).
inline constexpr std::uint32_t kDensityAll = 1000;

struct CorruptEvent {
  Round from = 0;         ///< Byzantine from this round on (0 = initial)
  NodeId node = kNoNode;
};

/// After-the-fact removal of deliveries sent by `sender` in `round`.
/// A delivery (sender -> to) is erased iff
///   to % to_mod == to_rem           (recipient stride filter), and
///   a Bernoulli(density/1000) draw from a (seed, salt, round)-keyed RNG
///   succeeds (density kDensityAll short-circuits the draw).
/// scheduled.hpp additionally lets protocol code attach a typed message
/// filter to a rule (e.g. "proposals only").
struct EraseEvent {
  Round round = 0;
  NodeId sender = kNoNode;
  std::uint32_t density_permille = kDensityAll;
  std::uint32_t to_mod = 1;  ///< 1 = no recipient filter
  std::uint32_t to_rem = 0;
  std::uint64_t salt = 0;
};

enum class FaultKind : std::uint8_t {
  kSilence,
  kSelective,
  kShuffle,
  kStagger,
};

const char* fault_kind_name(FaultKind k);

/// An actor-level fault: modifies the traffic a corrupt node emits while
/// the round window [from, to] is active. The node still runs the honest
/// protocol logic underneath (FaultedActor in scheduled.hpp); only its
/// output is filtered/mutated, which keeps the primitives meaningful for
/// ANY protocol without knowing its message type.
struct ActorFault {
  FaultKind kind = FaultKind::kSilence;
  NodeId node = kNoNode;
  Round from = 0;
  Round to = kRoundMax;           ///< inclusive
  std::uint32_t delay = 1;        ///< kStagger: release round offset
  std::vector<NodeId> keep;       ///< kSelective: recipients still served
};

enum class NetFaultKind : std::uint8_t {
  kDelay,
  kReorder,
};

const char* net_fault_kind_name(NetFaultKind k);

/// A timing fault: the network adversary defers deliveries emitted by
/// `sender` (any node — timing needs no corruption) while the round
/// window [from, to] is active. kDelay adds a fixed `extra` rounds to
/// every matching delivery; kReorder draws a per-delivery extra in
/// [0, policy bound] from a (seed, salt, round)-keyed RNG, scrambling
/// arrival order. Requires a non-lockstep net policy.
struct NetFault {
  NetFaultKind kind = NetFaultKind::kDelay;
  NodeId sender = kNoNode;
  Round from = 0;
  Round to = kRoundMax;     ///< inclusive
  std::uint32_t extra = 1;  ///< kDelay: extra rounds added
  std::uint64_t salt = 0;   ///< kReorder: per-rule RNG salt
};

/// A complete adversary description: the union of all scheduled events.
struct FaultSchedule {
  std::vector<CorruptEvent> corruptions;
  std::vector<EraseEvent> erasures;
  std::vector<ActorFault> actor_faults;
  std::vector<NetFault> net_faults;
};

/// Structural validation against the execution parameters. Throws
/// CheckError naming the offending event if the schedule
///   - names a node >= n,
///   - corrupts more than f distinct nodes (budget violation),
///   - corrupts the same node twice,
///   - erases deliveries of a sender that is not corrupt by the end of
///     the erase round (erase(r, v) needs corrupt(r', v) with r' <= r+1),
///   - attaches an actor fault to a node with no corrupt event, or to
///     rounds before the node turns Byzantine (from < corrupt round),
///   - uses a kStagger delay of 0 or an inverted window (to < from), or
///   - uses a net fault with a kDelay extra of 0, an inverted window, or
///     a sender >= n (net faults need NO corrupt event: timing is a
///     network power — whether the run's net policy allows timing at all
///     is checked at materialization time, not here).
/// A validated schedule is budget-respecting by construction: the
/// simulator's corruption-budget CHECK can only fire if the caller runs
/// several adversaries against one simulation.
void validate(const FaultSchedule& s, std::uint32_t n, std::uint32_t f);

/// Human-readable one-line rendering (test failure messages, --list).
std::string describe(const FaultSchedule& s);

}  // namespace ambb::adversary
