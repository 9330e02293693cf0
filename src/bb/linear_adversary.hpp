// Byzantine adversary strategies for Algorithm 4, covering the worst cases
// analysed in Section 4.2 plus a strongly-adaptive after-the-fact removal
// demonstration.
//
// Adversary specs of Algorithm 4 (make_adversary() builds the named ones;
// the shared driver, runner/drive.hpp, handles "none" and the schedules):
//   "none"          no corruptions (failure-free baseline)
//   "silent"        corrupt nodes never send: forces accusations and
//                   corrupt-proofs; exercises the expensive-slot path
//   "equivocate"    corrupt leaders propose two conflicting values
//   "selective"     corrupt leaders run the epoch honestly but withhold
//                   the commit-proof from a rotating subset and never
//                   answer queries: exercises Query/Respond-1/2
//   "flood"         corrupt nodes spam fresh accusations + query2 every
//                   epoch until they run out of nodes to accuse
//                   (the bounded Respond-2 attack of Section 4.2)
//   "mixed"         round-robin mix of the strategies above — used as the
//                   worst-case-style adversary for Table 1
//   "adaptive-erase" starts with zero corruptions; corrupts the slot-1
//                   sender after seeing its proposal and erases the copies
//                   sent to odd-numbered nodes (after-the-fact removal)
//   "sched:..."     explicit fault schedule (src/adversary/spec.hpp)
//   "fuzz[:k]"      seeded random fault schedule (src/adversary/fuzz.hpp)
//
// All named strategies are expressed on the src/adversary/ primitives: a
// ScheduledAdversary carries the corruption/erase schedule, and the
// Deviation-based Byzantine actors plug in via its byzantine-factory
// override. "sched:"/"fuzz" specs use the generic FaultedActor wrapping
// around honest LinearNode replicas instead.
#pragma once

#include <memory>
#include <string>

#include "bb/linear_bb.hpp"

namespace ambb::linear {

/// The named strategies above. "none" and the schedule specs are
/// handled by the shared driver (runner/drive.hpp). Throws CheckError on
/// an unknown spec.
std::unique_ptr<Adversary<Msg>> make_adversary(const std::string& spec,
                                               const Context* ctx,
                                               std::uint64_t seed);

}  // namespace ambb::linear
