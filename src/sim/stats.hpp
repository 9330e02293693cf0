// Per-round observability for the lock-step simulator.
//
// Simulation::step() fills one RoundStats per executed round: how much
// traffic the round produced (shared records vs fanned-out deliveries),
// what the ledger charged, what the strongly adaptive adversary did, and
// where the wall-clock went inside step(). The numbers are measurement
// metadata only — they never feed back into the execution, so collecting
// them cannot perturb determinism.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace ambb {

struct RoundStats {
  Round round = 0;

  /// Traffic records emitted this round: a multicast is ONE record, and
  /// a group (DESIGN.md §22) counts once per recipient, like the
  /// unicasts it stands for.
  std::uint32_t records = 0;
  /// Individual (sender, recipient) deliveries those records fan out to.
  std::uint64_t deliveries = 0;

  /// Bits the ledger charged for this round's surviving traffic.
  std::uint64_t honest_bits = 0;
  std::uint64_t adversary_bits = 0;

  /// Strongly adaptive activity: deliveries removed after-the-fact and
  /// nodes newly corrupted during observe_round (or bind time, round 0).
  std::uint32_t erasures = 0;
  std::uint32_t corruptions = 0;

  /// Deliveries of this round deferred past the lock-step latency by the
  /// delay policy or a timing adversary (DESIGN.md §16). Always zero
  /// under the lockstep policy.
  std::uint64_t delayed = 0;

  /// Wall-clock per phase of Simulation::step(), nanoseconds. A round
  /// elided as quiescent (DESIGN.md §17) runs no phase and reports 0.
  std::uint64_t ns_honest = 0;      ///< step 1: honest actors
  std::uint64_t ns_byzantine = 0;   ///< step 2: rushing Byzantine actors
  std::uint64_t ns_adversary = 0;   ///< step 3: observe_round
  std::uint64_t ns_accounting = 0;  ///< step 4: ledger charges
  std::uint64_t ns_delivery = 0;    ///< step 5: inbox delivery

  std::uint64_t ns_total() const {
    return ns_honest + ns_byzantine + ns_adversary + ns_accounting +
           ns_delivery;
  }
};

/// Aggregate of a full run's RoundStats (sums, plus the peak round).
struct RoundStatsSummary {
  std::uint64_t rounds = 0;
  std::uint64_t records = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t honest_bits = 0;
  std::uint64_t adversary_bits = 0;
  std::uint64_t erasures = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t delayed = 0;
  std::uint64_t ns_honest = 0;
  std::uint64_t ns_byzantine = 0;
  std::uint64_t ns_adversary = 0;
  std::uint64_t ns_accounting = 0;
  std::uint64_t ns_delivery = 0;
  std::uint64_t max_round_deliveries = 0;

  std::uint64_t ns_total() const {
    return ns_honest + ns_byzantine + ns_adversary + ns_accounting +
           ns_delivery;
  }
};

/// Fold one round into a running summary. This is THE aggregation rule:
/// summarize() folds with it, and the engine/report aggregates go
/// through summarize() — field sums live in exactly one place.
void accumulate(RoundStatsSummary& s, const RoundStats& r);

RoundStatsSummary summarize(const std::vector<RoundStats>& stats);

}  // namespace ambb
