// Common result type produced by every protocol driver, plus checkers for
// the multi-shot BB properties of Definition 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/commit_log.hpp"
#include "sim/stats.hpp"

namespace ambb {

struct RunResult {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  Slot slots = 0;           ///< number of slots L that were run
  Round rounds = 0;         ///< lock-step rounds run, elided ones included

  std::uint64_t honest_bits = 0;     ///< C(L, n, f): the paper's metric
  std::uint64_t adversary_bits = 0;  ///< bits sent by corrupt nodes (context)
  std::uint64_t honest_msgs = 0;

  std::vector<std::uint64_t> per_slot_bits;  ///< index by slot, [0] unused
  std::vector<std::string> kind_names;
  std::vector<std::uint64_t> per_kind_bits;

  CommitLog commits{1};
  std::vector<std::uint8_t> corrupt;   ///< final corruption flags, size n
  std::vector<NodeId> senders;         ///< sender of each slot, [0] unused
  std::vector<Value> sender_inputs;    ///< honest sender's input per slot

  /// One entry per executed round, in round order (see sim/stats.hpp).
  std::vector<RoundStats> round_stats;
  /// Rounds elided as quiescent (DESIGN.md §17): they have no entry in
  /// round_stats, so round_stats.size() + elided_rounds == rounds.
  std::uint64_t elided_rounds = 0;

  /// Aggregate of round_stats (all zeros if the driver did not fill it);
  /// its `rounds` also counts the elided rounds, which add nothing else.
  RoundStatsSummary stats_summary() const {
    RoundStatsSummary s = summarize(round_stats);
    s.rounds += elided_rounds;
    return s;
  }

  /// Average honest bits per slot over the first `upto` slots (all if 0).
  /// Quiet NaN for a zero-slot run; JSON writers render it as null
  /// (engine/report.cpp).
  double amortized(Slot upto = 0) const;

  /// Honest bits per slot over slots (from, to] — used to measure the
  /// steady-state amortized cost after one-time costs have been paid.
  double amortized_tail(Slot from) const;

  bool is_honest(NodeId v) const { return corrupt[v] == 0; }
};

/// Each checker returns human-readable violations; empty means the
/// property holds for this execution.
std::vector<std::string> check_consistency(const RunResult& r);
std::vector<std::string> check_termination(const RunResult& r);
std::vector<std::string> check_validity(const RunResult& r);

/// All three of the above.
std::vector<std::string> check_all(const RunResult& r);

}  // namespace ambb
