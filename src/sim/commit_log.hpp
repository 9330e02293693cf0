// Records every commit made by honest nodes so the runner can check the
// multi-shot BB properties (consistency, termination, validity,
// sequentiality) after a run.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ambb {

struct CommitRecord {
  Value value = kBotValue;
  Round round = 0;
  bool committed = false;
};

class CommitLog {
 public:
  explicit CommitLog(std::uint32_t n) : n_(n) {}

  /// Materialize all cells for slots [0, max_slot] up front, so no
  /// record() during the run can trigger the lazy resize below (a resize
  /// moves every cell).
  void presize(Slot max_slot) {
    const std::size_t need = static_cast<std::size_t>(max_slot + 1) * n_;
    if (need > flat_.size()) flat_.resize(need);
  }

  void record(NodeId node, Slot slot, Value value, Round round) {
    AMBB_CHECK(node < n_ && slot >= 1);
    const std::size_t need = static_cast<std::size_t>(slot + 1) * n_;
    if (need > flat_.size()) flat_.resize(need);
    CommitRecord& r = flat_[static_cast<std::size_t>(slot) * n_ + node];
    AMBB_CHECK_MSG(!r.committed, "node " << node << " double-committed slot "
                                         << slot);
    r = CommitRecord{value, round, true};
  }

  bool has(NodeId node, Slot slot) const {
    return static_cast<std::size_t>(slot + 1) * n_ <= flat_.size() &&
           flat_[static_cast<std::size_t>(slot) * n_ + node].committed;
  }

  const CommitRecord& get(NodeId node, Slot slot) const {
    AMBB_CHECK(has(node, slot));
    return flat_[static_cast<std::size_t>(slot) * n_ + node];
  }

 private:
  std::uint32_t n_;
  /// Flat [slot][node] table with stride n_ (one contiguous block instead
  /// of a vector per slot).
  std::vector<CommitRecord> flat_;
};

}  // namespace ambb
