#include "sim/cost.hpp"

#include "common/check.hpp"

namespace ambb {

CostLedger::CostLedger(std::vector<std::string> kind_names)
    : kind_names_(std::move(kind_names)),
      per_kind_(kind_names_.size(), 0) {
  AMBB_CHECK(!kind_names_.empty());
}

void CostLedger::charge_n(Slot slot, MsgKind kind, std::uint64_t bits,
                          bool honest_sender, std::uint64_t count) {
  AMBB_CHECK_MSG(kind < per_kind_.size(), "unknown message kind");
  if (count == 0) return;
  if (!honest_sender) {
    adversary_total_ += bits * count;
    return;
  }
  if (slot >= per_slot_.size()) per_slot_.resize(slot + 1, 0);
  per_slot_[slot] += bits * count;
  per_kind_[kind] += bits * count;
  honest_total_ += bits * count;
  honest_msgs_ += count;
}

}  // namespace ambb
