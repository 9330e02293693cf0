// Communication-cost accounting.
//
// The reproduced metric (Definition 3) is bits sent by honest nodes,
// amortized over slots: lim C(L,n,f)/L. The ledger records every envelope
// the simulator delivers or erases, keyed by slot and message kind, split
// into honest-sent and adversary-sent bits (only the former is the paper's
// cost; the latter is reported for context).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ambb {

using MsgKind = std::uint8_t;

class CostLedger {
 public:
  /// kind_names[i] labels MsgKind i in reports.
  explicit CostLedger(std::vector<std::string> kind_names);

  /// Pre-size the per-slot table so steady-state charges never regrow it.
  void reserve_slots(Slot max_slot) { per_slot_.reserve(max_slot + 1); }

  /// Charge `count` identical deliveries of `bits` each in one call (a
  /// multicast record's surviving fan-out); count == 0 charges nothing.
  void charge_n(Slot slot, MsgKind kind, std::uint64_t bits,
                bool honest_sender, std::uint64_t count);

  std::uint64_t honest_bits_total() const { return honest_total_; }
  std::uint64_t adversary_bits_total() const { return adversary_total_; }
  std::uint64_t honest_msgs_total() const { return honest_msgs_; }

  /// Honest bits per slot, indexed by slot (index 0 unused: slots are >=1).
  const std::vector<std::uint64_t>& per_slot() const { return per_slot_; }

  /// Honest bits per message kind.
  const std::vector<std::uint64_t>& per_kind() const { return per_kind_; }
  const std::vector<std::string>& kind_names() const { return kind_names_; }

 private:
  std::vector<std::string> kind_names_;
  std::vector<std::uint64_t> per_slot_;
  std::vector<std::uint64_t> per_kind_;
  std::uint64_t honest_total_ = 0;
  std::uint64_t adversary_total_ = 0;
  std::uint64_t honest_msgs_ = 0;
};

}  // namespace ambb
