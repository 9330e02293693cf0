// Flat-rate accounting policy shared by the simulator unit tests.
#pragma once

#include <cstdint>

#include "sim/net.hpp"

namespace ambb {

/// Every message costs `bits` bits, has kind 0 and belongs to slot 1,
/// whatever its type: these tests pin delivery and charge arithmetic,
/// not message pricing. A concrete struct like the drivers' CostPolicy,
/// so the per-record policy calls inline.
struct ToyPolicy {
  std::uint64_t bits = 100;

  template <typename Msg>
  std::uint64_t size_bits(const Msg&) const {
    return bits;
  }
  template <typename Msg>
  MsgKind kind(const Msg&) const {
    return MsgKind{0};
  }
  template <typename Msg>
  Slot slot(const Msg&, Round) const {
    return Slot{1};
  }
};

template <typename Msg>
using ToySim = Simulation<Msg, ToyPolicy>;

}  // namespace ambb
