// Flat-rate accounting policy and toy actors shared by the simulator unit
// tests.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

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

/// Steps `sim` through `rounds` rounds, as drive() does.
template <typename Sim>
void run_rounds(Sim& sim, std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) sim.step();
}

/// Actor that declares its own wake (idle-round elision, DESIGN.md §17):
/// records every round it runs, runs `act` (may be empty) and answers
/// next_wake with `wake(r)`.
template <typename Msg>
class SleepyActor final : public Actor<Msg> {
 public:
  using Act = std::function<void(Round, std::span<const Delivery<Msg>>,
                                 RoundApi<Msg>&)>;
  using Wake = std::function<Round(Round)>;

  SleepyActor(Wake wake, Act act = nullptr)
      : wake_(std::move(wake)), act_(std::move(act)) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>&, RoundApi<Msg>& api) override {
    ran_.push_back(r);
    if (act_) act_(r, inbox, api);
  }

  Round next_wake(Round r) const override { return wake_(r); }

  /// Rounds in which on_round ran, in order.
  const std::vector<Round>& ran() const { return ran_; }

 private:
  Wake wake_;
  Act act_;
  std::vector<Round> ran_;
};

}  // namespace ambb
