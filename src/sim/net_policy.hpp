// Pluggable message-delay policies for the deterministic event-queue
// scheduler (DESIGN.md §16).
//
// The simulator's delivery phase asks the policy, per delivery, how many
// EXTRA rounds past the lock-step latency (emitted in round r, delivered
// at the beginning of round r+1) the message is deferred:
//
//   lockstep      extra = 0 always. The paper's synchronous model; the
//                 event queue degenerates to the classic double-buffer
//                 swap and every existing golden is byte-identical.
//   bounded:D     partial synchrony with bound Δ = D: the network itself
//                 draws extra ∈ [0, Δ] per delivery, as a pure hash of
//                 (seed, emission round, delivery index) — no sequential
//                 RNG state, so the draw is identical for any --jobs
//                 value. Adversary-requested delays are
//                 clamped so no delivery ever exceeds Δ.
//   async[:C]     adversary-scheduled delivery: the network adds no
//                 delay of its own (extra = 0 unless the adversary says
//                 otherwise), and the adversary may defer any delivery by
//                 up to C extra rounds (default 8). C is the
//                 eventual-delivery guarantee: messages cannot be
//                 withheld forever, only reordered within a C-round
//                 window.
//
// A policy is a value: parse once from its spec string, salt it with the
// run seed, hand it to Simulation::configure. Everything it computes is a
// pure function of (spec, seed, round, delivery index).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace ambb {

enum class NetKind : std::uint8_t { kLockstep, kBounded, kAsync };

struct NetPolicy {
  NetKind kind = NetKind::kLockstep;
  /// bounded: the partial-synchrony bound Δ — the network draws extra
  /// delays in [0, delta] and adversary delays are clamped to delta.
  std::uint32_t delta = 0;
  /// async: eventual-delivery cap — adversary delays are clamped to cap
  /// extra rounds, so every message lands within cap+1 rounds of emission.
  std::uint32_t cap = 8;
  /// Run-seed salt for the bounded base draw. Drivers fold their run seed
  /// in via make_net_policy(); the default 0 keeps unit tests simple.
  std::uint64_t seed = 0;

  bool lockstep() const { return kind == NetKind::kLockstep; }

  /// Hard ceiling on the extra delay of any delivery under this policy
  /// (0 under lockstep: timing faults are rejected there).
  std::uint32_t max_extra() const;

  /// The network's own extra delay for one delivery, as a pure hash of
  /// (seed, emission round, delivery index). Zero except under bounded.
  std::uint32_t base_extra(Round r, std::uint64_t delivery_index) const;

  /// Clamp a combined (base + adversary) extra delay to the policy bound.
  std::uint32_t clamp_extra(std::uint64_t extra) const;

  /// Canonical spec string ("lockstep", "bounded:3", "async:8").
  std::string spec() const;
};

/// Parse a policy spec: "lockstep" | "bounded:<delta>" | "async[:<cap>]".
/// Throws CheckError on anything else (bad kind, missing/garbage number,
/// async cap of zero).
NetPolicy parse_net_policy(const std::string& spec);

/// parse_net_policy + fold the run seed into the policy salt. The salt
/// constant keeps the network's delay stream independent from the
/// protocol and adversary streams derived from the same run seed.
NetPolicy make_net_policy(const std::string& spec, std::uint64_t run_seed);

}  // namespace ambb
