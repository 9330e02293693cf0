// The one multi-shot driver shared by every protocol family (DESIGN.md
// §20). A run is always the same loop: L sequential slots of one BB
// instance on one Simulation, charged to one ledger and packaged into a
// RunResult for the Definition-2 checkers. drive() owns that loop; a
// family supplies only what is its own (Family below): its cost policy,
// slot length, node factories, named adversaries and phase events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/scheduled.hpp"
#include "adversary/spec.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "runner/result.hpp"
#include "sim/commit_log.hpp"
#include "sim/cost.hpp"
#include "sim/net.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

namespace ambb {

/// The parameters every family's run takes. Each family config derives
/// from it and adds its own knobs (and its own n/f/slots defaults).
struct RunConfig {
  std::uint32_t n = 16;
  std::uint32_t f = 4;
  Slot slots = 8;
  std::uint64_t seed = 1;
  std::uint32_t kappa_bits = kDefaultKappaBits;
  std::uint32_t value_bits = kDefaultValueBits;
  /// "none", one of the family's named strategies, or a fault schedule
  /// ("sched:..." / "fuzz[:k]", src/adversary/spec.hpp).
  std::string adversary = "none";
  /// Network delay policy (DESIGN.md §16): "lockstep" (default) |
  /// "bounded:<delta>" | "async[:<cap>]". The run seed is mixed in per
  /// run (make_net_policy), so the execution stays seed-deterministic.
  std::string net = "lockstep";
  /// Optional event sink, not owned (see src/trace/). Attaching a sink
  /// never changes the run.
  trace::TraceSink* trace = nullptr;
  /// Optional overrides; defaults: round-robin sender, seeded hash-like
  /// inputs.
  std::function<Value(Slot)> input_for_slot;
  std::function<NodeId(Slot)> sender_of;
};

/// A family config of type `Config` carrying `core`; the family's own
/// fields keep their defaults.
template <class Config>
Config with_core(const RunConfig& core) {
  Config cfg;
  static_cast<RunConfig&>(cfg) = core;
  return cfg;
}

/// Test hooks of the families that expose their live simulation: called
/// after every simulated round / once before teardown.
template <class Sim>
struct SimHooks {
  std::function<void(Round, Sim&)> on_round_end;
  std::function<void(Sim&)> inspect;
};

/// Default salts: run seed ^ salt seeds the default inputs and the
/// adversary. Families that predate the shared driver keep their own.
inline constexpr std::uint64_t kInputSalt = 0x5EEDF00DULL;
inline constexpr std::uint64_t kAdversarySalt = 0xAD7E25A1ULL;

/// The per-run objects a family's Context points into before drive()
/// runs: the commit log and ledger drive() charges, and the resolved
/// slot inputs and senders.
struct RunState {
  /// `bot_input_to_zero` maps a default input that happens to equal ⊥
  /// to 0, for families whose value domain has no ⊥ input.
  RunState(const RunConfig& cfg, std::vector<std::string> kind_names,
           std::uint64_t input_salt = kInputSalt,
           bool bot_input_to_zero = false)
      : commits(cfg.n), ledger(std::move(kind_names)) {
    commits.presize(cfg.slots);  // record() must never regrow mid-run
    if (cfg.input_for_slot) {
      input_for_slot = cfg.input_for_slot;
    } else {
      input_for_slot = [seed = cfg.seed ^ input_salt,
                        bot_input_to_zero](Slot s) {
        std::uint64_t x = seed + s;
        const Value v = splitmix64(x);
        return bot_input_to_zero && v == kBotValue ? Value{0} : v;
      };
    }
    if (cfg.sender_of) {
      sender_of = cfg.sender_of;
    } else {
      sender_of = [n = cfg.n](Slot s) {
        return static_cast<NodeId>((s - 1) % n);
      };
    }
  }

  CommitLog commits;
  CostLedger ledger;
  std::function<Value(Slot)> input_for_slot;
  std::function<NodeId(Slot)> sender_of;
};

template <class Msg>
using NodeFactory = std::function<std::unique_ptr<Actor<Msg>>(NodeId)>;

/// A family's named strategies: (spec, run seed ^ adversary salt) -> the
/// adversary. Throws CheckError on a spec it does not know.
template <class Msg>
using NamedAdversary = std::function<std::unique_ptr<Adversary<Msg>>(
    const std::string& spec, std::uint64_t seed)>;

/// The static adversary of the classic analyses: nodes 0..f-1 are corrupt
/// from the start and run `byzantine` at their seats.
template <class Msg>
class StaticAdversary final : public Adversary<Msg> {
 public:
  StaticAdversary(std::uint32_t f, NodeFactory<Msg> byzantine)
      : f_(f), byzantine_(std::move(byzantine)) {}

  std::vector<NodeId> initial_corruptions() override {
    std::vector<NodeId> out;
    for (NodeId v = 0; v < f_; ++v) out.push_back(v);
    return out;
  }

  std::unique_ptr<Actor<Msg>> actor_for(NodeId node) override {
    return byzantine_(node);
  }

 private:
  std::uint32_t f_;
  NodeFactory<Msg> byzantine_;
};

/// Everything of a run that is a family's own.
template <class Msg, class Policy>
struct Family {
  Policy policy;
  std::uint64_t rounds_per_slot = 1;
  /// Rounds after the last slot (deliveries only; no slot starts there).
  Round drain_rounds = 0;
  /// The honest actor drive() installs at every seat.
  NodeFactory<Msg> node;
  /// The honest replica a schedule adversary runs at a corrupted seat;
  /// empty = `node`.
  NodeFactory<Msg> replica;
  /// Empty = the family has no named strategies.
  NamedAdversary<Msg> named;
  std::uint64_t adversary_salt = kAdversarySalt;
  /// The Simulation's fault budget is max(f, sim_f_floor).
  std::uint32_t sim_f_floor = 0;
  /// Optional test hooks, not owned.
  const SimHooks<Simulation<Msg, Policy>>* hooks = nullptr;
};

/// The run's adversary: nullptr for "none", a ScheduledAdversary running
/// `replica` at corrupted seats for a schedule spec, else the family's
/// named strategy.
template <class Msg>
std::unique_ptr<Adversary<Msg>> select_adversary(
    const RunConfig& cfg, std::uint64_t salt, Round horizon,
    const NetPolicy& net, const NodeFactory<Msg>& replica,
    const NamedAdversary<Msg>& named) {
  if (cfg.adversary == "none") return nullptr;
  const std::uint64_t seed = cfg.seed ^ salt;
  if (adversary::is_schedule_spec(cfg.adversary)) {
    adversary::ScheduleEnv<Msg> env;
    env.n = cfg.n;
    env.f = cfg.f;
    env.seed = seed;
    env.horizon = horizon;
    env.trace = cfg.trace;
    env.net = net;
    env.honest_factory = replica;
    return adversary::make_scheduled_adversary<Msg>(cfg.adversary, env);
  }
  AMBB_CHECK_MSG(named != nullptr,
                 "unknown adversary spec '" << cfg.adversary << "'");
  return named(cfg.adversary, seed);
}

/// Phase hook of a family without phase events.
struct NoPhases {
  void operator()(Round, Slot, std::uint32_t) const {}
};

/// Runs cfg.slots slots (plus the family's drain rounds) and packages the
/// result. `phase(round, slot, offset)` emits the family's phase events;
/// drive() calls it, right after the round's kSlotStart, only when a sink
/// is attached and only inside a slot. It is a template parameter, not a
/// std::function, so quiescent rounds pay nothing for it.
template <class Msg, class Policy, class Phase = NoPhases>
RunResult drive(const RunConfig& cfg, RunState& run,
                const Family<Msg, Policy>& fam, Phase phase = {}) {
  using Sim = Simulation<Msg, Policy>;
  RunResult res;
  // The simulator and the adversary live in this scope only: what the
  // result needs of them is taken out before they go, so their round
  // buffers are freed before the result is packaged (DESIGN.md §20).
  {
    Sim sim(cfg.n, std::max(cfg.f, fam.sim_f_floor), &run.ledger,
            fam.policy);
    for (NodeId v = 0; v < cfg.n; ++v) sim.set_actor(v, fam.node(v));
    const Round total =
        Round{cfg.slots} * fam.rounds_per_slot + fam.drain_rounds;
    const NetPolicy net = make_net_policy(cfg.net, cfg.seed);
    std::unique_ptr<Adversary<Msg>> adversary = select_adversary<Msg>(
        cfg, fam.adversary_salt, total, net,
        fam.replica ? fam.replica : fam.node, fam.named);
    SimConfig<Msg> sc;
    sc.trace = cfg.trace;
    sc.net = net;
    sc.adversary = adversary.get();
    sim.configure(sc);

    const auto* on_round_end =
        fam.hooks != nullptr && fam.hooks->on_round_end
            ? &fam.hooks->on_round_end
            : nullptr;
    Slot k = 1;
    std::uint32_t off = 0;
    for (Round r = 0; r < total; ++r) {
      if (cfg.trace != nullptr && k <= cfg.slots) {
        if (off == 0) {
          trace::Event ev;
          ev.kind = trace::EventKind::kSlotStart;
          ev.round = r;
          ev.slot = k;
          ev.node = run.sender_of(k);
          cfg.trace->on_event(ev);
        }
        phase(r, k, off);
      }
      sim.step();
      if (on_round_end != nullptr) (*on_round_end)(r, sim);
      if (++off == fam.rounds_per_slot) {
        off = 0;
        ++k;
      }
    }
    if (fam.hooks != nullptr && fam.hooks->inspect) fam.hooks->inspect(sim);

    res.rounds = sim.now();
    res.round_stats = sim.take_round_stats();
    res.elided_rounds = sim.elided_rounds();
    res.round_buffer_bytes = sim.traffic_reserved_bytes();
    res.corrupt.resize(cfg.n);
    for (NodeId v = 0; v < cfg.n; ++v) res.corrupt[v] = sim.is_corrupt(v);
  }

  res.n = cfg.n;
  res.f = cfg.f;
  res.slots = cfg.slots;
  res.honest_bits = run.ledger.honest_bits_total();
  res.adversary_bits = run.ledger.adversary_bits_total();
  res.honest_msgs = run.ledger.honest_msgs_total();
  res.per_slot_bits = run.ledger.per_slot();
  res.kind_names = run.ledger.kind_names();
  res.per_kind_bits = run.ledger.per_kind();
  res.senders.resize(cfg.slots + 1, kNoNode);
  res.sender_inputs.resize(cfg.slots + 1, kBotValue);
  for (Slot s = 1; s <= cfg.slots; ++s) {
    res.senders[s] = run.sender_of(s);
    res.sender_inputs[s] = run.input_for_slot(s);
  }
  // Last: a causal input (input_with_log) reads the log above. The run is
  // over, so the log moves rather than being copied.
  res.commits = std::move(run.commits);
  return res;
}

}  // namespace ambb
