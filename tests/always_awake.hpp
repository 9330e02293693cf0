// The always-awake reference of the idle-round elision differential tests
// (DESIGN.md §17), shared by every protocol family that opts in.
//
// AlwaysAwake wraps an actor and forwards everything but answers
// next_wake with r + 1, so the simulator runs it in every round, exactly
// as without elision; AlwaysAwakeAdversary does the same for the
// adversary and wraps every replacement actor. A run built from them is
// the reference an elided run must match on every measured bit
// (Outcome / expect_same).
//
// The reference copies of each family's driver loop are themselves tied
// to the production driver: production_outcome() runs the registry row on
// the same parameters, and the unwrapped copy must match it, so a drift
// between copy and driver fails a test too.
//
// The reference also checks every delivery on its own: the decorator
// hands its inner actor a copy of the inbox with every record id set to
// kNoRecord, so a family that caches one verdict per lock-step record
// (RecordVerdicts) recomputes it per recipient here, and the elided run
// is a differential test of that cache too.
//
// The reference run also audits the wake contract itself: the decorator
// remembers the wake its inner actor declared, and a call before that
// round with no mail and no rushed traffic must emit nothing. A wrong
// next_wake therefore fails at the round where the contract breaks, not
// only where the outputs later diverge.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "runner/registry.hpp"
#include "sim/net.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace ambb::idle_skip {

/// Counts what the reference run's audit saw.
struct Audit {
  /// Calls the shipped simulator would have skipped (inner wake in the
  /// future, no mail, no rushed traffic): proves the grid exercises
  /// elision rather than passing vacuously.
  std::uint64_t sleeping_calls = 0;
};

/// Forwards everything to the wrapped actor but never sleeps. The inner
/// actor's output is captured first so the audit can count it, then
/// re-emitted record by record (multicasts stay multicasts, groups stay
/// groups).
template <typename Msg>
class AlwaysAwake final : public Actor<Msg> {
 public:
  AlwaysAwake(NodeId self, std::uint32_t n,
              std::unique_ptr<Actor<Msg>> inner, Audit* audit)
      : self_(self), n_(n), inner_(std::move(inner)), audit_(audit) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override {
    scratch_.reset(n_);
    RoundApi<Msg> capture(self_, n_, &scratch_);
    unkeyed_.assign(inbox.begin(), inbox.end());
    for (Delivery<Msg>& d : unkeyed_) d.record = kNoRecord;
    inner_->on_round(r, unkeyed_, rushed, capture);
    if (r < wake_ && inbox.empty() && rushed.size() == 0) {
      ++audit_->sleeping_calls;
      EXPECT_TRUE(scratch_.records().empty())
          << "node " << self_ << " declared next_wake " << wake_
          << " but emitted " << scratch_.records().size()
          << " records in round " << r;
    }
    wake_ = inner_->next_wake(r);
    for (const auto& rec : scratch_.records()) {
      if (rec.is_multicast()) {
        api.multicast(rec.msg);
      } else if (rec.is_group()) {
        api.send_group(scratch_.recipients(rec), rec.msg);
      } else {
        api.send(rec.to, rec.msg);
      }
    }
  }

 private:
  NodeId self_;
  std::uint32_t n_;
  std::unique_ptr<Actor<Msg>> inner_;
  Audit* audit_;
  Round wake_ = 0;
  TrafficLog<Msg> scratch_;
  std::vector<Delivery<Msg>> unkeyed_;  ///< the inbox, record ids cleared
};

/// Adversary counterpart: forwards, never sleeps, wraps every
/// replacement actor, and audits that a traffic-free round before the
/// declared wake corrupts nobody.
template <typename Msg>
class AlwaysAwakeAdversary final : public Adversary<Msg> {
 public:
  AlwaysAwakeAdversary(std::uint32_t n,
                       std::unique_ptr<Adversary<Msg>> inner, Audit* audit)
      : n_(n), inner_(std::move(inner)), audit_(audit) {}

  std::vector<NodeId> initial_corruptions() override {
    return inner_->initial_corruptions();
  }

  std::unique_ptr<Actor<Msg>> actor_for(NodeId node) override {
    return std::make_unique<AlwaysAwake<Msg>>(node, n_,
                                              inner_->actor_for(node), audit_);
  }

  void observe_round(Round r, const TrafficView<Msg>& traffic,
                     CorruptionCtl<Msg>& ctl) override {
    const std::uint32_t budget = ctl.corruption_budget_left();
    inner_->observe_round(r, traffic, ctl);
    if (r < wake_ && traffic.size() == 0) {
      ++audit_->sleeping_calls;
      EXPECT_EQ(ctl.corruption_budget_left(), budget)
          << "adversary declared next_wake " << wake_
          << " but corrupted in round " << r;
    }
    wake_ = inner_->next_wake(r);
  }

 private:
  std::uint32_t n_;
  std::unique_ptr<Adversary<Msg>> inner_;
  Audit* audit_;
  Round wake_ = 0;
};

/// Every measured output of one run.
struct Outcome {
  std::uint64_t honest_bits = 0;
  std::uint64_t adversary_bits = 0;
  std::vector<std::uint64_t> per_slot;
  std::vector<std::uint64_t> per_kind;
  std::vector<std::tuple<bool, Value, Round>> commits;
  std::vector<bool> corrupt;
  std::vector<RoundStats> rounds;
  std::string jsonl;
  std::size_t traffic_bytes = 0;

  /// Rounds that took the simulator's O(1) quiescent path, the only one
  /// that reports zero ns_*.
  std::uint64_t constant_time_rounds() const {
    std::uint64_t c = 0;
    for (const RoundStats& st : rounds) c += st.ns_total() == 0 ? 1 : 0;
    return c;
  }
};

/// The commit log of `slots` slots x `n` nodes, absent entries included.
inline std::vector<std::tuple<bool, Value, Round>> commit_rows(
    const CommitLog& log, std::uint32_t n, Slot slots) {
  std::vector<std::tuple<bool, Value, Round>> out;
  for (Slot k = 1; k <= slots; ++k) {
    for (NodeId v = 0; v < n; ++v) {
      if (log.has(v, k)) {
        const CommitRecord& c = log.get(v, k);
        out.emplace_back(true, c.value, c.round);
      } else {
        out.emplace_back(false, kBotValue, 0);
      }
    }
  }
  return out;
}

/// Runs registry row `proto` traced. The registry does not expose its
/// simulation, so traffic_bytes is left to the caller.
inline Outcome production_outcome(const std::string& proto,
                                  const CommonParams& p) {
  std::ostringstream jsonl;
  trace::JsonlSink sink(jsonl);
  const RunResult r = protocol(proto).run(RunRequest(p, &sink));
  Outcome o;
  o.honest_bits = r.honest_bits;
  o.adversary_bits = r.adversary_bits;
  o.per_slot = r.per_slot_bits;
  o.per_kind = r.per_kind_bits;
  o.commits = commit_rows(r.commits, r.n, r.slots);
  for (std::uint8_t c : r.corrupt) o.corrupt.push_back(c != 0);
  o.rounds = r.round_stats;
  o.jsonl = jsonl.str();
  return o;
}

/// Equal on every measured bit; RoundStats compared without ns_*.
inline void expect_same(const Outcome& got, const Outcome& ref) {
  EXPECT_EQ(got.honest_bits, ref.honest_bits);
  EXPECT_EQ(got.adversary_bits, ref.adversary_bits);
  EXPECT_EQ(got.per_slot, ref.per_slot);
  EXPECT_EQ(got.per_kind, ref.per_kind);
  EXPECT_EQ(got.commits, ref.commits);
  EXPECT_EQ(got.corrupt, ref.corrupt);
  ASSERT_EQ(got.rounds.size(), ref.rounds.size());
  for (std::size_t i = 0; i < ref.rounds.size(); ++i) {
    const RoundStats& a = got.rounds[i];
    const RoundStats& b = ref.rounds[i];
    ASSERT_EQ(std::make_tuple(a.round, a.records, a.deliveries,
                              a.honest_bits, a.adversary_bits, a.erasures,
                              a.corruptions, a.delayed),
              std::make_tuple(b.round, b.records, b.deliveries,
                              b.honest_bits, b.adversary_bits, b.erasures,
                              b.corruptions, b.delayed))
        << "RoundStats differ in round " << i;
  }
  EXPECT_TRUE(got.jsonl == ref.jsonl) << "JSONL traces differ";
  EXPECT_EQ(got.traffic_bytes, ref.traffic_bytes);
}

}  // namespace ambb::idle_skip
