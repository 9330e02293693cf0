// TraceSink event-stream assertions, one protocol per family (linear /
// quadratic-TrustCast / Dolev-Strong / phase-king / HotStuff demo).
//
// Two kinds of guarantees are checked here:
//   1. Sinks are pure observers: a run with a CollectorSink attached is
//      bit-identical to the same run without one.
//   2. The stream is faithful: slot starts appear once per slot with the
//      right sender, commit events mirror the CommitLog exactly, and the
//      per-round RoundEnd stats sum to the run's RoundStatsSummary.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "runner/registry.hpp"
#include "trace/trace.hpp"

namespace ambb {
namespace {

using trace::EventKind;

std::vector<trace::Event> of_kind(const trace::CollectorSink& sink,
                                  EventKind k) {
  std::vector<trace::Event> out;
  for (const trace::Event& e : sink.events()) {
    if (e.kind == k) out.push_back(e);
  }
  return out;
}

std::size_t count_of(const trace::CollectorSink& sink, EventKind k) {
  return of_kind(sink, k).size();
}

struct Case {
  const char* proto;
  std::uint32_t n, f;
  Slot slots;
  std::uint64_t seed;
  const char* adversary;
};

// One representative per protocol family, each with an adversary that
// exercises the family's detection machinery.
constexpr Case kCases[] = {
    {"linear", 8u, 3u, 4u, 42ull, "mixed"},
    {"quadratic", 8u, 4u, 4u, 42ull, "equivocate"},
    {"dolev-strong", 8u, 4u, 3u, 42ull, "stagger"},
    {"phase-king", 10u, 3u, 3u, 42ull, "confuse"},
    {"hotstuff", 16u, 5u, 8u, 3ull, "selective"},
};

CommonParams params_of(const Case& c) {
  CommonParams p;
  p.n = c.n;
  p.f = c.f;
  p.slots = c.slots;
  p.seed = c.seed;
  p.adversary = c.adversary;
  return p;
}

class TraceEvents : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    const Case& c = kCases[GetParam()];
    info_ = &protocol(c.proto);
    params_ = params_of(c);
    result_ = info_->run(RunRequest{params_, &sink_});
  }

  const ProtocolInfo* info_ = nullptr;
  CommonParams params_;
  trace::CollectorSink sink_;
  RunResult result_;
};

TEST_P(TraceEvents, SinkIsAPureObserver) {
  const RunResult bare = info_->run(params_);  // no sink attached
  EXPECT_EQ(result_.honest_bits, bare.honest_bits);
  EXPECT_EQ(result_.adversary_bits, bare.adversary_bits);
  EXPECT_EQ(result_.honest_msgs, bare.honest_msgs);
  EXPECT_EQ(result_.rounds, bare.rounds);
  EXPECT_EQ(result_.per_slot_bits, bare.per_slot_bits);
  EXPECT_EQ(result_.corrupt, bare.corrupt);
  for (Slot k = 1; k <= result_.slots; ++k) {
    for (NodeId v = 0; v < result_.n; ++v) {
      ASSERT_EQ(result_.commits.has(v, k), bare.commits.has(v, k));
      if (!result_.commits.has(v, k)) continue;
      EXPECT_EQ(result_.commits.get(v, k).value, bare.commits.get(v, k).value);
      EXPECT_EQ(result_.commits.get(v, k).round, bare.commits.get(v, k).round);
    }
  }
}

TEST_P(TraceEvents, NullSinkMatchesNoSink) {
  class NullSink final : public trace::TraceSink {
   public:
    void on_event(const trace::Event&) override {}
  } null;
  const RunResult a = info_->run(RunRequest{params_, &null});
  const RunResult b = info_->run(params_);
  EXPECT_EQ(a.honest_bits, b.honest_bits);
  EXPECT_EQ(a.per_slot_bits, b.per_slot_bits);
}

TEST_P(TraceEvents, EverySlotStartsOnceWithItsSender) {
  const auto starts = of_kind(sink_, EventKind::kSlotStart);
  ASSERT_EQ(starts.size(), static_cast<std::size_t>(result_.slots));
  Slot expected = 1;
  for (const trace::Event& e : starts) {
    EXPECT_EQ(e.slot, expected);
    ASSERT_LT(e.node, result_.n);
    EXPECT_EQ(e.node, result_.senders[e.slot]);
    ++expected;
  }
}

TEST_P(TraceEvents, CommitEventsMirrorTheCommitLog) {
  std::map<std::pair<NodeId, Slot>, trace::Event> by_cell;
  for (const trace::Event& e : of_kind(sink_, EventKind::kSlotCommit)) {
    const auto cell = std::make_pair(e.node, e.slot);
    ASSERT_EQ(by_cell.count(cell), 0u)
        << "duplicate commit event for node " << e.node << " slot " << e.slot;
    by_cell.emplace(cell, e);
  }
  std::size_t records = 0;
  for (Slot k = 1; k <= result_.slots; ++k) {
    for (NodeId v = 0; v < result_.n; ++v) {
      if (!result_.commits.has(v, k)) continue;
      ++records;
      const auto it = by_cell.find({v, k});
      ASSERT_NE(it, by_cell.end())
          << "commit record without event: node " << v << " slot " << k;
      const CommitRecord& c = result_.commits.get(v, k);
      EXPECT_EQ(it->second.value, c.value);
      EXPECT_EQ(it->second.round, c.round);
    }
  }
  EXPECT_EQ(by_cell.size(), records);
}

TEST_P(TraceEvents, RoundEndEventsSumToTheRunSummary) {
  const auto ends = of_kind(sink_, EventKind::kRoundEnd);
  // One kRoundEnd per round, elided rounds included.
  ASSERT_EQ(ends.size(), result_.rounds);
  RoundStatsSummary from_events;
  for (const trace::Event& e : ends) accumulate(from_events, e.stats);
  const RoundStatsSummary want = result_.stats_summary();
  EXPECT_EQ(from_events.rounds, want.rounds);
  EXPECT_EQ(from_events.records, want.records);
  EXPECT_EQ(from_events.deliveries, want.deliveries);
  EXPECT_EQ(from_events.honest_bits, want.honest_bits);
  EXPECT_EQ(from_events.adversary_bits, want.adversary_bits);
  EXPECT_EQ(from_events.erasures, want.erasures);
  EXPECT_EQ(from_events.corruptions, want.corruptions);
  EXPECT_EQ(from_events.max_round_deliveries, want.max_round_deliveries);
}

TEST_P(TraceEvents, RoundsAreMonotone) {
  Round last = 0;
  for (const trace::Event& e : sink_.events()) {
    EXPECT_GE(e.round, last) << event_kind_name(e.kind);
    last = e.round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, TraceEvents,
    ::testing::Range(std::size_t{0}, std::size_t{std::size(kCases)}),
    [](const auto& info) {
      std::string s = kCases[info.param].proto;
      for (char& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

// ---- family-specific stream content ---------------------------------------

TEST(TraceLinear, MixedAdversaryProducesDetectionEvents) {
  trace::CollectorSink sink;
  protocol("linear").run(RunRequest{params_of(kCases[0]), &sink});
  EXPECT_GT(count_of(sink, EventKind::kAccusation), 0u);
  EXPECT_GT(count_of(sink, EventKind::kCertFormed), 0u);
  EXPECT_GT(count_of(sink, EventKind::kEpochPhase), 0u);
  EXPECT_GT(count_of(sink, EventKind::kAdversaryAction), 0u);
}

TEST(TraceQuadratic, EquivocationKillsTrustEdgesAndDrawsCorruptVotes) {
  trace::CollectorSink sink;
  const RunResult r =
      protocol("quadratic").run(RunRequest{params_of(kCases[1]), &sink});
  EXPECT_GT(count_of(sink, EventKind::kTrustEdgeRemoved), 0u);
  const auto votes = of_kind(sink, EventKind::kCorruptVote);
  ASSERT_GT(votes.size(), 0u);
  for (const trace::Event& e : votes) {
    // Alg. 5.2 soundness: honest nodes only vote against actually
    // corrupt nodes (here: the equivocating senders).
    EXPECT_TRUE(r.corrupt[e.subject])
        << "node " << e.node << " voted against honest node " << e.subject;
  }
}

TEST(TracePhaseKing, OneKingPhasePerPhasePerSlot) {
  trace::CollectorSink sink;
  const Case& c = kCases[3];
  protocol("phase-king").run(RunRequest{params_of(c), &sink});
  EXPECT_EQ(count_of(sink, EventKind::kEpochPhase),
            static_cast<std::size_t>(c.slots) * (c.f + 1));
}

TEST(TraceHotstuff, SelectiveLeaderStallIsVisibleInTheStream) {
  trace::CollectorSink sink;
  const RunResult r =
      protocol("hotstuff").run(RunRequest{params_of(kCases[4]), &sink});
  EXPECT_GT(count_of(sink, EventKind::kCertFormed), 0u);
  // The Appendix A claim: some honest node misses a commit, and the
  // trace shows fewer commit events than a fully live run would have.
  EXPECT_FALSE(check_termination(r).empty());
  EXPECT_LT(count_of(sink, EventKind::kSlotCommit),
            static_cast<std::size_t>(r.slots) * r.n);
  EXPECT_GT(count_of(sink, EventKind::kAdversaryAction), 0u);
}

}  // namespace
}  // namespace ambb
