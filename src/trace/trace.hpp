// Structured protocol event tracing (DESIGN.md §12).
//
// A TraceSink receives typed events at the paper-meaningful decision
// points of every protocol family: slot/epoch boundaries, commits,
// accusations, trust-graph edge removals, cross-slot corrupt votes,
// certificate formation, adversary fault activations, and one RoundEnd
// per simulator round carrying that round's RoundStats.
//
// Sinks are pure observers: emitting an event must never feed back into
// the execution, so a run with a sink attached is bit-identical to the
// same run without one. Events carry no wall-clock (the ns_* phase
// timers of RoundStats are deliberately omitted from JsonlSink output)
// so trace files are deterministic goldens: same params + seed => same
// bytes, regardless of machine, thread count, or submission order.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/types.hpp"
#include "sim/stats.hpp"

namespace ambb::trace {

enum class EventKind : std::uint8_t {
  kSlotStart,         ///< driver: a new slot's first round begins
  kSlotCommit,        ///< node: CommitLog record for (node, slot)
  kEpochPhase,        ///< driver: named phase boundary within a slot
  kAccusation,        ///< node accuses subject (Alg. 4 / TrustCast)
  kTrustEdgeRemoved,  ///< node removes edge (subject, peer) (Alg. 5.1)
  kCorruptVote,       ///< node casts <corrupt, subject> (Alg. 5.2 DS phase)
  kCertFormed,        ///< node combines a threshold cert / proof (Alg. 4)
  kAdversaryAction,   ///< fault primitive fired (corrupt/erase/silence/...)
  kRoundEnd,          ///< simulator: round finished, stats attached
  kChunkDisperse,     ///< ext: slot sender unicasts coded chunks (§13)
  kChunkEcho,         ///< ext: node multicasts its own verified column
  kReconstruct,       ///< ext: node's end-of-run decode decision
  kDeliveryDelayed,   ///< scheduler: delivery deferred past lock-step (§16)
};

/// Stable lowercase name used in JSONL output and timelines.
const char* event_kind_name(EventKind k);

/// One trace event. Fields are kind-dependent; unused fields keep their
/// defaults and are omitted from JSONL output. `detail` must point at a
/// string literal (or other storage outliving the run) — CollectorSink
/// stores Events by value without copying the string.
struct Event {
  EventKind kind = EventKind::kRoundEnd;
  Round round = 0;
  Slot slot = 0;
  Epoch epoch = 0;
  NodeId node = kNoNode;     ///< acting node (emitter)
  NodeId subject = kNoNode;  ///< accused / removed / voted-against node
  NodeId peer = kNoNode;     ///< second endpoint of a removed edge
  Value value = 0;           ///< committed / certified value
  std::uint64_t count = 0;   ///< kind-specific magnitude (e.g. erase index)
  const char* detail = "";   ///< kind-specific tag (phase / fault name)
  RoundStats stats{};        ///< kRoundEnd only
};

/// Sink interface. Implementations must tolerate events arriving in
/// program order from a single thread (one run = one sink; the engine
/// gives every parallel job its own sink instance).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Event& e) = 0;
};

/// Null-check helper: every emission site calls through this so the
/// no-sink path costs one pointer test.
inline void emit(TraceSink* sink, const Event& e) {
  if (sink != nullptr) sink->on_event(e);
}

/// Test sink: stores events for assertions.
class CollectorSink final : public TraceSink {
 public:
  void on_event(const Event& e) override { events_.push_back(e); }

  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

/// Render one event as a single JSON line (no trailing newline). Field
/// order is fixed per kind; all values are decimal integers or literal
/// strings, so output is locale- and platform-independent. kRoundEnd
/// carries the deterministic RoundStats counters but NOT the ns_*
/// wall-clock timers.
void to_jsonl(std::ostream& os, const Event& e);

/// Deterministic JSONL sink: one line per event to the given stream.
/// The stream reference must outlive the sink.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}

  void on_event(const Event& e) override {
    to_jsonl(os_, e);
    os_ << '\n';
  }

 private:
  std::ostream& os_;
};

}  // namespace ambb::trace
