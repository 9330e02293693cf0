// Lock-step synchronous network simulator (the paper's model, Section 3).
//
// Time advances in rounds. In round r every node emits messages; all
// surviving messages are delivered at the beginning of round r+1. The
// adversary is rushing (Byzantine actors step after honest actors and can
// observe the honest round-r traffic before sending their own) and
// strongly adaptive (after all traffic of round r is fixed, it may corrupt
// additional nodes and erase messages those nodes sent in round r, i.e.
// after-the-fact message removal [Abraham et al.]).
//
// The simulator is templated on the protocol's message type: each protocol
// family defines one message struct plus a SizeModel mapping messages to
// exact wire bits and accounting kinds.
//
// Traffic representation: a round's traffic is a vector of TrafficRecords.
// A unicast is one record; a multicast is ALSO one record — the payload is
// stored once and delivered as a (sender, const Msg*) pair — and so is a
// group, one payload sent to an explicit recipient list (an expander
// forward). Under lockstep the round's multicasts land once, in one
// shared inbox stream; only a node whose inbox differs from that stream
// (it gets a unicast or a group delivery, loses a delivery to erasure or
// gets a deferred one) is given its own inbox, filled in the same order
// (DESIGN.md §19). A family whose policy defines repeat_key
// (ElidesRepeats) also has the exact repeats left out of the stream its
// honest readers get; Byzantine readers and own inboxes see every copy.
// The adversary still addresses *individual* (sender, recipient)
// deliveries: record i with fanout c_i owns the half-open delivery-index
// range [base_i, base_i + c_i), where base_i = sum of earlier fanouts; a
// multicast's deliveries appear in recipient order 0..n-1 and a group's
// in list order. This enumerates deliveries in exactly the order the
// former eager-copy representation enumerated envelopes, and a group's
// exactly as the same sends made one by one (DESIGN.md §22), so erase
// indices (and therefore seeded adversary decisions) are unchanged.
//
// Event-queue scheduler (DESIGN.md §16): delivery is driven by a
// deterministic event queue parameterized by a NetPolicy
// (sim/net_policy.hpp). Under the default lockstep policy the queue
// stays empty and every inbox is exactly what the pre-scheduler
// simulator delivered. Under bounded/async policies, each surviving
// delivery may be deferred by extra rounds (policy draw + adversary
// delay() calls, clamped to the policy bound):
// the payload is copied into a due-round bucket, once per record and
// landing round whatever its fanout, and delivered, before
// that round's fresh lock-step traffic, in emission order. Accounting
// is charged at EMISSION time (the sender paid to transmit; the network
// holding a message does not refund it), and erased deliveries never
// enter the queue — erasure always wins over delay.
//
// Idle-round elision (DESIGN.md §17): after each on_round/observe_round
// the simulator asks the actor/adversary for its next_wake() and skips
// it until then unless it has mail (or, for Byzantine actors and the
// adversary, the round carries traffic). A round in which nothing is
// due takes an O(1) path: it keeps no RoundStats row, only counts the
// round as elided, and still emits a zero-stats kRoundEnd, so every trace
// stays byte-identical. The default wake is r + 1: families that do not
// opt in run every round.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/cost.hpp"
#include "sim/net_policy.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace ambb {

/// Delivery::record of a delivery that names no lock-step record.
inline constexpr std::uint32_t kNoRecord =
    std::numeric_limits<std::uint32_t>::max();

/// One message as seen by its recipient. The payload lives in the
/// simulator's traffic log for the previous round and is shared by all
/// recipients of a multicast or group; it stays valid for the whole round.
template <typename Msg>
struct Delivery {
  NodeId from = kNoNode;
  /// The payload's index in last round's traffic log, set by the
  /// lock-step delivery path only (kNoRecord on the timing path and for
  /// deferred deliveries). Within one round, equal ids name the same
  /// record, so a family may check a multicast or group once for all its
  /// recipients (RecordVerdicts). Sits in the padding after `from`.
  std::uint32_t record = kNoRecord;
  const Msg* payload = nullptr;

  const Msg& msg() const { return *payload; }
};

// The record id rides in padding: a Delivery stays two words, so it never
// grows the inbox buffers (DESIGN.md §19).
static_assert(sizeof(Delivery<int>) == 16,
              "Delivery must stay 16 bytes: from, record, payload");

/// One cached verdict per lock-step record of a round, for checks that
/// do not depend on the recipient (a share on a multicast that n nodes
/// receive). Each entry is stamped with the round that consumed it, so a
/// new round invalidates every entry without a clear, and the table only
/// grows to the largest record index seen. A kNoRecord delivery is
/// checked directly and never cached. Hit and miss counts go to
/// thread-local counters that only observe.
class RecordVerdicts {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// The verdict of `record` in round r: the cached one if round r
  /// already checked this record, else check(), stored for the round.
  template <typename Check>
  bool get(Round r, std::uint32_t record, Check&& check) {
    if (record == kNoRecord) return check();
    if (record >= tags_.size()) tags_.resize(std::size_t{record} + 1, 0);
    // tag = (r + 1) << 1 | verdict; 0 never matches a round.
    std::uint64_t& tag = tags_[record];
    const std::uint64_t stamp = (r + 1) << 1;
    Stats& st = counters();
    if ((tag & ~std::uint64_t{1}) == stamp) {
      ++st.hits;
      return (tag & 1) != 0;
    }
    ++st.misses;
    const bool ok = check();
    tag = stamp | (ok ? 1 : 0);
    return ok;
  }

  /// Hits and misses of every table the calling thread used, cumulative:
  /// take it before and after a run and subtract.
  static Stats stats() { return counters(); }

 private:
  static Stats& counters() {
    thread_local Stats st;
    return st;
  }

  std::vector<std::uint64_t> tags_;
};

/// Finds the exact repeats among one round's multicasts, for the families
/// whose policy defines repeat_key (DESIGN.md §19). An open-addressing
/// set of record ids, indexed by the high half of each payload's key and
/// sized to the distinct payloads seen (load at most one half), so a
/// flood of equal copies keeps it small. A key match is only a candidate:
/// the caller decides a repeat by comparing whole payloads. Repeat and
/// multicast counts go to thread-local counters that only observe.
class RepeatIndex {
 public:
  struct Stats {
    std::uint64_t repeats = 0;     ///< multicasts found to repeat one
    std::uint64_t multicasts = 0;  ///< multicasts looked at
  };

  /// Round boundary: forget every payload. The table keeps its capacity.
  void reset() {
    resize_empty(kMinSlots);
    used_ = 0;
  }

  /// Whether record `id` repeats a record added since reset(), by
  /// `same(j)`: record j's payload equals id's. If not, adds `id`.
  template <typename Same>
  bool repeat(std::uint64_t key, std::uint32_t id, Same&& same) {
    Stats& st = counters();
    ++st.multicasts;
    const auto hi = static_cast<std::uint32_t>(key >> 32);
    std::size_t at = hi & mask_;
    for (; slots_[at] != kEmpty; at = (at + 1) & mask_) {
      const std::uint64_t e = slots_[at];
      if (static_cast<std::uint32_t>(e >> 32) == hi &&
          same(static_cast<std::uint32_t>(e))) {
        ++st.repeats;
        return true;
      }
    }
    slots_[at] = (std::uint64_t{hi} << 32) | id;
    if (2 * ++used_ > mask_ + 1) grow();
    return false;
  }

  /// Heap bytes the table holds (capacity, not size).
  std::size_t reserved_bytes() const {
    return (slots_.capacity() + old_.capacity()) * sizeof(std::uint64_t);
  }

  /// Repeats and multicasts of every index the calling thread used,
  /// cumulative: take it before and after a run and subtract.
  static Stats stats() { return counters(); }

 private:
  /// An entry is (key >> 32) << 32 | record id; no record id is kNoRecord.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinSlots = 64;

  static Stats& counters() {
    thread_local Stats st;
    return st;
  }

  void resize_empty(std::size_t slots) {
    if (slots_.size() < slots) slots_.resize(slots);
    std::fill_n(slots_.begin(), slots, kEmpty);
    mask_ = slots - 1;
  }

  /// Double the table and re-place every entry by its stored key half.
  void grow() {
    old_.assign(slots_.begin(), slots_.begin() + (mask_ + 1));
    resize_empty(2 * (mask_ + 1));
    for (const std::uint64_t e : old_) {
      if (e == kEmpty) continue;
      std::size_t at = (e >> 32) & mask_;
      while (slots_[at] != kEmpty) at = (at + 1) & mask_;
      slots_[at] = e;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::vector<std::uint64_t> old_;  ///< grow()'s copy of the old table
  std::size_t mask_ = 0;
  std::size_t used_ = 0;
};

/// A family's accounting policy opts in to repeat elision (DESIGN.md §19)
/// by defining repeat_key(m), a hash of the payload that gives equal
/// payloads equal keys, on a message type with ==. Opting in promises
/// that an honest recipient's handling of a multicast depends only on its
/// payload, and that a payload equal to one it handled earlier in the
/// same inbox changes nothing.
template <typename Policy, typename Msg>
concept ElidesRepeats =
    std::equality_comparable<Msg> && requires(const Policy& p, const Msg& m) {
      { p.repeat_key(m) } -> std::same_as<std::uint64_t>;
    };

/// One round of emitted traffic as shared records.
template <typename Msg>
class TrafficLog {
 public:
  /// Set in Record::to for a group; the low bits index groups_.
  static constexpr NodeId kGroupTag = NodeId{1} << 31;

  struct Record {
    NodeId from = kNoNode;
    /// kNoNode: a multicast to all n. kGroupTag | i: a group whose
    /// recipient count is groups_[i], followed by the recipients. Else
    /// the one recipient of a unicast.
    NodeId to = kNoNode;
    Msg msg{};
    std::size_t base = 0;  ///< first delivery index owned by this record

    bool is_multicast() const { return to == kNoNode; }
    /// Only meaningful once is_multicast() is false (kNoNode has the tag
    /// bit too).
    bool is_group() const { return (to & kGroupTag) != 0; }
  };

  /// Round boundary: drop all records. The vectors keep their capacity,
  /// so once they have reached their high-water mark a round allocates
  /// nothing.
  void reset(std::uint32_t n) {
    AMBB_CHECK(n < kGroupTag);
    n_ = n;
    records_.clear();
    groups_.clear();
    deliveries_ = 0;
    counted_ = 0;
  }

  void add_unicast(NodeId from, NodeId to, const Msg& m) {
    // Emplaced, not pushed: the payload is copied exactly once, straight
    // into the log (Msg can be large; the hot path sends millions).
    records_.emplace_back(from, to, m, deliveries_);
    deliveries_ += 1;
    counted_ += 1;
  }

  void add_multicast(NodeId from, const Msg& m) {
    records_.emplace_back(from, kNoNode, m, deliveries_);
    deliveries_ += n_;
    counted_ += 1;
  }

  /// One record for the same payload sent to each node of `to`, in list
  /// order; an empty list adds nothing.
  void add_group(NodeId from, std::span<const NodeId> to, const Msg& m) {
    if (to.empty()) return;
    AMBB_CHECK(groups_.size() < kGroupTag);
    const auto at = static_cast<NodeId>(groups_.size());
    groups_.push_back(static_cast<NodeId>(to.size()));
    groups_.insert(groups_.end(), to.begin(), to.end());
    records_.emplace_back(from, kGroupTag | at, m, deliveries_);
    deliveries_ += to.size();
    counted_ += to.size();
  }

  std::size_t deliveries() const { return deliveries_; }
  const std::vector<Record>& records() const { return records_; }
  /// The round's records as RoundStats::records counts them: a group
  /// counts once per recipient, like the unicasts it stands for.
  std::size_t counted_records() const { return counted_; }

  /// Heap bytes the log holds (capacity, not size).
  std::size_t reserved_bytes() const {
    return records_.capacity() * sizeof(Record) +
           groups_.capacity() * sizeof(NodeId);
  }

  /// The recipient list of a group record, in delivery-index order.
  std::span<const NodeId> recipients(const Record& rec) const {
    const std::size_t at = rec.to & ~kGroupTag;
    return std::span<const NodeId>(groups_.data() + at + 1, groups_[at]);
  }

  std::size_t fanout(const Record& rec) const {
    if (rec.is_multicast()) return n_;
    if (rec.is_group()) return groups_[rec.to & ~kGroupTag];
    return 1;
  }

  /// Index of the record owning delivery index d.
  std::size_t record_of(std::size_t d) const {
    AMBB_CHECK(d < deliveries_);
    // Bases are strictly increasing; find the last base <= d.
    auto it = std::upper_bound(
        records_.begin(), records_.end(), d,
        [](std::size_t x, const Record& r) { return x < r.base; });
    return static_cast<std::size_t>((it - records_.begin()) - 1);
  }

  NodeId recipient_of(const Record& rec, std::size_t d) const {
    if (rec.is_multicast()) return static_cast<NodeId>(d - rec.base);
    if (rec.is_group()) return recipients(rec)[d - rec.base];
    return rec.to;
  }

 private:
  std::uint32_t n_ = 0;
  std::vector<Record> records_;
  /// Every group's recipient count followed by its recipients, in record
  /// order.
  std::vector<NodeId> groups_;
  std::size_t deliveries_ = 0;
  std::size_t counted_ = 0;
};

/// Read-only per-delivery view of (a prefix of) a TrafficLog, used for the
/// rushing adversary and observe_round. Indexing is by delivery index (see
/// the header comment); access goes through the log pointer, so the view
/// stays valid while Byzantine actors append to the same log.
///
/// THREAD-SAFETY: logically const access is NOT thread-safe. operator[]
/// advances the mutable cursor_ memoization, so two threads indexing the
/// SAME view instance race on it — a "read-only" view is a writer. This
/// is by design (the cursor makes sequential scans O(1) amortized); the
/// consequence for the experiment engine (src/engine/) is its isolation
/// rule: concurrent jobs must each own their own Simulation and must
/// never share one, nor any TrafficView derived from one. Passing a COPY
/// of a view to another thread would be safe (each copy carries a private
/// cursor; the static_assert below keeps copies trivial), but sharing one
/// instance is not.
template <typename Msg>
class TrafficView {
 public:
  struct DeliveryRef {
    NodeId from;
    NodeId to;
    const Msg& msg;
  };

  TrafficView() = default;
  TrafficView(const TrafficLog<Msg>* log, std::size_t limit)
      : log_(log), limit_(limit) {}

  std::size_t size() const { return limit_; }

  DeliveryRef operator[](std::size_t d) const {
    AMBB_CHECK(d < limit_);
    const auto& recs = log_->records();
    // Cursor makes sequential scans O(1) amortized instead of O(log R).
    if (cursor_ >= recs.size() || d < recs[cursor_].base ||
        d >= recs[cursor_].base + log_->fanout(recs[cursor_])) {
      cursor_ = log_->record_of(d);
    }
    const auto& rec = recs[cursor_];
    return DeliveryRef{rec.from, log_->recipient_of(rec, d), rec.msg};
  }

 private:
  const TrafficLog<Msg>* log_ = nullptr;
  std::size_t limit_ = 0;
  mutable std::size_t cursor_ = 0;
};

// Enforce the thread-safety contract above as far as the type system
// can: a TrafficView must stay trivially copyable (copy = private cursor,
// no shared mutable state behind the copy), so that per-thread COPIES
// remain the safe way to hand traffic to concurrent readers. If someone
// adds state that breaks this (a lock, a shared cache), this fires and
// the engine's job-isolation rule must be revisited.
static_assert(std::is_trivially_copyable_v<TrafficView<int>>,
              "TrafficView copies must stay trivial: a shared instance is "
              "not thread-safe (mutable cursor_), per-thread copies are");

/// Sending interface handed to an actor for one round.
template <typename Msg>
class RoundApi {
 public:
  RoundApi(NodeId self, std::uint32_t n, TrafficLog<Msg>* out)
      : self_(self), n_(n), out_(out) {}

  void send(NodeId to, const Msg& m) {
    AMBB_CHECK(to < n_);
    out_->add_unicast(self_, to, m);
  }

  /// Send to all n nodes. Stored as ONE shared record; the self-copy is
  /// delivered but not charged: the paper's multicast costs n-1
  /// transmissions.
  void multicast(const Msg& m) { out_->add_multicast(self_, m); }

  /// Send `m` to each node of `to`, in list order. Stored as ONE group
  /// record, delivered and charged exactly like the same sends made one
  /// by one (no free self-copy).
  void send_group(std::span<const NodeId> to, const Msg& m) {
    for (NodeId v : to) AMBB_CHECK(v < n_);
    out_->add_group(self_, to, m);
  }

 private:
  NodeId self_;
  std::uint32_t n_;
  TrafficLog<Msg>* out_;
};

/// A next_wake() answer meaning "only mail (or traffic) wakes me".
inline constexpr Round kNeverWake = std::numeric_limits<Round>::max();

/// A node's protocol logic. One Actor instance persists across the entire
/// multi-shot execution (protocols carry cross-slot state).
template <typename Msg>
class Actor {
 public:
  virtual ~Actor() = default;

  /// Called once per round with the messages delivered at the beginning of
  /// this round. For Byzantine actors, `rushed_traffic` additionally holds
  /// the traffic already emitted by honest nodes in this same round
  /// (rushing adversary); it is empty for honest actors.
  virtual void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                        const TrafficView<Msg>& rushed_traffic,
                        RoundApi<Msg>& api) = 0;

  /// Wake contract (DESIGN.md §17), asked right after on_round(r): the
  /// next round this actor must run even with an empty inbox. Returning
  /// w promises that every on_round(r') with r < r' < w, an empty inbox
  /// and (for a Byzantine actor) empty rushed traffic would emit nothing
  /// and change nothing a later round depends on, so the simulator may
  /// skip those calls. Mail always wakes the actor, and rushed honest
  /// traffic always wakes a Byzantine one.
  virtual Round next_wake(Round r) const { return r + 1; }
};

/// Control surface for the strongly adaptive corruption step.
template <typename Msg>
class CorruptionCtl {
 public:
  virtual ~CorruptionCtl() = default;

  /// Corrupt `node` now (end of the current round). Fails if the
  /// corruption budget f is exhausted.
  virtual void corrupt(NodeId node) = 0;

  /// Erase one (sender, recipient) delivery of the current round, by its
  /// delivery index. Only deliveries whose sender is (now) corrupt may be
  /// erased — after-the-fact removal.
  virtual void erase(std::size_t delivery_index) = 0;

  /// Defer one delivery of the current round by `extra_rounds` past the
  /// lock-step latency. Timing is a NETWORK power, not a corruption: any
  /// sender's traffic may be delayed, honest or not, and no budget is
  /// consumed — but the policy bound still applies (the total extra
  /// delay of a delivery is clamped to Δ under bounded and to the
  /// eventual-delivery cap under async). Rejected under lockstep.
  /// Erasing the same delivery wins: an erased message is never queued.
  virtual void delay(std::size_t delivery_index,
                     std::uint32_t extra_rounds) = 0;

  /// The delay policy in force (lockstep when unconfigured), so
  /// adversaries can scale their timing faults to the policy bound.
  virtual const NetPolicy& net() const = 0;

  virtual bool is_corrupt(NodeId node) const = 0;
  virtual std::uint32_t corruption_budget_left() const = 0;
};

/// The adversary: chooses corruptions, supplies Byzantine actors, and may
/// exercise the strongly adaptive hook each round.
template <typename Msg>
class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual std::vector<NodeId> initial_corruptions() = 0;

  /// Byzantine replacement logic for a corrupted node.
  virtual std::unique_ptr<Actor<Msg>> actor_for(NodeId node) = 0;

  /// Strongly adaptive step: observe all round-r traffic (per delivery),
  /// optionally corrupt more nodes and erase their round-r deliveries.
  virtual void observe_round(Round r, const TrafficView<Msg>& traffic,
                             CorruptionCtl<Msg>& ctl) {
    (void)r;
    (void)traffic;
    (void)ctl;
  }

  /// Wake contract of the adversary, asked right after observe_round(r):
  /// the next round whose observe_round must run even if that round
  /// carries no traffic (a round with traffic always runs it).
  virtual Round next_wake(Round r) const { return r + 1; }
};

/// Everything a Simulation needs beyond its constructor arguments, in
/// one order-insensitive value. Apply with Simulation::configure() after
/// installing the honest actors and before the first step(); an
/// unconfigured Simulation runs with the defaults below (untraced,
/// lockstep, no adversary).
template <typename Msg>
struct SimConfig {
  /// Trace sink (may be nullptr = untraced). The simulator emits one
  /// kRoundEnd per step() plus a kAdversaryAction for every corruption,
  /// erasure and delay; configure() installs the sink before applying
  /// initial corruptions, so those are traced too. Pure observation:
  /// the execution is bit-identical with or without a sink.
  trace::TraceSink* trace = nullptr;
  /// Message-delay policy (sim/net_policy.hpp). Drivers build it with
  /// make_net_policy(spec, run_seed) so the bounded draw is seeded.
  NetPolicy net{};
  /// The adversary (may be nullptr). Its initial corruptions are applied
  /// inside configure(), replacing the corrupted nodes' actors.
  Adversary<Msg>* adversary = nullptr;
};

/// `Policy` prices messages: size_bits(m), kind(m) and slot(m, sent_round).
/// Each protocol driver supplies a concrete struct with inlineable
/// members; step() evaluates it once per traffic record (once per
/// multicast, group or unicast), never per delivery.
template <typename Msg, typename Policy>
class Simulation final : CorruptionCtl<Msg> {
 public:
  Simulation(std::uint32_t n, std::uint32_t f, CostLedger* ledger,
             Policy policy)
      : n_(n),
        f_(f),
        ledger_(ledger),
        policy_(std::move(policy)),
        corrupt_(n, 0),
        actors_(n),
        wake_(n, 0),
        own_(n, 0),
        own_begin_(n, 0),
        own_end_(n, 0) {
    AMBB_CHECK(n >= 1 && f < n);
    AMBB_CHECK(ledger != nullptr);
  }

  /// Install the honest actor for every node. Do this before
  /// configure(): binding the adversary replaces the actors of initially
  /// corrupted nodes.
  void set_actor(NodeId node, std::unique_ptr<Actor<Msg>> actor) {
    AMBB_CHECK(node < n_);
    actors_[node] = std::move(actor);
  }

  /// Apply the full run configuration in one order-insensitive call —
  /// THE setup entry point (trace sink, delay policy, adversary). Must
  /// run before the first step() and at most once: the scheduler's
  /// determinism argument assumes the policy never changes mid-run.
  void configure(const SimConfig<Msg>& cfg) {
    AMBB_CHECK_MSG(!configured_ && round_ == 0,
                   "Simulation::configure: must be called at most once, "
                   "before the first step()");
    configured_ = true;
    trace_ = cfg.trace;
    net_ = cfg.net;
    adversary_ = cfg.adversary;
    if (adversary_ != nullptr) {
      for (NodeId v : adversary_->initial_corruptions()) do_corrupt(v);
    }
  }

  /// The delay policy in force.
  const NetPolicy& net() const override { return net_; }

  Round now() const { return round_; }

  /// Introspection for tests: the actor currently installed for `node`
  /// (the honest protocol node, or the adversary's replacement).
  Actor<Msg>* actor(NodeId node) const {
    AMBB_CHECK(node < n_);
    return actors_[node].get();
  }

  bool is_corrupt(NodeId node) const override {
    AMBB_CHECK(node < n_);
    return corrupt_[node] != 0;
  }
  std::uint32_t corruption_budget_left() const override {
    return f_ - corrupt_count_;
  }

  /// Hand the per-round stats (one per executed round, in round order)
  /// over and keep none: the run is over, and one copy of a long run's
  /// rows is enough.
  std::vector<RoundStats> take_round_stats() {
    return std::exchange(round_stats_, {});
  }

  /// Rounds that took the O(1) quiescent path and so have no row.
  std::uint64_t elided_rounds() const { return elided_rounds_; }

  /// Heap bytes held by the per-round traffic buffers: both round logs,
  /// the shared stream and its first copies with their repeat index, the
  /// own-inbox buffer and the timing path's staging buffer (capacity, not
  /// size). A pure observer (tests pin that elision keeps it equal to a
  /// run without elision).
  std::size_t traffic_reserved_bytes() const {
    return cur_.reserved_bytes() + prev_.reserved_bytes() +
           (shared_.capacity() + first_.capacity() + own_buf_.capacity()) *
               sizeof(Delivery<Msg>) +
           repeats_.reserved_bytes() + staged_.capacity() * sizeof(Staged);
  }

  /// Execute one lock-step round.
  void step() {
    if (quiescent()) {
      // The O(1) path: what a full step produces when nobody runs — zero
      // counters, zero ns_* — is only counted, not stored.
      ++elided_rounds_;
      RoundStats st;
      st.round = round_;
      finish_round(st);
      return;
    }
    using Clock = std::chrono::steady_clock;
    RoundStats st;
    st.round = round_;
    const std::uint32_t corrupt_before = corrupt_count_;
    const std::uint64_t honest_bits_before = ledger_->honest_bits_total();
    const std::uint64_t adv_bits_before = ledger_->adversary_bits_total();

    cur_.reset(n_);
    erased_.clear();
    delayed_.clear();
    if (roster_dirty_) rebuild_roster();

    // 1. Honest actors act on their inboxes. An actor with no mail whose
    //    wake lies in the future sleeps through the round.
    auto t0 = Clock::now();
    for (NodeId v : honest_ids_) {
      if (wake_[v] > round_ && !has_mail(v)) continue;
      RoundApi<Msg> api(v, n_, &cur_);
      actors_[v]->on_round(round_, inbox_of(v), TrafficView<Msg>{}, api);
      wake_[v] = actors_[v]->next_wake(round_);
    }
    const std::size_t honest_deliveries = cur_.deliveries();
    auto t1 = Clock::now();

    // 2. Byzantine actors act, rushing: they see the honest traffic. The
    //    view reads through the log, so it survives the appends Byzantine
    //    actors make to the same log. Rushed traffic wakes them all.
    const TrafficView<Msg> rushed(&cur_, honest_deliveries);
    for (NodeId v : corrupt_ids_) {
      if (honest_deliveries == 0 && wake_[v] > round_ && !has_mail(v)) {
        continue;
      }
      RoundApi<Msg> api(v, n_, &cur_);
      actors_[v]->on_round(round_, inbox_of(v), rushed, api);
      wake_[v] = actors_[v]->next_wake(round_);
    }
    auto t2 = Clock::now();

    // 3. Strongly adaptive step: adversary inspects all round traffic,
    //    may corrupt senders and erase their deliveries. It sleeps only
    //    through traffic-free rounds before its wake.
    if (adversary_ != nullptr &&
        (adversary_wake_ <= round_ || cur_.deliveries() != 0)) {
      const TrafficView<Msg> all(&cur_, cur_.deliveries());
      adversary_->observe_round(round_, all, *this);
      adversary_wake_ = adversary_->next_wake(round_);
    }
    if (!erased_.empty()) {
      std::sort(erased_.begin(), erased_.end());
      erased_.erase(std::unique(erased_.begin(), erased_.end()),
                    erased_.end());
    }
    auto t3 = Clock::now();

    // 4. Charge costs: the policy runs once per RECORD, the charge covers
    //    all its surviving non-free deliveries at once. A sender corrupted
    //    during step 3 is corrupt for accounting purposes: its bits are
    //    not honest bits.
    {
      auto er = erased_.begin();
      for (const auto& rec : cur_.records()) {
        const std::size_t fanout = cur_.fanout(rec);
        std::uint64_t charged = fanout;
        if (rec.is_multicast() && !erased_covers(rec.base + rec.from)) {
          charged -= 1;  // the free self-copy (unless itself erased)
        }
        while (er != erased_.end() && *er < rec.base + fanout) {
          charged -= 1;
          ++er;
        }
        if (charged == 0) continue;
        ledger_->charge_n(policy_.slot(rec.msg, round_),
                          policy_.kind(rec.msg), policy_.size_bits(rec.msg),
                          !corrupt_[rec.from], charged);
      }
    }
    auto t4 = Clock::now();

    // 5. Deliver surviving messages for the next round. Inboxes reference
    //    the record payloads, so the log must outlive the next round's
    //    sends: double-buffer and swap instead of clearing in place.
    //    The shared multicast stream and the own inboxes are refilled
    //    here (the old contents were consumed in steps 1-2). Each own
    //    inbox is a slice of one flat buffer, laid out from per-node
    //    counts before it is filled; every buffer keeps its capacity.
    for (NodeId v : touched_inboxes_) own_[v] = 0;
    touched_inboxes_.clear();
    shared_.clear();
    if constexpr (kElidesRepeats) first_.clear();
    std::size_t own_total = 0;
    if (net_.lockstep()) {
      //  Lock-step path (DESIGN.md §19). A node whose inbox is exactly
      //  the round's multicasts in record order reads the shared stream;
      //  a pre-pass marks the rest own: unicast, group and erased-delivery
      //  recipients. It also counts, per own node, its unicast and group
      //  deliveries minus its erased ones; adding the multicast count
      //  gives the node's inbox size (the unsigned count may wrap below
      //  zero on the way, the sum never does). Then one pass fills the
      //  stream and the own inboxes in record order, each multicast
      //  visiting the own nodes in ascending id and each group its list —
      //  their delivery-index orders — so the sorted erasure cursor still
      //  steps through every erased index. Every delivery carries its
      //  record's index, the id RecordVerdicts keys on. If the policy
      //  opts in, each multicast whose payload equals an earlier one of
      //  the round is left out of first_, the stream honest readers of
      //  the shared stream get (exact repeats). The deferred queue is
      //  empty under lockstep.
      std::size_t multicasts = 0;
      auto er = erased_.begin();
      for (const auto& rec : cur_.records()) {
        if (rec.is_multicast()) {
          ++multicasts;
        } else if (rec.is_group()) {
          for (NodeId v : cur_.recipients(rec)) {
            mark_own(v);
            ++own_end_[v];
          }
        } else {
          mark_own(rec.to);
          ++own_end_[rec.to];
        }
        const std::size_t end = rec.base + cur_.fanout(rec);
        for (; er != erased_.end() && *er < end; ++er) {
          const NodeId v = cur_.recipient_of(rec, *er);
          mark_own(v);
          --own_end_[v];
        }
      }
      std::sort(touched_inboxes_.begin(), touched_inboxes_.end());
      own_total = lay_out_own_inboxes(multicasts);
      if constexpr (kElidesRepeats) repeats_.reset();
      er = erased_.begin();
      const auto& recs = cur_.records();
      AMBB_CHECK(recs.size() < kNoRecord);
      for (std::uint32_t i = 0; i < recs.size(); ++i) {
        const auto& rec = recs[i];
        const Delivery<Msg> delivery{rec.from, i, &rec.msg};
        if (rec.is_multicast()) {
          shared_.push_back(delivery);
          if constexpr (kElidesRepeats) {
            const bool repeat = repeats_.repeat(
                policy_.repeat_key(rec.msg), i,
                [&](std::uint32_t j) { return recs[j].msg == rec.msg; });
            if (!repeat) first_.push_back(delivery);
          }
          for (NodeId v : touched_inboxes_) {
            if (er != erased_.end() && *er == rec.base + v) {
              ++er;
              continue;
            }
            own_buf_[own_end_[v]++] = delivery;
          }
        } else if (rec.is_group()) {
          const auto to = cur_.recipients(rec);
          for (std::size_t j = 0; j < to.size(); ++j) {
            if (er != erased_.end() && *er == rec.base + j) {
              ++er;
              continue;
            }
            own_buf_[own_end_[to[j]]++] = delivery;
          }
        } else if (er != erased_.end() && *er == rec.base) {
          ++er;
        } else {
          own_buf_[own_end_[rec.to]++] = delivery;
        }
      }
    } else {
      //  Timing path: every recipient is own. Deliveries are staged with
      //  their recipients, then grouped by recipient in staging order.
      //  Event queue first: deliveries deferred by earlier rounds that
      //  mature now land BEFORE this round's fresh traffic, in emission
      //  order (buckets are filled round by round). The bucket is moved
      //  into pending_ready_, which stays untouched until the next
      //  delivery phase — the same lifetime rule that lets inboxes
      //  reference prev_'s records.
      if (!pending_.empty()) {
        auto due = pending_.find(round_ + 1);
        if (due != pending_.end()) {
          pending_ready_ = std::move(due->second);
          pending_.erase(due);
          for (const PendingRef& p : pending_ready_.refs) {
            stage(p.to, p.from, &pending_ready_.payloads[p.payload]);
          }
        }
      }
      //  Then, per delivery, combine the policy's seeded base draw with
      //  any adversary delay() requests (summed, then clamped to the
      //  policy bound) and either deliver next round or queue it in the
      //  due-round bucket, which copies the payload once per record.
      //  Erasure wins over delay.
      if (!delayed_.empty()) std::sort(delayed_.begin(), delayed_.end());
      auto er = erased_.begin();
      auto dl = delayed_.begin();
      const auto& recs = cur_.records();
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto& rec = recs[i];
        const std::size_t fanout = cur_.fanout(rec);
        for (std::size_t d = rec.base; d < rec.base + fanout; ++d) {
          if (er != erased_.end() && *er == d) {
            ++er;
            while (dl != delayed_.end() && dl->first == d) ++dl;
            continue;
          }
          std::uint64_t extra = net_.base_extra(round_, d);
          while (dl != delayed_.end() && dl->first == d) {
            extra += dl->second;
            ++dl;
          }
          const std::uint32_t x = net_.clamp_extra(extra);
          const NodeId v = cur_.recipient_of(rec, d);
          if (x == 0) {
            stage(v, rec.from, &rec.msg);
            continue;
          }
          const Round land = round_ + 1 + x;
          PendingBucket& bucket = pending_[land];
          if (bucket.payloads.empty() || bucket.round != round_ ||
              bucket.record != i) {
            bucket.payloads.push_back(rec.msg);
            bucket.round = round_;
            bucket.record = i;
          }
          bucket.refs.push_back(PendingRef{
              rec.from, v,
              static_cast<std::uint32_t>(bucket.payloads.size() - 1)});
          st.delayed += 1;
          if (trace_ != nullptr) {
            trace::Event ev;
            ev.kind = trace::EventKind::kDeliveryDelayed;
            ev.round = round_;
            ev.node = rec.from;
            ev.subject = v;
            ev.count = d;
            ev.value = land;
            trace_->on_event(ev);
          }
        }
      }
      own_total = lay_out_own_inboxes(0);
      for (const Staged& sd : staged_) {
        own_buf_[own_end_[sd.to]++] = Delivery<Msg>{sd.from, kNoRecord,
                                                    sd.payload};
      }
      staged_.clear();
    }
    //    Exact, so the O(1) path runs in the same rounds as with one
    //    inbox per node: an own inbox emptied by erasure holds no mail.
    any_mail_ = (!shared_.empty() && touched_inboxes_.size() < n_) ||
                own_total != 0;
    auto t5 = Clock::now();

    st.records = static_cast<std::uint32_t>(cur_.counted_records());
    st.deliveries = cur_.deliveries();
    st.honest_bits = ledger_->honest_bits_total() - honest_bits_before;
    st.adversary_bits = ledger_->adversary_bits_total() - adv_bits_before;
    st.erasures = static_cast<std::uint32_t>(erased_.size());
    st.corruptions = corrupt_count_ - corrupt_before;
    auto ns = [](Clock::time_point a, Clock::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
              .count());
    };
    st.ns_honest = ns(t0, t1);
    st.ns_byzantine = ns(t1, t2);
    st.ns_adversary = ns(t2, t3);
    st.ns_accounting = ns(t3, t4);
    st.ns_delivery = ns(t4, t5);
    min_wake_ = *std::min_element(wake_.begin(), wake_.end());
    round_stats_.push_back(st);
    finish_round(st);
  }

 private:
  /// Nothing can happen this round: no actor is due, every inbox is
  /// empty, the adversary sleeps and no deferred bucket lands in the
  /// next round's inboxes.
  bool quiescent() const {
    return min_wake_ > round_ && !any_mail_ &&
           (adversary_ == nullptr || adversary_wake_ > round_) &&
           (pending_.empty() || pending_.begin()->first != round_ + 1);
  }

  /// Emits the round's kRoundEnd and advances. Only an executed round
  /// stores its row (step() pushes it); an elided one is only counted.
  void finish_round(const RoundStats& st) {
    {
      trace::Event ev;
      ev.kind = trace::EventKind::kRoundEnd;
      ev.round = st.round;
      ev.stats = st;
      trace::emit(trace_, ev);
    }
    // Quiescent rounds swap too, so each busy round writes the same log
    // it writes without elision: the two logs' capacities (and so peak
    // RSS) depend on which rounds each one gets.
    std::swap(cur_, prev_);
    ++round_;
  }

  /// Node v's deliveries for this round: its own inbox if it has one,
  /// else the shared multicast stream, without its exact repeats if v is
  /// honest and the policy opts in.
  std::span<const Delivery<Msg>> inbox_of(NodeId v) const {
    if (own_[v]) {
      return std::span<const Delivery<Msg>>(
          own_buf_.data() + own_begin_[v], own_end_[v] - own_begin_[v]);
    }
    if constexpr (kElidesRepeats) {
      if (!corrupt_[v]) return first_;
    }
    return shared_;
  }

  bool has_mail(NodeId v) const {
    return own_[v] ? own_end_[v] != own_begin_[v] : !shared_.empty();
  }

  /// Give v an own inbox this round; its count starts at zero.
  void mark_own(NodeId v) {
    if (own_[v]) return;
    own_[v] = 1;
    own_end_[v] = 0;
    touched_inboxes_.push_back(v);
  }

  /// Timing path: queue a delivery that lands next round and count it
  /// for its recipient's own inbox.
  void stage(NodeId to, NodeId from, const Msg* payload) {
    mark_own(to);
    ++own_end_[to];
    staged_.push_back(Staged{to, from, payload});
  }

  /// Give each own node its slice of own_buf_. On entry own_end_[v] holds
  /// the node's count, and each inbox holds `multicasts` entries more;
  /// on return own_begin_[v] == own_end_[v] is its fill cursor. Returns
  /// the total. The buffer only grows: entries past the total are stale
  /// and never read.
  std::size_t lay_out_own_inboxes(std::size_t multicasts) {
    std::size_t at = 0;
    for (NodeId v : touched_inboxes_) {
      own_begin_[v] = at;
      at += own_end_[v] + multicasts;
      own_end_[v] = own_begin_[v];
    }
    if (own_buf_.size() < at) own_buf_.resize(at);
    return at;
  }

  bool erased_covers(std::size_t d) const {
    return std::binary_search(erased_.begin(), erased_.end(), d);
  }

  /// Recompute the honest/corrupt iteration orders (ascending node id,
  /// matching the original skip-loop order). Runs only when the corruption
  /// set changed, not every round.
  void rebuild_roster() {
    honest_ids_.clear();
    corrupt_ids_.clear();
    for (NodeId v = 0; v < n_; ++v) {
      (corrupt_[v] ? corrupt_ids_ : honest_ids_).push_back(v);
    }
    roster_dirty_ = false;
  }

  void corrupt(NodeId node) override { do_corrupt(node); }

  void erase(std::size_t delivery_index) override {
    AMBB_CHECK(delivery_index < cur_.deliveries());
    const auto& rec = cur_.records()[cur_.record_of(delivery_index)];
    AMBB_CHECK_MSG(corrupt_[rec.from],
                   "after-the-fact removal requires a corrupt sender");
    erased_.push_back(delivery_index);
    trace::Event ev;
    ev.kind = trace::EventKind::kAdversaryAction;
    ev.round = round_;
    ev.node = rec.from;
    ev.count = delivery_index;
    ev.detail = "erase";
    trace::emit(trace_, ev);
  }

  void delay(std::size_t delivery_index, std::uint32_t extra_rounds) override {
    AMBB_CHECK_MSG(!net_.lockstep(),
                   "timing faults need a bounded or async delay policy");
    AMBB_CHECK(delivery_index < cur_.deliveries());
    if (extra_rounds == 0) return;
    delayed_.emplace_back(delivery_index, extra_rounds);
    if (trace_ != nullptr) {
      const auto& rec = cur_.records()[cur_.record_of(delivery_index)];
      trace::Event ev;
      ev.kind = trace::EventKind::kAdversaryAction;
      ev.round = round_;
      ev.node = rec.from;
      ev.count = delivery_index;
      ev.detail = "delay";
      trace_->on_event(ev);
    }
  }

  void do_corrupt(NodeId node) {
    AMBB_CHECK(node < n_);
    if (corrupt_[node]) return;
    AMBB_CHECK_MSG(corrupt_count_ < f_, "corruption budget f exhausted");
    corrupt_[node] = 1;
    ++corrupt_count_;
    roster_dirty_ = true;
    AMBB_CHECK(adversary_ != nullptr);
    actors_[node] = adversary_->actor_for(node);
    wake_[node] = 0;  // the replacement runs the next round
    trace::Event ev;
    ev.kind = trace::EventKind::kAdversaryAction;
    ev.round = round_;
    ev.node = node;
    ev.detail = "corrupt";
    trace::emit(trace_, ev);
  }

  std::uint32_t n_;
  std::uint32_t f_;
  CostLedger* ledger_;
  Policy policy_;
  Adversary<Msg>* adversary_ = nullptr;
  Round round_ = 0;
  std::vector<std::uint8_t> corrupt_;
  std::uint32_t corrupt_count_ = 0;
  std::vector<NodeId> honest_ids_;   ///< cached actor iteration order
  std::vector<NodeId> corrupt_ids_;  ///< (rebuilt when corruptions change)
  bool roster_dirty_ = true;
  std::vector<std::unique_ptr<Actor<Msg>>> actors_;
  /// Per node, the round its actor must next run even without mail
  /// (Actor::next_wake); min_wake_ is their minimum, refreshed after
  /// every full step (which is where corruptions replace actors).
  std::vector<Round> wake_;
  Round min_wake_ = 0;
  Round adversary_wake_ = 0;
  /// One entry per lock-step multicast of last round, in record order:
  /// the inbox of every node that is not own (DESIGN.md §19). Entries
  /// point into prev_'s records.
  std::vector<Delivery<Msg>> shared_;
  /// The first copy of each distinct payload in shared_, in record order:
  /// what honest readers of the shared stream get when the policy opts in
  /// (ElidesRepeats); repeats_ finds the copies to leave out.
  static constexpr bool kElidesRepeats = ElidesRepeats<Policy, Msg>;
  std::vector<Delivery<Msg>> first_;
  RepeatIndex repeats_;
  std::vector<std::uint8_t> own_;
  std::vector<NodeId> touched_inboxes_;  ///< the own nodes
  /// The own inboxes, one flat buffer shared by all nodes (DESIGN.md
  /// §14): node v's inbox is own_buf_[own_begin_[v], own_end_[v]), read
  /// iff own_[v].
  std::vector<Delivery<Msg>> own_buf_;
  std::vector<std::size_t> own_begin_;
  std::vector<std::size_t> own_end_;
  /// Timing path: this round's deliveries and their recipients, in
  /// delivery order, before they are grouped into own_buf_.
  struct Staged {
    NodeId to;
    NodeId from;
    const Msg* payload;
  };
  std::vector<Staged> staged_;
  /// Some node has a non-empty inbox (exact: feeds quiescent()).
  bool any_mail_ = false;
  TrafficLog<Msg> cur_;   ///< records emitted this round
  TrafficLog<Msg> prev_;  ///< last round's records, referenced by inboxes
  /// Delivery indices erased this round (sorted + deduped after step 3).
  std::vector<std::size_t> erased_;
  /// Adversary delay() requests of this round: (delivery index, extra
  /// rounds). Sorted in the delivery phase; duplicates sum.
  std::vector<std::pair<std::size_t, std::uint32_t>> delayed_;
  /// The deferred deliveries landing in one round's inboxes: one payload
  /// copy per (record, landing round), and per delivery its sender,
  /// recipient and payload index, in emission order. A bucket lives in
  /// the map until its due round's delivery phase, then moves to
  /// pending_ready_ for one round (the inboxes reference its payloads —
  /// same lifetime rule as prev_). Empty forever under lockstep.
  struct PendingRef {
    NodeId from;
    NodeId to;
    std::uint32_t payload;  ///< index into PendingBucket::payloads
  };
  struct PendingBucket {
    std::vector<Msg> payloads;
    std::vector<PendingRef> refs;
    /// The emitting round and record index of payloads.back(): later
    /// deliveries of that record landing here share it.
    Round round = 0;
    std::size_t record = 0;
  };
  std::map<Round, PendingBucket> pending_;
  PendingBucket pending_ready_;
  NetPolicy net_;
  bool configured_ = false;
  std::vector<RoundStats> round_stats_;
  std::uint64_t elided_rounds_ = 0;
  trace::TraceSink* trace_ = nullptr;
};

}  // namespace ambb
