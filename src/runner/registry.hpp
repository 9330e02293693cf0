// Uniform catalog of every multi-shot BB protocol in the library, so that
// tests and benchmarks can sweep protocols x adversaries x (n, f, L, seed)
// without knowing each driver's config type.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runner/result.hpp"

namespace ambb {

namespace trace {
class TraceSink;
}

struct CommonParams {
  std::uint32_t n = 16;
  std::uint32_t f = 4;
  Slot slots = 8;
  std::uint64_t seed = 1;
  std::string adversary = "none";
  std::uint32_t kappa_bits = kDefaultKappaBits;
  std::uint32_t value_bits = kDefaultValueBits;
  /// Expander parameter of the linear-family protocols (f <= (1/2-eps)n);
  /// ignored by the other families. The default matches the pre-engine
  /// registry behaviour bit-for-bit.
  double eps = 0.1;
  /// Payload size axis for long-message runs (DESIGN.md §13). 0 keeps the
  /// historical kappa-sized-value behaviour. The ext:* rows erasure-code
  /// a payload of this many bytes per slot; for every other row the sweep
  /// layer translates a nonzero payload into value_bits = 8 * payload
  /// (the value travels inline), so the same axis prices both designs.
  std::uint64_t payload_bytes = 0;
  /// Network delay policy (DESIGN.md §16): "lockstep" (classic synchronous
  /// delivery, the default — byte-identical to the pre-scheduler engine),
  /// "bounded:<delta>" (partial synchrony, seeded extra delays up to delta
  /// rounds) or "async[:<cap>]" (adversary-scheduled delivery, eventual
  /// delivery within cap rounds). Parsed per run with the run seed mixed
  /// in (make_net_policy), so the whole execution stays a pure function of
  /// (params, seed).
  std::string net = "lockstep";
};

/// The largest payload a non-ext row carries inline: its value_bits,
/// 8 * payload, must fit in 32 bits.
inline constexpr std::uint64_t kMaxInlinePayloadBytes = 0x1FFFFFFF;

/// One run, fully specified: the parameters plus an optional trace sink.
/// Implicitly constructible from CommonParams so every pre-trace call
/// site (`info.run(params)`) keeps working and runs untraced.
struct RunRequest {
  CommonParams params;
  /// Optional event sink, not owned; nullptr = no tracing. Attaching a
  /// sink never changes the run's results (sinks are pure observers).
  trace::TraceSink* trace = nullptr;

  RunRequest() = default;
  RunRequest(const CommonParams& p) : params(p) {}  // NOLINT: implicit
  RunRequest(const CommonParams& p, trace::TraceSink* sink)
      : params(p), trace(sink) {}
};

/// Which adversary specs a protocol runs against, and which of them are
/// allowed to break termination. Every protocol additionally accepts the
/// generic fault-schedule grammar ("sched:..." / "fuzz[:k]").
struct AdversaryPolicy {
  /// Named strategy specs this protocol's driver implements.
  std::vector<std::string> named;
  /// Named specs under which the protocol MAY violate termination (the
  /// Appendix A HotStuff demo, and the no-query-path ablation of
  /// Algorithm 4). Consistency and validity must still hold.
  std::vector<std::string> liveness_failures;
  /// True if the protocol may miss commits under ARBITRARY "sched:..." /
  /// "fuzz" fault schedules (no fallback path: a silenced or selective
  /// node it depends on permanently starves progress). Consistency and
  /// validity must still hold under any budget-respecting schedule.
  bool sched_may_stall = false;

  /// True if `spec` is runnable: a named spec or any schedule spec.
  bool accepts(const std::string& spec) const;
  /// True if a run under `spec` is allowed to stall.
  bool may_stall(const std::string& spec) const;
};

struct ProtocolInfo {
  std::string name;
  std::string table1_row;  ///< which Table 1 row this reproduces
  AdversaryPolicy policy;  ///< accepted adversary specs + stall policy
  /// Largest f this protocol supports for a given n.
  std::function<std::uint32_t(std::uint32_t n)> max_f;
  std::function<RunResult(const RunRequest&)> run;
  /// True if the protocol's CONSISTENCY argument itself leans on the
  /// synchronous round structure — the Dolev-Strong relay step ("accepted
  /// at round r <= f ⇒ everyone accepts by r+1"), TrustCast's trust-graph
  /// delivery deadline, the extension rows' chunk-dispersal window. Under
  /// a non-lockstep delay policy (DESIGN.md §16) such a row may legally
  /// split: one honest node commits v while another times out to ⊥.
  /// Campaigns report the split instead of failing it. Rows whose
  /// consistency rests on quorum intersection (the linear family,
  /// phase-king, hotstuff) leave this false, and consistency stays a hard
  /// oracle for them under every network model.
  bool consistency_needs_sync = false;
};

const std::vector<ProtocolInfo>& protocols();

/// Lookup that throws (CheckError) on an unknown name. Prefer
/// find_protocol in user-facing code so the caller can print the
/// available list and a nearest-name suggestion instead of aborting.
const ProtocolInfo& protocol(const std::string& name);

/// Lookup that reports failure: nullptr when `name` is not registered.
const ProtocolInfo* find_protocol(const std::string& name);

/// Closest registered protocol name by edit distance, for
/// "unknown protocol 'X', did you mean 'Y'?" diagnostics. Empty string
/// when nothing is plausibly close (distance > half the query length).
std::string suggest_protocol(const std::string& name);

/// Convenience forwarders to info.policy.
bool accepts_adversary(const ProtocolInfo& info, const std::string& spec);
bool may_stall(const ProtocolInfo& info, const std::string& spec);

}  // namespace ambb
