// Declarative sweep specification for the experiment engine.
//
// A SweepSpec names a protocol from the runner registry plus lists of
// n / f / L / payload / net / adversary / seed values; expand() turns it
// into the full cross product of independent engine jobs in a documented,
// stable order (n, then f, then slots, then payload, then net, then
// adversary, then seed, then repetition).
// The expansion order IS the aggregation order: together with the
// engine's submission-order reporting it pins the output byte-for-byte
// independently of --jobs.
//
// Spec files (ambb_sweep --spec) are line-oriented:
//
//   # comment
//   report f2_scaling          # file level, before the first block: the
//                              #   figure analysis ambb_sweep runs on the
//                              #   outcomes (tools/figures.cpp)
//   sweep alg4                 # starts a block; the name prefixes labels
//   protocol linear            # registry name (required)
//   n 24 32 48 64              # list of n values (required)
//   f-frac 0.3                 # f = floor(0.3 * n), or:
//   f 4 6 8                    #   explicit f list, or:
//   f max                      #   registry max_f(n)
//   slots-per-n 3              # L = 3n, or: slots 8 16
//   adversary mixed none       # list; default "none"; "sched:..." and
//                              #   "fuzz[:k]" entries must parse
//   seeds 7 9                  # inclusive seed range; default 1 1
//   reps 2                     # repetitions per config; default 1
//   eps 0.2                    # linear-family expander, in (0, 0.5)
//   kappa 256                  # security parameter bits
//   value-bits 256             # input value width
//   payload 4096 65536         # payload bytes per slot (DESIGN.md §13):
//                              #   ext:* rows erasure-code the payload,
//                              #   every other row carries it inline
//                              #   (value-bits = 8 * payload)
//   net lockstep bounded:2     # network delay policies (DESIGN.md §16):
//                              #   lockstep | bounded:<delta> |
//                              #   async[:<cap>]; default lockstep.
//                              #   Which oracles a cell relaxes is
//                              #   decided by to_engine_job
//
// Blank lines between blocks are optional; later keys override earlier
// ones within a block. Malformed input throws CheckError with the
// offending line number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "runner/registry.hpp"

namespace ambb::engine {

struct SweepSpec {
  std::string name;      ///< label prefix; defaults to the protocol name
  std::string protocol;  ///< runner-registry protocol name

  std::vector<std::uint32_t> ns = {16};
  /// Fault-load selection, exactly one of:
  std::vector<std::uint32_t> fs;  ///< explicit values (cross product with n)
  /// Exact fraction: f = floor(f_frac_num * n / f_frac_den) when den != 0.
  /// The spec-file "f-frac" key parses "p/q" and decimal literals ("0.3"
  /// = 3/10) into this form, so f never suffers binary floating-point
  /// truncation (0.3 * 10 < 3.0 in double, so the old cast gave f=2).
  std::uint64_t f_frac_num = 0;
  std::uint64_t f_frac_den = 0;
  bool f_max = false;             ///< f = registry max_f(n)

  std::vector<Slot> slots_list;   ///< explicit slot counts
  std::uint32_t slots_per_n = 0;  ///< L = slots_per_n * n when nonzero

  std::vector<std::string> adversaries = {"none"};
  std::uint64_t seed_begin = 1;
  std::uint64_t seed_end = 1;  ///< inclusive
  std::uint32_t repetitions = 1;

  double eps = 0.1;
  std::uint32_t kappa_bits = kDefaultKappaBits;
  std::uint32_t value_bits = kDefaultValueBits;

  /// Payload-size axis in bytes; empty = off (kappa-sized values, the
  /// historical behaviour). For non-ext protocols a nonzero payload
  /// overrides value_bits with 8 * payload, pricing the same L-byte
  /// message carried inline — the raw baseline of the ext:* rows.
  std::vector<std::uint64_t> payloads;

  /// Network delay-policy axis (DESIGN.md §16); empty = {"lockstep"}.
  /// Each entry must parse (parse_net_policy). The oracles a cell relaxes
  /// under its policy are derived by to_engine_job.
  std::vector<std::string> nets;
};

/// One cell of a campaign: everything needed to run and label it. Both
/// spec expansion (ambb_sweep) and the schedule generator (ambb_fuzz)
/// produce these; the oracle flags are not stored but derived from the
/// registry row and the params by to_engine_job.
struct SweepJob {
  std::string label;  ///< "<name>/<adversary>/n<k>[/f..][/L..][/p..][/s..][/r..]"
  std::string protocol;
  CommonParams params;
};

/// Cross-product expansion in the documented stable order. Validates the
/// protocol name, the adversary names and f < n against the registry,
/// and parses every net policy and "sched:"/"fuzz[:k]" adversary; throws
/// CheckError on invalid specs.
std::vector<SweepJob> expand(const SweepSpec& spec);

/// Expansion of several specs back to back (label order = spec order).
std::vector<SweepJob> expand_all(const std::vector<SweepSpec>& specs);

/// Keep only jobs whose label contains `needle` (empty keeps everything).
std::vector<SweepJob> filter_jobs(std::vector<SweepJob> jobs,
                                  const std::string& needle);

/// Engine job for one cell: a registry lookup plus a self-contained run
/// closure (the driver constructs its own Simulation / ledger / RNG from
/// the params, so cells never share simulator state). A non-empty
/// `trace_file` makes the closure write a deterministic JSONL event trace
/// there; each closure owns its file stream and sink, so parallel workers
/// never share a sink.
///
/// This is the one place that decides which Definition-2 oracles a cell
/// relaxes (engine::Job). A policy that can delay a delivery
/// (parse_net_policy(net).max_extra() > 0) relaxes termination and
/// validity: both are conditional on synchrony, and a delayed honest
/// sender is indistinguishable from a silent one. Consistency stays hard
/// except for registry rows whose agreement argument is itself a round
/// deadline (consistency_needs_sync: the Dolev-Strong relay step,
/// TrustCast, chunk dispersal), which may legally split under delays.
/// Termination is also relaxed where the registry knows the adversary
/// stalls the protocol (may_stall). bounded:0 never delays, so it keeps
/// every oracle hard, like lockstep.
Job to_engine_job(const SweepJob& sj, std::string trace_file = {});

/// Trace file path for job `index` of a sweep: "<dir>/NNNN_<label>.jsonl"
/// with the submission index zero-padded and every label character
/// outside [A-Za-z0-9._-] replaced by '-'. Submission-order naming keeps
/// the directory listing aligned with the report rows regardless of
/// --jobs.
std::string trace_path(const std::string& dir, std::size_t index,
                       const std::string& label);

/// to_engine_job for every cell; with a non-empty trace_dir, job i traces
/// to trace_path(trace_dir, i, label).
std::vector<Job> to_engine_jobs(const std::vector<SweepJob>& sjs,
                                const std::string& trace_dir = "");

/// Parse the spec-file format described in the header comment. A
/// `report` line must name one of `reports`; the name is stored in
/// *report ("" when the file has none).
std::vector<SweepSpec> parse_spec(const std::string& text,
                                  const std::vector<std::string>& reports = {},
                                  std::string* report = nullptr);

}  // namespace ambb::engine
