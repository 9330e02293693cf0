// ambb_trace — replay a single registry run with an event collector and
// print a human-readable per-slot timeline plus a trust-graph /
// accusation delta summary. The intended use is post-mortem: a sweep or
// fuzz run flags a label, and this tool re-runs that one cell (same
// params + seed = same execution) and explains *why* it behaved the way
// it did — which faults fired, who accused whom, which trust edges died,
// and where commits stopped.
//
//   ambb_trace --protocol NAME [--adversary SPEC] [--n N] [--f F]
//              [--slots L] [--seed S] [--eps E] [--payload BYTES]
//              [--net POLICY] [--slot K] [--jsonl FILE]
//
//   --protocol NAME  registry protocol (required; see protocol_explorer)
//   --adversary SPEC named strategy or "sched:..." / "fuzz[:k]" schedule
//   --payload BYTES  per-slot payload size (DESIGN.md §13): ext:* rows
//                    erasure-code it, other rows carry it inline
//                    (value-bits = 8 * BYTES)
//   --net POLICY     delay policy (DESIGN.md §16): lockstep (default) |
//                    bounded:<delta> | async[:<cap>] — replay a sweep or
//                    fuzz cell under the same network it ran with
//   --slot K         only print the timeline of slot K (summary stays)
//   --jsonl FILE     also dump the raw deterministic JSONL event stream
//
// The summary ends with the replay's cache counters (and how many
// lock-step multicasts honest readers skipped as exact repeats), the
// process's peak resident set size (getrusage) and the bytes the
// simulator's round buffers held at the end of the run, which only
// observe the run.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/check.hpp"
#include "crypto/intern.hpp"
#include "crypto/signer.hpp"
#include "runner/registry.hpp"
#include "sim/net.hpp"
#include "trace/trace.hpp"

using namespace ambb;

namespace {

struct Cli {
  std::string protocol;
  std::string jsonl;
  CommonParams params;
  Slot only_slot = 0;  ///< 0 = all slots
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ambb_trace --protocol NAME [--adversary SPEC] "
               "[--n N] [--f F] [--slots L] [--seed S] [--eps E] "
               "[--payload BYTES] [--net POLICY] [--slot K] "
               "[--jsonl FILE]\n");
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  ambb::cli::CommonFlags common;
  common.accept = ambb::cli::kNet;
  ambb::cli::Parser p("ambb_trace", argc, argv);
  while (p.next()) {
    bool ok = true;
    if (ambb::cli::handle_common_flag(p, &common, &ok)) {
      if (!ok) return false;
    } else if (p.arg() == "--help" || p.arg() == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (p.arg() == "--protocol") {
      if (!p.to_str(&cli.protocol)) return false;
    } else if (p.arg() == "--adversary") {
      if (!p.to_str(&cli.params.adversary)) return false;
    } else if (p.arg() == "--n") {
      if (!p.to_u32(&cli.params.n)) return false;
    } else if (p.arg() == "--f") {
      if (!p.to_u32(&cli.params.f)) return false;
    } else if (p.arg() == "--slots") {
      if (!p.to_u32(&cli.params.slots)) return false;
    } else if (p.arg() == "--seed") {
      if (!p.to_u64(&cli.params.seed)) return false;
    } else if (p.arg() == "--eps") {
      if (!p.to_eps(&cli.params.eps)) return false;
    } else if (p.arg() == "--payload") {
      if (!p.to_u64(&cli.params.payload_bytes)) return false;
    } else if (p.arg() == "--slot") {
      if (!p.to_u32(&cli.only_slot)) return false;
    } else if (p.arg() == "--jsonl") {
      if (!p.to_str(&cli.jsonl)) return false;
    } else {
      p.unknown();
      return false;
    }
  }
  cli.params.net = common.net;
  // Non-ext rows carry a nonzero payload inline, same mapping as the
  // sweep layer (engine/sweep.cpp). Applied after the loop so the flag
  // order does not matter.
  if (cli.params.payload_bytes != 0 && cli.protocol.rfind("ext:", 0) != 0) {
    if (cli.params.payload_bytes > ambb::kMaxInlinePayloadBytes) {
      std::fprintf(stderr,
                   "ambb_trace: --payload %llu bytes overflows value-bits "
                   "for a non-ext protocol (at most %llu)\n",
                   static_cast<unsigned long long>(cli.params.payload_bytes),
                   static_cast<unsigned long long>(
                       ambb::kMaxInlinePayloadBytes));
      return false;
    }
    cli.params.value_bits =
        static_cast<std::uint32_t>(8 * cli.params.payload_bytes);
  }
  if (cli.protocol.empty()) {
    std::fprintf(stderr, "ambb_trace: --protocol is required\n");
    return false;
  }
  return true;
}

const char* node_mark(const RunResult& r, NodeId v) {
  return v < r.corrupt.size() && r.corrupt[v] ? "*" : "";
}

/// One cache's hits and misses as a delta across the replayed run.
template <typename Stats>
void print_hits(const char* name, const Stats& before, const Stats& after) {
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  const std::uint64_t lookups = hits + misses;
  std::printf("%s %llu hits / %llu misses (%.1f%%)", name,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              lookups == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                       static_cast<double>(lookups));
}

/// print_hits plus the evictions of a digest or MAC memo.
void print_memo(const char* name, const CacheStats& before,
                const CacheStats& after) {
  print_hits(name, before, after);
  std::printf(", %llu evictions",
              static_cast<unsigned long long>(after.evictions -
                                              before.evictions));
}

/// Per-slot tallies of the protocol-detection events, for the delta
/// summary at the bottom of the report.
struct SlotDelta {
  std::size_t accusations = 0;
  std::size_t edges_removed = 0;
  std::size_t corrupt_votes = 0;
  std::size_t adversary_actions = 0;
  std::size_t commits = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, cli)) {
    usage(stderr);
    return 2;
  }

  const ProtocolInfo* found =
      ambb::cli::resolve_protocol("ambb_trace", cli.protocol);
  if (found == nullptr) return 2;
  const ProtocolInfo& info = *found;
  if (!info.policy.accepts(cli.params.adversary)) {
    std::fprintf(stderr, "ambb_trace: protocol '%s' does not accept "
                 "adversary '%s'\n",
                 cli.protocol.c_str(), cli.params.adversary.c_str());
    return 2;
  }

  trace::CollectorSink sink;
  RunResult r;
  const DigestCache::Stats digest_before = DigestCache::local().stats();
  const VerifyCache::Stats mac_before = KeyRegistry::mac_cache_stats();
  const RecordVerdicts::Stats verdict_before = RecordVerdicts::stats();
  const RepeatIndex::Stats repeat_before = RepeatIndex::stats();
  try {
    r = info.run(RunRequest{cli.params, &sink});
  } catch (const CheckError& e) {
    std::fprintf(stderr, "ambb_trace: run failed: %s\n", e.what());
    return 1;
  }
  const DigestCache::Stats digest_after = DigestCache::local().stats();
  const VerifyCache::Stats mac_after = KeyRegistry::mac_cache_stats();
  const RecordVerdicts::Stats verdict_after = RecordVerdicts::stats();
  const RepeatIndex::Stats repeat_after = RepeatIndex::stats();

  if (!cli.jsonl.empty()) {
    std::ofstream os(cli.jsonl, std::ios::binary | std::ios::trunc);
    if (!os) {
      std::fprintf(stderr, "ambb_trace: cannot write '%s'\n",
                   cli.jsonl.c_str());
      return 2;
    }
    for (const trace::Event& e : sink.events()) {
      trace::to_jsonl(os, e);
      os << '\n';
    }
  }

  std::printf("%s / %s  n=%u f=%u L=%u seed=%llu  (%zu events, "
              "* = corrupt)\n\n",
              cli.protocol.c_str(), cli.params.adversary.c_str(), r.n, r.f,
              r.slots, static_cast<unsigned long long>(cli.params.seed),
              sink.events().size());

  // ---- per-slot timeline -------------------------------------------------
  // Events arrive in program order; kSlotStart opens a slot section.
  // Same-round commits on the same value collapse into one line.
  std::map<Slot, SlotDelta> deltas;
  Slot cur = 0;
  bool printing = false;
  const auto& events = sink.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const trace::Event& e = events[i];
    if (e.kind == trace::EventKind::kRoundEnd) continue;
    if (e.kind == trace::EventKind::kSlotStart) {
      cur = e.slot;
      printing = cli.only_slot == 0 || cli.only_slot == cur;
      if (printing) {
        std::printf("slot %u  (round %llu, sender %u%s)\n", e.slot,
                    static_cast<unsigned long long>(e.round), e.node,
                    node_mark(r, e.node));
      }
      continue;
    }

    SlotDelta& d = deltas[e.kind == trace::EventKind::kAdversaryAction
                              ? cur
                              : e.slot];
    switch (e.kind) {
      case trace::EventKind::kAccusation: ++d.accusations; break;
      case trace::EventKind::kTrustEdgeRemoved: ++d.edges_removed; break;
      case trace::EventKind::kCorruptVote: ++d.corrupt_votes; break;
      case trace::EventKind::kAdversaryAction: ++d.adversary_actions; break;
      case trace::EventKind::kSlotCommit: ++d.commits; break;
      default: break;
    }
    if (!printing) continue;

    switch (e.kind) {
      case trace::EventKind::kEpochPhase: {
        char who[32] = "";
        if (e.node != kNoNode) {
          std::snprintf(who, sizeof who, ", node %u", e.node);
        }
        std::printf("  r%-5llu phase %s (ep %u%s)\n",
                    static_cast<unsigned long long>(e.round), e.detail,
                    e.epoch, who);
        break;
      }
      case trace::EventKind::kAccusation:
        std::printf("  r%-5llu node %u%s accuses %u%s\n",
                    static_cast<unsigned long long>(e.round), e.node,
                    node_mark(r, e.node), e.subject,
                    node_mark(r, e.subject));
        break;
      case trace::EventKind::kTrustEdgeRemoved:
        if (e.peer != kNoNode) {
          std::printf("  r%-5llu node %u%s drops trust edge (%u%s, %u%s) "
                      "[%s]\n",
                      static_cast<unsigned long long>(e.round), e.node,
                      node_mark(r, e.node), e.subject,
                      node_mark(r, e.subject), e.peer, node_mark(r, e.peer),
                      e.detail);
        } else {
          std::printf("  r%-5llu node %u%s removes vertex %u%s [%s]\n",
                      static_cast<unsigned long long>(e.round), e.node,
                      node_mark(r, e.node), e.subject,
                      node_mark(r, e.subject), e.detail);
        }
        break;
      case trace::EventKind::kCorruptVote:
        std::printf("  r%-5llu node %u%s votes <corrupt, %u%s>\n",
                    static_cast<unsigned long long>(e.round), e.node,
                    node_mark(r, e.node), e.subject,
                    node_mark(r, e.subject));
        break;
      case trace::EventKind::kCertFormed:
        std::printf("  r%-5llu node %u%s forms %s (ep %u, value 0x%llx)\n",
                    static_cast<unsigned long long>(e.round), e.node,
                    node_mark(r, e.node), e.detail, e.epoch,
                    static_cast<unsigned long long>(e.value));
        break;
      case trace::EventKind::kAdversaryAction: {
        char cbuf[32];
        if (e.count == std::numeric_limits<std::uint64_t>::max()) {
          std::snprintf(cbuf, sizeof cbuf, "all");  // unbounded sentinel
        } else {
          std::snprintf(cbuf, sizeof cbuf, "%llu",
                        static_cast<unsigned long long>(e.count));
        }
        std::printf("  r%-5llu ADVERSARY %s node %u (count %s)\n",
                    static_cast<unsigned long long>(e.round), e.detail,
                    e.node, cbuf);
        break;
      }
      case trace::EventKind::kSlotCommit: {
        // Collapse the burst: count commits sharing (round, value).
        std::size_t burst = 1;
        while (i + 1 < events.size() &&
               events[i + 1].kind == trace::EventKind::kSlotCommit &&
               events[i + 1].round == e.round &&
               events[i + 1].slot == e.slot &&
               events[i + 1].value == e.value) {
          ++i;
          ++burst;
          ++deltas[e.slot].commits;
        }
        char vbuf[32];
        if (e.value == kBotValue) {
          std::snprintf(vbuf, sizeof vbuf, "bot");
        } else {
          std::snprintf(vbuf, sizeof vbuf, "0x%llx",
                        static_cast<unsigned long long>(e.value));
        }
        std::printf("  r%-5llu %zu node%s commit %s\n",
                    static_cast<unsigned long long>(e.round), burst,
                    burst == 1 ? "" : "s", vbuf);
        break;
      }
      default: break;
    }
  }

  // ---- trust-graph / accusation delta summary ----------------------------
  std::size_t acc = 0, edges = 0, votes = 0, adv = 0;
  for (const auto& [k, d] : deltas) {
    acc += d.accusations;
    edges += d.edges_removed;
    votes += d.corrupt_votes;
    adv += d.adversary_actions;
  }
  std::size_t honest = 0;
  for (NodeId v = 0; v < r.n; ++v) honest += r.corrupt[v] ? 0 : 1;
  bool any_stall = false;
  for (Slot k = 1; k <= r.slots; ++k) {
    std::size_t honest_commits = 0;
    for (NodeId v = 0; v < r.n; ++v) {
      if (!r.corrupt[v] && r.commits.has(v, k)) ++honest_commits;
    }
    any_stall |= honest_commits < honest;
  }
  // A clean run (no schedule, no named adversary) has nothing to delta:
  // printing a table of zero rows just buries the commit timeline, so
  // the whole section — header included — is suppressed unless some slot
  // accumulated a delta or stalled.
  if (acc + edges + votes + adv > 0 || any_stall) {
    std::printf("\nper-slot deltas (accusations / edge removals / corrupt "
                "votes / adversary actions / commits):\n");
    for (Slot k = 1; k <= r.slots; ++k) {
      const SlotDelta d = deltas.count(k) ? deltas[k] : SlotDelta{};
      std::size_t honest_commits = 0;
      for (NodeId v = 0; v < r.n; ++v) {
        if (!r.corrupt[v] && r.commits.has(v, k)) ++honest_commits;
      }
      const bool stalled = honest_commits < honest;
      std::printf("  slot %-3u +%zu acc  +%zu edges  +%zu votes  +%zu adv  "
                  "%zu commits%s\n",
                  k, d.accusations, d.edges_removed, d.corrupt_votes,
                  d.adversary_actions, d.commits,
                  stalled ? "  <- STALLED" : "");
      if (stalled) {
        std::printf("           (%zu/%zu honest nodes committed; missing:",
                    honest_commits, honest);
        for (NodeId v = 0; v < r.n; ++v) {
          if (!r.corrupt[v] && !r.commits.has(v, k)) std::printf(" %u", v);
        }
        std::printf(")\n");
      }
    }
  }
  // Executed rounds have a RoundStats row, and the mail-only ones among
  // them ran but sent no record; elided rounds took the O(1) quiescent
  // path and have no row (DESIGN.md §17).
  const std::size_t mail_only = static_cast<std::size_t>(
      std::count_if(r.round_stats.begin(), r.round_stats.end(),
                    [](const RoundStats& st) { return st.records == 0; }));
  std::printf("\ntotals: %zu accusations, %zu trust-edge removals, "
              "%zu corrupt votes, %zu adversary actions over %llu rounds: "
              "%zu executed (%zu mail-only), %llu elided\n",
              acc, edges, votes, adv,
              static_cast<unsigned long long>(r.rounds),
              r.round_stats.size(), mail_only,
              static_cast<unsigned long long>(r.elided_rounds));
  std::printf("caches: ");
  print_memo("digest", digest_before, digest_after);
  std::printf("; ");
  print_memo("mac", mac_before, mac_after);
  std::printf("; ");
  print_hits("verdict", verdict_before, verdict_after);
  // Exact repeats left out of honest readers' shared stream (DESIGN.md
  // §19), of the lock-step multicasts of families that opt in.
  std::printf("; repeats %llu of %llu multicasts\n",
              static_cast<unsigned long long>(repeat_after.repeats -
                                              repeat_before.repeats),
              static_cast<unsigned long long>(repeat_after.multicasts -
                                              repeat_before.multicasts));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("memory: peak RSS %.1f MiB; round buffers %.2f MiB\n",
              static_cast<double>(ru.ru_maxrss) / 1024.0,  // ru_maxrss: KiB
              static_cast<double>(r.round_buffer_bytes) / (1024.0 * 1024.0));
  if (any_stall) std::printf("liveness: at least one slot stalled\n");
  return 0;
}
