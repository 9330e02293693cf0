#include "runner/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "adversary/spec.hpp"
#include "bb/dolev_strong.hpp"
#include "bb/hotstuff_demo.hpp"
#include "bb/linear_bb.hpp"
#include "bb/phase_king.hpp"
#include "bb/quadratic_bb.hpp"
#include "common/check.hpp"
#include "ext/extension.hpp"

namespace ambb {

namespace {

/// The shared driver's config core of a registry run.
RunConfig core_of(const RunRequest& rq) {
  const CommonParams& p = rq.params;
  RunConfig core;
  core.n = p.n;
  core.f = p.f;
  core.slots = p.slots;
  core.seed = p.seed;
  core.kappa_bits = p.kappa_bits;
  core.value_bits = p.value_bits;
  core.adversary = p.adversary;
  core.net = p.net;
  core.trace = rq.trace;
  return core;
}

RunResult run_linear_with(const RunRequest& rq, linear::Options opts) {
  auto cfg = with_core<linear::LinearConfig>(core_of(rq));
  cfg.eps = rq.params.eps;
  cfg.opts = opts;
  return run_linear(cfg);
}

std::vector<ProtocolInfo> build() {
  std::vector<ProtocolInfo> out;

  const AdversaryPolicy lin_policy{
      {"none", "silent", "equivocate", "selective", "flood", "mixed", "drop",
       "chaos", "adaptive-erase"},
      /*liveness_failures=*/{},
      /*sched_may_stall=*/false};
  auto lin_max_f = [](std::uint32_t n) {
    // f <= (1/2 - eps) n with eps = 0.1, i.e. floor(2n/5) — exact integer
    // arithmetic; 0.4 is not representable in binary floating point, so
    // static_cast<uint32_t>(0.4 * n) leaves the bound at the mercy of
    // rounding.
    return (2 * n) / 5;
  };

  out.push_back(ProtocolInfo{
      "linear",
      "This work, f <= (1/2-eps)n, amortized O(kn)",
      lin_policy,
      lin_max_f,
      [](const RunRequest& rq) {
        return run_linear_with(rq, linear::Options::paper());
      }});

  out.push_back(ProtocolInfo{
      "mr-baseline",
      "Momose-Ren style, f <= (1/2-eps)n, O(kn^2) per slot",
      lin_policy,
      lin_max_f,
      [](const RunRequest& rq) {
        return run_linear_with(rq, linear::Options::mr_baseline());
      }});

  out.push_back(ProtocolInfo{
      "linear-nomem",
      "Ablation: Algorithm 4 without cross-slot accusation memory",
      lin_policy,
      lin_max_f,
      [](const RunRequest& rq) {
        return run_linear_with(rq, linear::Options::no_memory());
      }});

  {
    AdversaryPolicy policy = lin_policy;
    // Without the dissemination path, a selective (or randomly lossy)
    // leader's partial commit permanently starves the rest (no quorum
    // remains in later epochs); same starvation under schedules.
    policy.liveness_failures = {"selective", "mixed", "drop", "chaos"};
    policy.sched_may_stall = true;
    out.push_back(ProtocolInfo{
        "linear-noquery",
        "Ablation: Algorithm 4 without the Query/Respond path",
        std::move(policy),
        lin_max_f,
        [](const RunRequest& rq) {
          return run_linear_with(rq, linear::Options::no_query());
        }});
  }

  out.push_back(ProtocolInfo{
      "quadratic",
      "This work, f < n, amortized O(kn^2)",
      AdversaryPolicy{{"none", "silent", "equivocate", "conspiracy",
                       "lateprop", "floodaccuse", "framer"},
                      {},
                      false},
      [](std::uint32_t n) { return n - 1; },
      [](const RunRequest& rq) {
        return run_quadratic(with_core<quad::QuadConfig>(core_of(rq)));
      }});
  // TrustCast's agreement argument is a delivery deadline ("an honest
  // sender's message reaches every trusted edge this round"), not a
  // quorum: delayed deliveries can split honest commits (⊥ vs v).
  out.back().consistency_needs_sync = true;

  const AdversaryPolicy ds_policy{
      {"none", "silent", "equivocate", "stagger"}, {}, false};
  auto run_ds = [](const RunRequest& rq, bool use_multisig) {
    auto cfg = with_core<ds::DsConfig>(core_of(rq));
    cfg.use_multisig = use_multisig;
    return run_dolev_strong(cfg);
  };

  out.push_back(ProtocolInfo{
      "dolev-strong",
      "Dolev-Strong, f < n, plain signatures, O(kn^3) per slot",
      ds_policy,
      [](std::uint32_t n) { return n - 1; },
      [run_ds](const RunRequest& rq) { return run_ds(rq, false); }});
  // The classic relay argument ("accepted at round r <= f ⇒ relayed, so
  // everyone accepts by r+1") is exactly a synchrony assumption: a
  // delayed relay lands past round f+1 and is rejected, splitting the
  // extracted set.
  out.back().consistency_needs_sync = true;

  out.push_back(ProtocolInfo{
      "dolev-strong-msig",
      "Dolev-Strong, f < n, multi-signatures, O(kn^2 + n^3) per slot",
      ds_policy,
      [](std::uint32_t n) { return n - 1; },
      [run_ds](const RunRequest& rq) { return run_ds(rq, true); }});
  out.back().consistency_needs_sync = true;

  out.push_back(ProtocolInfo{
      "phase-king",
      "Berman et al. family, f < n/3, no crypto (see DESIGN.md note)",
      AdversaryPolicy{{"none", "silent", "equivocate", "confuse"}, {}, false},
      [](std::uint32_t n) { return (n - 1) / 3; },
      [](const RunRequest& rq) {
        return run_phase_king(with_core<pk::PkConfig>(core_of(rq)));
      }});

  // Long-message extension rows (DESIGN.md §13): erasure-coded dispersal
  // with the named family as the digest+receipt base phase. Dispersal
  // needs k = n-2f >= 1 chunks to survive f withheld receipts and f
  // selectively-planted columns, so f is capped at (n-1)/2 on top of the
  // base family's own bound. The dispersal phase takes the fault
  // schedule; named deviations of the base families do not apply.
  {
    const AdversaryPolicy ext_policy{{"none"}, {}, /*sched_may_stall=*/false};
    struct ExtRow {
      const char* name;
      const char* base;
      const char* row;
      std::function<std::uint32_t(std::uint32_t)> base_max_f;
    };
    const std::vector<ExtRow> ext_rows = {
        {"ext:linear", "linear",
         "NRSX extension over Algorithm 4, O(l n) dispersal", lin_max_f},
        {"ext:quadratic", "quadratic",
         "NRSX extension over the quadratic family",
         [](std::uint32_t n) { return n - 1; }},
        {"ext:dolev-strong", "dolev-strong",
         "NRSX extension over Dolev-Strong (plain signatures)",
         [](std::uint32_t n) { return n - 1; }},
        {"ext:dolev-strong-msig", "dolev-strong-msig",
         "NRSX extension over Dolev-Strong (multi-signatures)",
         [](std::uint32_t n) { return n - 1; }},
    };
    for (const ExtRow& row : ext_rows) {
      out.push_back(ProtocolInfo{
          row.name,
          row.row,
          ext_policy,
          [base_max_f = row.base_max_f](std::uint32_t n) {
            return std::min(base_max_f(n), (n - 1) / 2);
          },
          [base = std::string(row.base)](const RunRequest& rq) {
            const CommonParams& p = rq.params;
            ext::ExtConfig cfg;
            cfg.n = p.n;
            cfg.f = p.f;
            cfg.slots = p.slots;
            cfg.seed = p.seed;
            cfg.payload_bytes = p.payload_bytes;
            cfg.kappa_bits = p.kappa_bits;
            cfg.eps = p.eps;
            cfg.base = base;
            cfg.adversary = p.adversary;
            cfg.net = p.net;
            cfg.trace = rq.trace;
            return ext::run_extension(cfg);
          }});
      // Chunk dispersal and receipt collection run on fixed round
      // deadlines regardless of the base family: a delayed chunk misses
      // its reconstruction window and the receiver outputs ⊥ while
      // better-connected peers decode the payload.
      out.back().consistency_needs_sync = true;
    }
  }

  out.push_back(ProtocolInfo{
      "hotstuff",
      "Appendix A: HotStuff without a fallback path",
      // No fallback: a selective (or schedule-silenced) leader stalls up
      // to f honest nodes permanently.
      AdversaryPolicy{{"none", "selective"},
                      {"selective"},
                      /*sched_may_stall=*/true},
      [](std::uint32_t n) { return (n - 1) / 3; },
      [](const RunRequest& rq) {
        return run_hotstuff_demo(with_core<hs::HsConfig>(core_of(rq)));
      }});

  return out;
}

}  // namespace

bool AdversaryPolicy::accepts(const std::string& spec) const {
  if (adversary::is_schedule_spec(spec)) return true;
  return std::find(named.begin(), named.end(), spec) != named.end();
}

bool AdversaryPolicy::may_stall(const std::string& spec) const {
  if (adversary::is_schedule_spec(spec)) return sched_may_stall;
  return std::find(liveness_failures.begin(), liveness_failures.end(),
                   spec) != liveness_failures.end();
}

const std::vector<ProtocolInfo>& protocols() {
  static const std::vector<ProtocolInfo> kProtocols = build();
  return kProtocols;
}

const ProtocolInfo& protocol(const std::string& name) {
  const ProtocolInfo* p = find_protocol(name);
  AMBB_CHECK_MSG(p != nullptr, "unknown protocol '" << name << "'");
  // AMBB_CHECK_MSG always throws, but it expands to a do/while the
  // compiler cannot see through; without this the function falls off the
  // end of a non-void return path (-Wreturn-type / UB if the macro ever
  // changed).
  if (p == nullptr) std::abort();
  return *p;
}

const ProtocolInfo* find_protocol(const std::string& name) {
  for (const auto& p : protocols()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

namespace {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Plain Levenshtein, rolling single row; both operands are short
  // protocol names, so quadratic time is irrelevant.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

}  // namespace

std::string suggest_protocol(const std::string& name) {
  std::string best;
  std::size_t best_d = std::numeric_limits<std::size_t>::max();
  for (const auto& p : protocols()) {
    const std::size_t d = edit_distance(name, p.name);
    if (d < best_d) {
      best_d = d;
      best = p.name;
    }
  }
  // Only suggest when the typo is plausible: within half the query's
  // length (so "linearr" -> "linear" but "zzz" suggests nothing).
  const std::size_t cutoff = std::max<std::size_t>(1, name.size() / 2);
  return best_d <= cutoff ? best : std::string();
}

bool accepts_adversary(const ProtocolInfo& info, const std::string& spec) {
  return info.policy.accepts(spec);
}

bool may_stall(const ProtocolInfo& info, const std::string& spec) {
  return info.policy.may_stall(spec);
}

}  // namespace ambb
