#include "ext/extension.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "adversary/spec.hpp"
#include "bb/dolev_strong.hpp"
#include "bb/linear_bb.hpp"
#include "bb/quadratic_bb.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "crypto/intern.hpp"
#include "crypto/rs_code.hpp"
#include "runner/drive.hpp"

namespace ambb::ext {

std::vector<std::string> kind_names() { return {"disperse", "echo"}; }

Value digest_fp64(const Digest& d) {
  Value v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

namespace {

Value payload_fp64(const std::vector<std::uint8_t>& payload) {
  // Interned: the sender and every recipient fingerprint the same payload.
  return digest_fp64(DigestCache::local().hash("ext-payload", payload));
}

/// True if `m` is well-formed for this run and its path verifies against
/// its claimed root.
bool chunk_valid(const Msg& m, const Context& ctx) {
  if (m.col >= ctx.n || m.slot < 1 || m.slot > ctx.slots) return false;
  if (m.chunk.size() != ctx.chunk_len) return false;
  return merkle::verify(m.root, ctx.n, m.col,
                        merkle::leaf_hash(m.col, m.chunk), m.path);
}

void store_chunk(std::vector<StoredChunk>& store, const Msg& m) {
  for (const StoredChunk& s : store) {
    if (s.col == m.col && s.root == m.root) return;
  }
  store.push_back(StoredChunk{m.col, m.root, m.chunk, m.path});
}

}  // namespace

void ExtNode::absorb(std::span<const Delivery<Msg>> inbox) {
  NodeState& st = (*ctx_->states)[id_];
  for (const Delivery<Msg>& d : inbox) {
    const Msg& m = d.msg();
    if (!chunk_valid(m, *ctx_)) continue;
    // Identity-bound acceptance: a dispersed chunk must be MY column; an
    // echoed chunk must come from the node owning that column. Anything
    // else (a shuffle fault misrouting a unicast, a relayed copy) is
    // dropped, which caps the non-uniform columns an adversary can plant
    // at one per corrupt node — the -f slack in the decision rule.
    const bool own_disperse =
        m.kind == Kind::kDisperse && m.col == static_cast<std::uint32_t>(id_);
    const bool owner_echo =
        m.kind == Kind::kEcho && m.col == static_cast<std::uint32_t>(d.from);
    if (!own_disperse && !owner_echo) continue;
    store_chunk(st.store[m.slot], m);
  }
}

void ExtNode::on_round(Round r, std::span<const Delivery<Msg>> inbox,
                       const TrafficView<Msg>&, RoundApi<Msg>& api) {
  const Slot k = ctx_->sched.slot_of(r);
  const std::uint32_t offset = ctx_->sched.offset_of(r);
  absorb(inbox);
  // The drain round after the last slot (echoes sent in the final echo
  // round are delivered at the START of the next round) only absorbs.
  if (k > ctx_->slots) return;
  NodeState& st = (*ctx_->states)[id_];

  if (offset == 0) {
    if (ctx_->sender_of(k) != id_) return;
    const SlotEncoding& enc = (*ctx_->enc)[k];
    for (NodeId j = 0; j < ctx_->n; ++j) {
      Msg m;
      m.kind = Kind::kDisperse;
      m.slot = k;
      m.col = j;
      m.root = enc.root;
      m.chunk = enc.chunks[j];
      m.path = enc.paths[j];
      api.send(j, std::move(m));
    }
    trace::Event ev;
    ev.kind = trace::EventKind::kChunkDisperse;
    ev.round = r;
    ev.slot = k;
    ev.node = id_;
    ev.value = digest_fp64(enc.root);
    ev.count = ctx_->chunk_len;
    trace::emit(ctx_->trace, ev);
    return;
  }

  // Echo round: forward my own column if the disperse round delivered a
  // valid one for THIS slot. A stagger-delayed disperse lands after this
  // round, is stored for reconstruction, but is never echoed and never
  // enters the receipt vote — the vote must certify an echo that the
  // whole network received.
  if (st.echoed_fp[k] != kBotValue) return;
  for (const StoredChunk& s : st.store[k]) {
    if (s.col != static_cast<std::uint32_t>(id_)) continue;
    Msg m;
    m.kind = Kind::kEcho;
    m.slot = k;
    m.col = s.col;
    m.root = s.root;
    m.chunk = s.chunk;
    m.path = s.path;
    api.multicast(m);
    st.echoed_fp[k] = digest_fp64(s.root);
    trace::Event ev;
    ev.kind = trace::EventKind::kChunkEcho;
    ev.round = r;
    ev.slot = k;
    ev.node = id_;
    ev.value = st.echoed_fp[k];
    trace::emit(ctx_->trace, ev);
    break;
  }
}

namespace {

/// The base phase run uniformly over the four supported families.
RunResult run_base(const ExtConfig& cfg, const RunConfig& core) {
  if (cfg.base == "linear") {
    auto b = with_core<linear::LinearConfig>(core);
    b.eps = cfg.eps;
    return linear::run_linear(b);
  }
  if (cfg.base == "quadratic") {
    return quad::run_quadratic(with_core<quad::QuadConfig>(core));
  }
  if (cfg.base == "dolev-strong" || cfg.base == "dolev-strong-msig") {
    auto b = with_core<ds::DsConfig>(core);
    b.use_multisig = cfg.base == "dolev-strong-msig";
    return ds::run_dolev_strong(b);
  }
  AMBB_CHECK_MSG(false, "unknown extension base '" << cfg.base << "'");
  std::abort();  // AMBB_CHECK_MSG throws; see registry.cpp note
}

}  // namespace

RunResult run_extension(const ExtConfig& cfg) {
  AMBB_CHECK_MSG(cfg.n >= 2 && 2 * cfg.f < cfg.n,
                 "extension protocol needs f <= (n-1)/2, got n="
                     << cfg.n << " f=" << cfg.f);
  AMBB_CHECK_MSG(cfg.n <= 256, "RS code caps n at 256");
  AMBB_CHECK_MSG(
      cfg.adversary == "none" || adversary::is_schedule_spec(cfg.adversary),
      "extension rows accept only 'none' or schedule specs, got '"
          << cfg.adversary << "'");

  Context ctx;
  ctx.n = cfg.n;
  ctx.f = cfg.f;
  ctx.k = cfg.n - 2 * cfg.f;
  ctx.slots = cfg.slots;
  ctx.payload_len = cfg.payload_bytes != 0
                        ? cfg.payload_bytes
                        : static_cast<std::size_t>(cfg.kappa_bits / 8);
  ctx.chunk_len = rs::chunk_bytes(ctx.payload_len, ctx.k);
  ctx.wire = WireModel{cfg.n, cfg.kappa_bits, cfg.kappa_bits};
  ctx.trace = cfg.trace;

  // Deterministic pseudo-random payloads; the committed Value is the
  // payload's 64-bit fingerprint (the in-memory carrier convention).
  std::vector<SlotEncoding> enc(cfg.slots + 1);
  std::uint64_t pay_seed = cfg.seed ^ 0x10adBEEFULL;
  for (Slot s = 1; s <= cfg.slots; ++s) {
    SlotEncoding& e = enc[s];
    e.payload.resize(ctx.payload_len);
    for (std::size_t i = 0; i < e.payload.size(); i += 8) {
      const std::uint64_t w = splitmix64(pay_seed);
      for (std::size_t b = 0; b < 8 && i + b < e.payload.size(); ++b) {
        e.payload[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
      }
    }
    e.chunks = rs::encode(e.payload, cfg.n, ctx.k);
    std::vector<Digest> leaves(cfg.n);
    for (std::uint32_t j = 0; j < cfg.n; ++j) {
      leaves[j] = merkle::leaf_hash(j, e.chunks[j]);
    }
    const merkle::Tree tree = merkle::Tree::build(leaves);
    e.root = tree.root();
    e.paths.resize(cfg.n);
    for (std::uint32_t j = 0; j < cfg.n; ++j) e.paths[j] = tree.prove(j);
  }
  ctx.enc = &enc;

  std::vector<NodeState> states(cfg.n);
  for (NodeState& st : states) {
    st.echoed_fp.assign(cfg.slots + 1, kBotValue);
    st.store.resize(cfg.slots + 1);
  }
  ctx.states = &states;

  // Both phases run on this core: digests and digest-fp votes are
  // kappa-bit values; the dispersal phase's sender inputs are the payload
  // fingerprints.
  RunConfig core;
  core.n = cfg.n;
  core.f = cfg.f;
  core.slots = cfg.slots;
  core.seed = cfg.seed;
  core.kappa_bits = cfg.kappa_bits;
  core.value_bits = cfg.kappa_bits;
  core.adversary = cfg.adversary;
  core.net = cfg.net;
  core.trace = cfg.trace;
  core.input_for_slot = [&enc](Slot s) {
    return payload_fp64(enc[s].payload);
  };
  RunState run(core, kind_names());
  ctx.sender_of = run.sender_of;

  // ---- Phase 1: chunk dispersal (2 lock-step rounds per slot). ----
  Family<Msg, CostPolicy> fam;
  fam.policy = CostPolicy{ctx.wire};
  fam.rounds_per_slot = ctx.sched.rounds_per_slot();
  // One extra drain round: the last slot's echoes are sent in round
  // 2*slots - 1 and delivered at the start of round 2*slots.
  fam.drain_rounds = 1;
  fam.node = [&ctx](NodeId v) { return std::make_unique<ExtNode>(v, &ctx); };
  fam.adversary_salt = 0xE87E9510ULL;
  RunResult res = drive(core, run, fam);

  // ---- Phase 2: digest + receipt votes over the base BB family. ----
  // Base slot b of ext slot s: sub = (b-1) % (n+1); sub 0 carries
  // fp(root_s) from the slot sender, sub j >= 1 carries node (j-1)'s
  // receipt vote read off its dispersal-phase state.
  const std::uint32_t per_slot = cfg.n + 1;
  RunConfig base_core = core;
  base_core.slots = cfg.slots * per_slot;
  base_core.seed = cfg.seed ^ 0xBA5EBB01ULL;
  base_core.adversary = "none";
  base_core.input_for_slot = [&enc, &states, per_slot](Slot b) {
    const Slot s = (b - 1) / per_slot + 1;
    const std::uint32_t sub = (b - 1) % per_slot;
    if (sub == 0) return digest_fp64(enc[s].root);
    return states[sub - 1].echoed_fp[s];
  };
  base_core.sender_of = [&ctx, per_slot](Slot b) {
    const Slot s = (b - 1) / per_slot + 1;
    const std::uint32_t sub = (b - 1) % per_slot;
    return sub == 0 ? ctx.sender_of(s) : static_cast<NodeId>(sub - 1);
  };
  RunResult base = run_base(cfg, base_core);

  // ---- Phase 3: local decisions. ----
  const Round total_rounds = res.rounds + base.rounds;
  CommitLog commits(cfg.n);
  for (NodeId v = 0; v < cfg.n; ++v) {
    for (Slot s = 1; s <= cfg.slots; ++s) {
      const Slot b0 = static_cast<Slot>((s - 1) * per_slot + 1);
      Value decided = kBotValue;
      std::uint64_t held = 0;
      const char* outcome = "bot";
      if (base.commits.has(v, b0)) {
        const Value d_fp = base.commits.get(v, b0).value;
        std::uint32_t votes = 0;
        for (std::uint32_t j = 0; j < cfg.n; ++j) {
          const Slot bj = static_cast<Slot>(b0 + 1 + j);
          if (d_fp != kBotValue && base.commits.has(v, bj) &&
              base.commits.get(v, bj).value == d_fp) {
            ++votes;
          }
        }
        if (votes >= cfg.n - cfg.f) {
          // Columns bound to the agreed digest. Ties on the 64-bit
          // fingerprint across distinct full roots are a SHA-256
          // truncation collision — out of model; pick the smallest root
          // deterministically if it ever happened.
          const Digest* root = nullptr;
          for (const StoredChunk& c : states[v].store[s]) {
            if (digest_fp64(c.root) != d_fp) continue;
            if (root == nullptr || c.root < *root) root = &c.root;
          }
          std::vector<rs::Chunk> cols;
          if (root != nullptr) {
            for (const StoredChunk& c : states[v].store[s]) {
              if (c.root == *root) cols.emplace_back(c.col, c.chunk);
            }
          }
          if (cols.size() >= ctx.k) {
            const std::vector<std::uint8_t> payload =
                rs::reconstruct(cols, cfg.n, ctx.k, ctx.payload_len);
            const std::vector<std::vector<std::uint8_t>> re =
                rs::encode(payload, cfg.n, ctx.k);
            std::vector<Digest> leaves(cfg.n);
            for (std::uint32_t j = 0; j < cfg.n; ++j) {
              leaves[j] = merkle::leaf_hash(j, re[j]);
            }
            if (merkle::Tree::build(leaves).root() == *root) {
              decided = payload_fp64(payload);
              outcome = "commit";
            }
          }
          held = cols.size();
        }
      }
      commits.record(v, s, decided, total_rounds);
      trace::Event ev;
      ev.kind = trace::EventKind::kReconstruct;
      ev.round = total_rounds;
      ev.slot = s;
      ev.node = v;
      ev.value = decided;
      ev.count = held;
      ev.detail = outcome;
      trace::emit(cfg.trace, ev);
    }
  }

  // ---- Merge the base phase into the dispersal phase's RunResult. ----
  res.rounds = total_rounds;
  res.honest_bits += base.honest_bits;
  res.adversary_bits += base.adversary_bits;
  res.honest_msgs += base.honest_msgs;
  res.per_slot_bits.resize(cfg.slots + 1);
  for (Slot s = 1; s <= cfg.slots; ++s) {
    for (std::uint32_t sub = 0; sub < per_slot; ++sub) {
      const Slot b = static_cast<Slot>((s - 1) * per_slot + 1 + sub);
      if (b < base.per_slot_bits.size()) {
        res.per_slot_bits[s] += base.per_slot_bits[b];
      }
    }
  }
  for (std::size_t i = 0; i < base.kind_names.size(); ++i) {
    res.kind_names.push_back("base:" + base.kind_names[i]);
    res.per_kind_bits.push_back(i < base.per_kind_bits.size()
                                    ? base.per_kind_bits[i]
                                    : 0);
  }
  res.commits = std::move(commits);
  // The base phase's rows follow the dispersal phase's, renumbered into
  // the merged run's rounds so they stay in round order.
  const Round base_start = total_rounds - base.rounds;
  res.round_stats.reserve(res.round_stats.size() + base.round_stats.size());
  for (RoundStats st : base.round_stats) {
    st.round += base_start;
    res.round_stats.push_back(st);
  }
  res.elided_rounds += base.elided_rounds;
  // The two phases' simulators are never alive together.
  res.round_buffer_bytes =
      std::max(res.round_buffer_bytes, base.round_buffer_bytes);
  return res;
}

}  // namespace ambb::ext
