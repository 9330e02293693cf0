#include "bb/linear_adversary.hpp"

#include <algorithm>
#include <span>

#include "adversary/scheduled.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace ambb::linear {

namespace {

// ---------------------------------------------------------------------------
// Deviations
// ---------------------------------------------------------------------------

class SilentDev final : public Deviation {
 public:
  bool silent(Round) const override { return true; }
  Round next_wake(const LinearNode&, Round, Round) const override {
    return kNeverWake;
  }
};

/// Corrupt leader proposes value A to the lower half of the nodes and
/// value B to the upper half. Honest nodes detect the equivocation via
/// the expander forwarding and accuse.
class EquivocateDev final : public Deviation {
 public:
  /// Each half is one group record.
  bool override_propose(LinearNode& self, RoundApi<Msg>& api) override {
    const std::span<const NodeId> all(self.ctx().nodes);
    const std::size_t half = all.size() / 2;
    api.send_group(all.first(half), self.build_fresh_proposal(0xAAAA));
    api.send_group(all.subspan(half), self.build_fresh_proposal(0xBBBB));
    return true;
  }
  Round next_wake(const LinearNode&, Round, Round honest) const override {
    return honest;  // only the (gated) Propose step deviates
  }
};

/// Corrupt leader runs the epoch honestly (so certificates and a
/// commit-proof do form) but withholds the commit-proof from a rotating
/// subset of nodes, and never answers Query-1/2. This is the message
/// dissemination attack of Section 1 / Appendix A.
class SelectiveDev final : public Deviation {
 public:
  SelectiveDev(const Context* ctx, std::uint64_t seed)
      : ctx_(ctx), seed_(seed) {}

  bool drop_send(Round r, std::uint32_t offset, Kind kind,
                 NodeId to) override {
    if (kind != Kind::kCommitProof) return false;
    if (offset == 8 || offset == 10) return true;  // never help queriers
    if (offset != 6) return false;
    // Starve a rotating quarter of the nodes each slot.
    const Slot k = ctx_->sched.slot_of(r);
    const std::uint32_t n = ctx_->n;
    const std::uint32_t span = std::max<std::uint32_t>(1, n / 4);
    std::uint64_t h = seed_ + k;
    const std::uint32_t base =
        static_cast<std::uint32_t>(splitmix64(h) % n);
    const std::uint32_t dist = (to + n - base) % n;
    return dist < span;
  }
  Round next_wake(const LinearNode&, Round, Round honest) const override {
    return honest;  // filters honest output only
  }

 private:
  const Context* ctx_;
  std::uint64_t seed_;
};

/// Corrupt node spams a fresh accusation + query2 every epoch to elicit
/// Respond-2 replies from every honest node that holds a commit-proof.
/// Section 4.2 bounds the damage: once it runs out of fresh nodes to
/// accuse, honest nodes stop responding.
class FloodDev final : public Deviation {
 public:
  void extra(LinearNode& self, Round r, std::uint32_t offset,
             RoundApi<Msg>& api) override {
    (void)r;
    if (offset != 9) return;
    const std::uint32_t n = self.ctx().n;
    for (NodeId w = 0; w < n; ++w) {
      if (w == self.id() || self.accused(w)) continue;
      self.issue_accuse(w, api);
      api.multicast(self.build_query2());
      return;
    }
  }
  /// extra() floods until every other node is accused (accusations
  /// reset per slot without persistent memory, which the honest wake —
  /// never past the next slot start — catches).
  Round next_wake(const LinearNode& self, Round r,
                  Round honest) const override {
    return self.accused_others() + 1 < self.ctx().n ? r + 1 : honest;
  }
};

/// Runs the honest logic but drops every outgoing message independently
/// with probability p — a lossy/flaky Byzantine node. As a leader this
/// produces partially formed epochs (missing votes, missing proofs) in
/// patterns none of the targeted strategies cover.
class RandomDropDev final : public Deviation {
 public:
  RandomDropDev(std::uint64_t seed, double p) : rng_(seed), p_(p) {}

  bool drop_send(Round, std::uint32_t, Kind, NodeId) override {
    return rng_.chance(p_);
  }
  Round next_wake(const LinearNode&, Round, Round honest) const override {
    return honest;  // draws only per honest send
  }

 private:
  Rng rng_;
  double p_;
};

std::unique_ptr<Deviation> make_deviation_for_role(const std::string& role,
                                                   const Context* ctx,
                                                   std::uint64_t seed) {
  if (role == "silent") return std::make_unique<SilentDev>();
  if (role == "equivocate") return std::make_unique<EquivocateDev>();
  if (role == "selective") return std::make_unique<SelectiveDev>(ctx, seed);
  if (role == "flood") return std::make_unique<FloodDev>();
  if (role == "drop") return std::make_unique<RandomDropDev>(seed, 0.35);
  AMBB_CHECK_MSG(false, "unknown deviation role " << role);
}

// ---------------------------------------------------------------------------
// Adversaries, expressed as fault schedules (src/adversary/)
// ---------------------------------------------------------------------------

using SchedAdv = adversary::ScheduledAdversary<Msg>;

/// Schedule fragment shared by all static strategies: the first f nodes
/// are corrupt from round 0.
adversary::FaultSchedule corrupt_first_f(std::uint32_t f) {
  adversary::FaultSchedule s;
  for (NodeId v = 0; v < f; ++v) {
    s.corruptions.push_back(adversary::CorruptEvent{0, v});
  }
  return s;
}

/// Static strategy = corrupt-first-f schedule + Deviation-carrying
/// LinearNodes plugged in through the byzantine-factory override.
std::unique_ptr<Adversary<Msg>> make_static(
    const Context* ctx, std::uint64_t seed,
    std::function<std::string(std::uint32_t idx)> role_of) {
  return std::make_unique<SchedAdv>(
      corrupt_first_f(ctx->f), ctx->n, seed, nullptr,
      [ctx, seed, role_of = std::move(role_of)](NodeId node) {
        return std::make_unique<LinearNode>(
            node, ctx,
            make_deviation_for_role(role_of(node), ctx, seed + node));
      });
}

/// Strongly adaptive demonstration: no initial corruption; corrupts the
/// slot-1 sender right after it multicasts its proposal (slot 1, epoch 0,
/// offset 1 = absolute round 1) and erases the proposal copies addressed
/// to odd nodes (after-the-fact message removal). The corrupted sender is
/// silent afterwards.
std::unique_ptr<Adversary<Msg>> make_adaptive_erase(const Context* ctx,
                                                    std::uint64_t seed) {
  const NodeId sender = ctx->sender_of(1);
  adversary::FaultSchedule s;
  s.corruptions.push_back(adversary::CorruptEvent{2, sender});
  auto adv = std::make_unique<SchedAdv>(
      std::move(s), ctx->n, seed, nullptr, [ctx](NodeId node) {
        return std::make_unique<LinearNode>(node, ctx,
                                            std::make_unique<SilentDev>());
      });
  adv->add_erase(
      adversary::EraseEvent{/*round=*/1, sender, adversary::kDensityAll,
                            /*to_mod=*/2, /*to_rem=*/1, /*salt=*/0},
      [](NodeId, const Msg& m) { return m.kind == Kind::kPropose; });
  return adv;
}

}  // namespace

std::unique_ptr<Adversary<Msg>> make_adversary(const std::string& spec,
                                               const Context* ctx,
                                               std::uint64_t seed) {
  if (spec == "silent" || spec == "equivocate" || spec == "selective" ||
      spec == "flood" || spec == "drop") {
    return make_static(ctx, seed, [spec](std::uint32_t) { return spec; });
  }
  if (spec == "chaos") {
    // Seeded random role per corrupt node: covers strategy combinations
    // the hand-picked mixes do not.
    return make_static(ctx, seed, [seed](std::uint32_t idx) -> std::string {
      static const char* kRoles[] = {"silent", "equivocate", "selective",
                                     "flood", "drop"};
      std::uint64_t h = seed ^ (0x9e3779b97f4a7c15ULL * (idx + 1));
      return kRoles[splitmix64(h) % 5];
    });
  }
  if (spec == "mixed") {
    return make_static(ctx, seed, [](std::uint32_t idx) -> std::string {
      switch (idx % 4) {
        case 0: return "selective";
        case 1: return "silent";
        case 2: return "flood";
        default: return "equivocate";
      }
    });
  }
  if (spec == "adaptive-erase") {
    return make_adaptive_erase(ctx, seed);
  }
  AMBB_CHECK_MSG(false, "unknown adversary spec '" << spec << "'");
}

}  // namespace ambb::linear
