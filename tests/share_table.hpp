// Oracle for Algorithm 4's run-wide accusation share table
// (linear::Context::accuse_shares, DESIGN.md §14), shared by the suites
// that drive forged and valid accusation shares.
//
// A node writes an entry only once it has accepted the pair, so at every
// round end each entry must be empty or the valid share of its pair (a
// forged share never lands, not even for a pair no node accepts), and
// every pair a live LinearNode reports through seen_accuse must have its
// valid share there.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "bb/linear_bb.hpp"

namespace ambb::linear::share_table {

/// Why entry (a, t) of ctx's table is not a valid share, or "" if it is.
inline std::string bad_entry(const Context& ctx, NodeId a, NodeId t) {
  const SigShare& s = ctx.accuse_share(a, t);
  if (s.signer == a && ctx.th->verify_share(s, accuse_digest(t))) return "";
  std::ostringstream os;
  os << "entry (" << a << ", " << t << ") signed by " << s.signer
     << " is not the valid share of its pair";
  return os.str();
}

/// Checks the table of `ctx` against itself and against every actor of
/// `sim` that is a LinearNode (wrapped actors are skipped); false after a
/// failure, so a caller checking every round can stop at the first.
inline bool expect_sound(const Context& ctx, const Sim& sim) {
  std::uint64_t bad = 0;
  std::string first;
  const auto note = [&](std::string why) {
    if (why.empty()) return;
    if (bad++ == 0) first = std::move(why);
  };
  for (NodeId a = 0; a < ctx.n; ++a) {
    for (NodeId t = 0; t < ctx.n; ++t) {
      if (ctx.accuse_share(a, t).signer != kNoNode) {
        note(bad_entry(ctx, a, t));
      }
    }
  }
  for (NodeId u = 0; u < ctx.n; ++u) {
    const auto* node = dynamic_cast<const LinearNode*>(sim.actor(u));
    if (node == nullptr) continue;
    for (NodeId a = 0; a < ctx.n; ++a) {
      for (NodeId t = 0; t < ctx.n; ++t) {
        if (!node->seen_accuse(a, t)) continue;
        const std::string why = bad_entry(ctx, a, t);
        if (!why.empty()) note("node " + std::to_string(u) + ": " + why);
      }
    }
  }
  EXPECT_EQ(bad, 0u) << "first: " << first;
  return bad == 0;
}

}  // namespace ambb::linear::share_table
