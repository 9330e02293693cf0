#include "sim/net_policy.hpp"

#include <cstdint>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"

namespace ambb {

namespace {

/// Digit-only parse (common/parse.hpp), so "bounded:3x" and "bounded:-1"
/// fail loudly.
std::uint32_t parse_u32_field(const std::string& spec, const std::string& s) {
  const auto v = parse_uint<std::uint32_t>(s);
  AMBB_CHECK_MSG(v.has_value(), "bad net spec '" + spec + "': '" + s +
                                    "' is not a number in [0, 4294967295]");
  return *v;
}

}  // namespace

std::uint32_t NetPolicy::max_extra() const {
  switch (kind) {
    case NetKind::kLockstep: return 0;
    case NetKind::kBounded: return delta;
    case NetKind::kAsync: return cap;
  }
  return 0;
}

std::uint32_t NetPolicy::base_extra(Round r, std::uint64_t delivery_index)
    const {
  if (kind != NetKind::kBounded || delta == 0) return 0;
  // Pure hash, no sequential state: the draw for delivery d of round r is
  // the same no matter how many worker threads produced the record or in
  // which order other deliveries were examined.
  std::uint64_t h = seed ^
                    (static_cast<std::uint64_t>(r) + 1) *
                        0x9E3779B97F4A7C15ULL ^
                    (delivery_index + 1) * 0xBF58476D1CE4E5B9ULL;
  return static_cast<std::uint32_t>(splitmix64(h) %
                                    (static_cast<std::uint64_t>(delta) + 1));
}

std::uint32_t NetPolicy::clamp_extra(std::uint64_t extra) const {
  const std::uint64_t bound = max_extra();
  return static_cast<std::uint32_t>(extra < bound ? extra : bound);
}

std::string NetPolicy::spec() const {
  switch (kind) {
    case NetKind::kLockstep: return "lockstep";
    case NetKind::kBounded: return "bounded:" + std::to_string(delta);
    case NetKind::kAsync: return "async:" + std::to_string(cap);
  }
  return "?";
}

NetPolicy parse_net_policy(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const bool has_arg = colon != std::string::npos;
  const std::string arg = has_arg ? spec.substr(colon + 1) : std::string{};

  NetPolicy p;
  if (kind == "lockstep") {
    AMBB_CHECK_MSG(!has_arg, "bad net spec '" + spec +
                                 "': lockstep takes no parameter");
    p.kind = NetKind::kLockstep;
  } else if (kind == "bounded") {
    AMBB_CHECK_MSG(has_arg, "bad net spec '" + spec +
                                "': bounded needs a delta, e.g. bounded:2");
    p.kind = NetKind::kBounded;
    p.delta = parse_u32_field(spec, arg);
  } else if (kind == "async") {
    p.kind = NetKind::kAsync;
    if (has_arg) p.cap = parse_u32_field(spec, arg);
    AMBB_CHECK_MSG(p.cap >= 1,
                   "bad net spec '" + spec +
                       "': async cap must be >= 1 (eventual delivery)");
  } else {
    AMBB_CHECK_MSG(false, "bad net spec '" + spec +
                              "': expected lockstep | bounded:<delta> | "
                              "async[:<cap>]");
  }
  return p;
}

NetPolicy make_net_policy(const std::string& spec, std::uint64_t run_seed) {
  NetPolicy p = parse_net_policy(spec);
  // Salt so the network's stream never collides with protocol or
  // adversary streams forked from the same run seed.
  std::uint64_t s = run_seed ^ 0x5E7D0A11C0FFEE42ULL;
  p.seed = splitmix64(s);
  return p;
}

}  // namespace ambb
