// The dead-code gate's instantiation unit (scripts/ci.sh unused,
// DESIGN.md §21). The gate compiles it next to the src/ archives and
// never links it into anything.
//
// It includes every src/ header, so that -fkeep-inline-functions emits
// each function defined inline in a header, and it explicitly
// instantiates the simulator's class templates for every protocol family,
// so that each member of them is defined here. A function defined here
// that no shipped binary keeps then fails the gate, like one a src/
// archive defines.
//
// The gate also fails when a src/ header is not included below, or when
// a family namespace that declares `using Sim = Simulation<Msg,
// CostPolicy>` has no AMBB_GATE_FAMILY line.
#include "adversary/fault.hpp"
#include "adversary/fuzz.hpp"
#include "adversary/scheduled.hpp"
#include "adversary/spec.hpp"
#include "bb/dolev_strong.hpp"
#include "bb/hotstuff_demo.hpp"
#include "bb/linear_adversary.hpp"
#include "bb/linear_bb.hpp"
#include "bb/phase_king.hpp"
#include "bb/quadratic_bb.hpp"
#include "bb/trustcast.hpp"
#include "common/bitvec.hpp"
#include "common/byte_buf.hpp"
#include "common/check.hpp"
#include "common/hex.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/hmac.hpp"
#include "crypto/intern.hpp"
#include "crypto/merkle.hpp"
#include "crypto/multisig.hpp"
#include "crypto/rs_code.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "crypto/threshold.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "ext/extension.hpp"
#include "graph/expander.hpp"
#include "graph/trust_graph.hpp"
#include "runner/drive.hpp"
#include "runner/fit.hpp"
#include "runner/registry.hpp"
#include "runner/result.hpp"
#include "runner/table.hpp"
#include "sim/commit_log.hpp"
#include "sim/cost.hpp"
#include "sim/net.hpp"
#include "sim/net_policy.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

#define AMBB_GATE_FAMILY(ns)                                              \
  template class ambb::Simulation<ambb::ns::Msg, ambb::ns::CostPolicy>;   \
  template class ambb::TrafficLog<ambb::ns::Msg>;                         \
  template class ambb::TrafficView<ambb::ns::Msg>;                        \
  template class ambb::RoundApi<ambb::ns::Msg>;                           \
  template class ambb::adversary::ScheduledAdversary<ambb::ns::Msg>;      \
  template class ambb::adversary::FaultedActor<ambb::ns::Msg>;

AMBB_GATE_FAMILY(linear)
AMBB_GATE_FAMILY(quad)
AMBB_GATE_FAMILY(ds)
AMBB_GATE_FAMILY(pk)
AMBB_GATE_FAMILY(hs)
AMBB_GATE_FAMILY(ext)
