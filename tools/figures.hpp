// The paper figures' analyses. A spec file in tools/specs/ declares a
// figure's grid and names its analysis with `report NAME`; ambb_sweep runs
// the grid, then the analysis prints the figure's tables (DESIGN.md §5).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/sweep.hpp"

namespace ambb::figures {

/// Every name a spec file's `report` line may use.
std::vector<std::string> names();

/// Print figure `name` (one of names()) from a sweep's jobs and their
/// outcomes: parallel vectors in submission order, every job completed.
/// Returns how many of the figure's own claims failed; each counts as a
/// violation.
std::size_t report(const std::string& name,
                   const std::vector<engine::SweepJob>& jobs,
                   const std::vector<engine::JobOutcome>& outcomes);

}  // namespace ambb::figures
