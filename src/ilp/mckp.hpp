// Multiple-Choice Knapsack solver (exact dynamic program).
//
// The Fig. 7 ILP with theta = infinity *is* an MCKP: pick exactly one
// (weight, latency) item per DIP so the weights sum to the grid total and
// total latency is minimal. This DP is the optimization fast path the
// paper alludes to in §5 ("we speed up ILP"); the generic B&B remains the
// reference implementation and tests assert both agree.
//
// Weights are integer grid units (util::kWeightScale = weight 1.0). An
// exact-sum solution rarely exists on an arbitrary grid, so the target is
// a window [total - slack, total]; the DP returns the min-cost choice
// whose sum lands in the window (preferring larger sums on cost ties).
#pragma once

#include <cstdint>
#include <vector>

namespace klb::ilp {

struct MckpItem {
  std::int64_t weight_units = 0;
  double cost = 0.0;
};

struct MckpGroup {
  std::vector<MckpItem> items;
};

struct MckpResult {
  bool feasible = false;
  double cost = 0.0;
  std::int64_t total_units = 0;
  /// Chosen item index per group.
  std::vector<int> choice;
};

/// Exact DP over windowed rows: after group g only the sums in
/// W_g = [max(prefix_min_g, lo - suffix_max_{g+1}), min(prefix_max_g, total)]
/// get a cell (lo = total - slack; prefix/suffix sums of each group's
/// smallest/largest valid weight), since no other sum can reach the target
/// window. O(sum_g |W_g| * items_g) time, sum_g |W_g| reconstruction memory
/// (16-bit choice ids) -- at most the full O(groups * total) grid. Results
/// are identical to the full grid's: same cells, same item order, same
/// strict tie-break.
MckpResult solve_mckp(const std::vector<MckpGroup>& groups,
                      std::int64_t total_units, std::int64_t slack_units);

}  // namespace klb::ilp
