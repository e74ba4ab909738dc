// Fig. 7 ILP construction and the multi-step zoom (§3.3, §4.4).
//
// Given one fitted weight-latency curve per DIP, choose one weight per DIP
// from a discrete candidate set so that the weights sum to ~1, minimizing
// the summed estimated latency, optionally bounding the weight imbalance
// ymax - ymin <= theta. Two interchangeable backends:
//
//   kBranchAndBound  the faithful CBC-equivalent path (required when theta
//                    is finite, since the DP cannot see ymax/ymin)
//   kMckpDp          the specialized exact DP (theta = infinity only)
//
// The multi-step mode reproduces §4.4: step 1 solves over `points_per_dip`
// candidates uniform in [0, wmax_d]; step 2 re-solves over the same number
// of candidates in [w_d - delta, w_d + delta] around step 1's choice, with
// delta = zoom_fraction * wmax_d. The paper enables the second step at
// >= 100 DIPs.
#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "fit/wl_curve.hpp"
#include "ilp/mckp.hpp"
#include "ilp/model.hpp"

namespace klb::core {

enum class IlpBackend { kBranchAndBound, kMckpDp };

/// Fig. 7 minimizes the summed mean latency; footnote 2 notes the
/// objective "can be easily changed", e.g. to minimize the worst DIP's
/// latency. kMaxLatency adds an auxiliary bound variable and therefore
/// always uses the B&B backend.
enum class IlpObjective { kSumLatency, kMaxLatency };

struct IlpWeightsConfig {
  int points_per_dip = 10;
  IlpObjective objective = IlpObjective::kSumLatency;
  /// theta in Fig. 7 constraint (c); infinity = unconstrained (paper §6).
  double theta = 1e30;
  IlpBackend backend = IlpBackend::kBranchAndBound;
  /// Zoom radius for step 2, as a fraction of each DIP's wmax (paper: 10%).
  double zoom_fraction = 0.10;
  /// Run the second (zoom) step when #DIPs >= this (paper: 100).
  int multi_step_min_dips = 100;
  /// Force single-/two-step regardless of size (benches use this).
  std::optional<bool> force_multi_step;
  /// Total-weight window: sum(w) within [1 - slack, 1].
  double sum_slack = 0.01;
  std::optional<std::chrono::milliseconds> time_limit;
};

struct IlpWeightsResult {
  bool feasible = false;
  bool timed_out = false;
  /// Weight per DIP (same order as the input curves); sums to 1 exactly
  /// (grid-normalized after the solve).
  std::vector<double> weights;
  /// Estimated summed latency at the chosen (pre-normalization) weights.
  double estimated_total_latency_ms = 0.0;
  int steps_run = 0;
  std::int64_t nodes_explored = 0;
  std::chrono::microseconds elapsed{0};
};

class IlpWeights {
 public:
  explicit IlpWeights(IlpWeightsConfig cfg = {}) : cfg_(cfg) {}

  /// Compute weights for the given curves. `total_weight` is the budget to
  /// distribute (1.0 normally; the §4.6 scheduler passes 1 - ws for the
  /// residual problem). Curves must all be fitted.
  IlpWeightsResult compute(
      const std::vector<const fit::WeightLatencyCurve*>& curves,
      double total_weight = 1.0) const;

  const IlpWeightsConfig& config() const { return cfg_; }

 private:
  struct StepResult {
    bool feasible = false;
    bool timed_out = false;
    std::vector<double> weights;  // chosen candidate per DIP
    double cost = 0.0;
    std::int64_t nodes = 0;
  };

  /// One ILP solve over explicit per-DIP candidate weight lists.
  StepResult solve_step(
      const std::vector<const fit::WeightLatencyCurve*>& curves,
      const std::vector<std::vector<double>>& candidates,
      double total_weight) const;

  IlpWeightsConfig cfg_;
};

/// Candidate grid helper: `n` values uniform in [lo, hi] (inclusive ends).
std::vector<double> uniform_candidates(double lo, double hi, int n);

}  // namespace klb::core
