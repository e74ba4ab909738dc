// ILP branch & bound + MCKP DP tests: known-answer knapsacks, timeout
// behaviour, infeasibility, and the key cross-validation property — on
// random MCKP instances the generic B&B and the specialized DP must agree,
// and the windowed DP must return exactly what the full-grid DP returned.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "ilp/mckp.hpp"
#include "ilp/model.hpp"
#include "util/rng.hpp"
#include "util/weight.hpp"

namespace klb::ilp {
namespace {

TEST(Ilp, SolvesTinyBinaryKnapsack) {
  // max 6a + 10b + 12c st a + 2b + 3c <= 5  (classic: b + c = 22)
  Model m;
  const int a = m.add_var(VarType::kBinary, -6.0);
  const int b = m.add_var(VarType::kBinary, -10.0);
  const int c = m.add_var(VarType::kBinary, -12.0);
  m.add_constraint({{a, 1.0}, {b, 2.0}, {c, 3.0}}, lp::Relation::kLe, 5.0);
  const auto r = solve(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -22.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(a)], 0.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(b)], 1.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(c)], 1.0, 1e-6);
}

TEST(Ilp, IntegralityMatters) {
  // LP relaxation would take half an item; ILP must not.
  Model m;
  const int a = m.add_var(VarType::kBinary, -10.0);
  const int b = m.add_var(VarType::kBinary, -6.0);
  m.add_constraint({{a, 2.0}, {b, 1.0}}, lp::Relation::kLe, 2.0);
  const auto r = solve(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -10.0, 1e-6);  // take a alone (LP would mix)
}

TEST(Ilp, InfeasibleDetected) {
  Model m;
  const int a = m.add_var(VarType::kBinary, 1.0);
  m.add_constraint({{a, 1.0}}, lp::Relation::kGe, 2.0);  // binary can't be 2
  EXPECT_EQ(solve(m).status, IlpStatus::kInfeasible);
}

TEST(Ilp, ContinuousVariablesMix) {
  // One binary gate y, one continuous x <= 10: min -x - 5y st x <= 10y.
  Model m;
  const int x = m.add_var(VarType::kContinuous, -1.0, 10.0);
  const int y = m.add_var(VarType::kBinary, -5.0);
  m.add_constraint({{x, 1.0}, {y, -10.0}}, lp::Relation::kLe, 0.0);
  const auto r = solve(m);
  ASSERT_EQ(r.status, IlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -15.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(x)], 10.0, 1e-6);
}

TEST(Ilp, TimeLimitReturnsTimeoutStatus) {
  // A deliberately painful subset-sum-like instance with a 1 ms budget.
  util::Rng rng(4242);
  Model m;
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 40; ++i) {
    const int v = m.add_var(VarType::kBinary, rng.uniform(-2.0, -1.0));
    terms.emplace_back(v, rng.uniform(0.9, 1.1));
  }
  m.add_constraint(terms, lp::Relation::kLe, 17.137);
  IlpOptions opt;
  opt.time_limit = std::chrono::milliseconds(1);
  const auto r = solve(m, opt);
  EXPECT_TRUE(r.status == IlpStatus::kFeasibleTimeout ||
              r.status == IlpStatus::kTimeout ||
              r.status == IlpStatus::kOptimal);  // fast machines may finish
}

TEST(Mckp, PicksObviousBest) {
  // Two groups; only one combination sums to 10.
  std::vector<MckpGroup> groups(2);
  groups[0].items = {{4, 9.0}, {6, 1.0}};
  groups[1].items = {{4, 2.0}, {6, 8.0}};
  const auto r = solve_mckp(groups, 10, 0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.choice[0], 1);  // 6 units, cost 1
  EXPECT_EQ(r.choice[1], 0);  // 4 units, cost 2
  EXPECT_NEAR(r.cost, 3.0, 1e-12);
  EXPECT_EQ(r.total_units, 10);
}

TEST(Mckp, SlackWindowAllowsUndershoot) {
  std::vector<MckpGroup> groups(1);
  groups[0].items = {{7, 1.0}, {12, 0.5}};
  // Exact 10 impossible; slack 3 admits the 7-unit item.
  const auto exact = solve_mckp(groups, 10, 0);
  EXPECT_FALSE(exact.feasible);
  const auto slack = solve_mckp(groups, 10, 3);
  ASSERT_TRUE(slack.feasible);
  EXPECT_EQ(slack.choice[0], 0);
}

TEST(Mckp, PrefersLargerSumOnCostTies) {
  std::vector<MckpGroup> groups(1);
  groups[0].items = {{8, 1.0}, {10, 1.0}};
  const auto r = solve_mckp(groups, 10, 5);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.total_units, 10);
}

TEST(Mckp, EmptyGroupInfeasible) {
  std::vector<MckpGroup> groups(2);
  groups[0].items = {{5, 1.0}};
  const auto r = solve_mckp(groups, 10, 10);
  EXPECT_FALSE(r.feasible);
}

TEST(Mckp, ZeroWeightItemsAllowed) {
  std::vector<MckpGroup> groups(2);
  groups[0].items = {{0, 0.5}, {10, 3.0}};
  groups[1].items = {{10, 1.0}};
  const auto r = solve_mckp(groups, 10, 0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.choice[0], 0);
  EXPECT_NEAR(r.cost, 1.5, 1e-12);
}

/// Builds the Fig. 7 ILP for an MCKP instance (theta = infinity) — shared
/// by the agreement property test below.
IlpResult solve_via_bnb(const std::vector<MckpGroup>& groups,
                        std::int64_t total, std::int64_t slack) {
  Model m;
  m.set_binary_bounds_implied(true);
  std::vector<std::vector<int>> vars(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<std::pair<int, double>> group_row;
    for (const auto& item : groups[g].items) {
      const int v = m.add_var(VarType::kBinary, item.cost);
      vars[g].push_back(v);
      group_row.emplace_back(v, 1.0);
    }
    m.add_constraint(group_row, lp::Relation::kEq, 1.0);
  }
  std::vector<std::pair<int, double>> weight_row;
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t i = 0; i < groups[g].items.size(); ++i)
      weight_row.emplace_back(vars[g][i],
                              static_cast<double>(groups[g].items[i].weight_units));
  m.add_constraint(weight_row, lp::Relation::kLe, static_cast<double>(total));
  m.add_constraint(weight_row, lp::Relation::kGe,
                   static_cast<double>(total - slack));
  return solve(m);
}

class MckpAgreement : public ::testing::TestWithParam<int> {};

TEST_P(MckpAgreement, BnbAndDpAgreeOnRandomInstances) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7321 + 11);
  const int num_groups = 2 + static_cast<int>(rng.uniform_int(std::uint64_t{5}));
  const std::int64_t total = 100;
  std::vector<MckpGroup> groups(static_cast<std::size_t>(num_groups));
  for (auto& g : groups) {
    const int items = 2 + static_cast<int>(rng.uniform_int(std::uint64_t{4}));
    for (int i = 0; i < items; ++i) {
      g.items.push_back(MckpItem{
          static_cast<std::int64_t>(rng.uniform_int(std::int64_t{0},
                                                    total / num_groups + 20)),
          rng.uniform(0.1, 20.0)});
    }
  }
  const std::int64_t slack = 5;
  const auto dp = solve_mckp(groups, total, slack);
  const auto bnb = solve_via_bnb(groups, total, slack);

  ASSERT_EQ(dp.feasible, bnb.status == IlpStatus::kOptimal)
      << "feasibility disagreement";
  if (dp.feasible) {
    EXPECT_NEAR(dp.cost, bnb.objective, 1e-6)
        << "optimal objectives disagree";
    // The DP's reported choice must actually satisfy the window + cost.
    std::int64_t sum = 0;
    double cost = 0.0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& it = groups[g].items[static_cast<std::size_t>(dp.choice[g])];
      sum += it.weight_units;
      cost += it.cost;
    }
    EXPECT_EQ(sum, dp.total_units);
    EXPECT_GE(sum, total - slack);
    EXPECT_LE(sum, total);
    EXPECT_NEAR(cost, dp.cost, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpAgreement, ::testing::Range(0, 40));

/// The full-grid DP that solve_mckp's windowed rows replaced: every group's
/// row spans all sums 0..total. Kept as the reference the windowed DP must
/// match bit for bit.
MckpResult full_grid_mckp(const std::vector<MckpGroup>& groups,
                          std::int64_t total_units, std::int64_t slack_units) {
  MckpResult result;
  if (groups.empty() || total_units < 0) return result;
  for (const auto& g : groups) {
    if (g.items.empty()) return result;
    if (g.items.size() > 65'535) return result;
  }

  const auto capacity = static_cast<std::size_t>(total_units) + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  std::vector<double> prev(capacity, kInf);
  std::vector<double> cur(capacity, kInf);
  std::vector<std::vector<std::uint16_t>> parent(
      groups.size(), std::vector<std::uint16_t>(capacity, 0xffff));

  prev[0] = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::fill(cur.begin(), cur.end(), kInf);
    auto& par = parent[g];
    for (std::size_t item = 0; item < groups[g].items.size(); ++item) {
      const auto& it = groups[g].items[item];
      if (it.weight_units < 0 || it.weight_units > total_units) continue;
      const auto w = static_cast<std::size_t>(it.weight_units);
      for (std::size_t u = w; u < capacity; ++u) {
        const double base = prev[u - w];
        if (base == kInf) continue;
        const double cost = base + it.cost;
        if (cost < cur[u]) {
          cur[u] = cost;
          par[u] = static_cast<std::uint16_t>(item);
        }
      }
    }
    std::swap(prev, cur);
  }

  const std::int64_t lo = std::max<std::int64_t>(0, total_units - slack_units);
  std::size_t best_u = capacity;
  double best_cost = kInf;
  for (std::int64_t u = total_units; u >= lo; --u) {
    const auto uu = static_cast<std::size_t>(u);
    if (prev[uu] < best_cost - 1e-12) {
      best_cost = prev[uu];
      best_u = uu;
    }
  }
  if (best_u == capacity) return result;

  result.feasible = true;
  result.cost = best_cost;
  result.total_units = static_cast<std::int64_t>(best_u);
  result.choice.assign(groups.size(), -1);
  std::size_t u = best_u;
  for (std::size_t g = groups.size(); g-- > 0;) {
    const std::uint16_t item = parent[g][u];
    result.choice[g] = static_cast<int>(item);
    u -= static_cast<std::size_t>(groups[g].items[item].weight_units);
  }
  return result;
}

/// Asserts the windowed DP matches the full grid; returns whether the
/// instance was feasible.
bool expect_identical(const std::vector<MckpGroup>& groups,
                      std::int64_t total, std::int64_t slack) {
  const auto got = solve_mckp(groups, total, slack);
  const auto want = full_grid_mckp(groups, total, slack);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.cost, want.cost);  // bit-identical, not NEAR
  EXPECT_EQ(got.total_units, want.total_units);
  EXPECT_EQ(got.choice, want.choice);
  return want.feasible;
}

// The controller's shape: one group per DIP, 10 candidates uniform in
// [0, wmax] (step 1) or in a narrow band around a weight (step-2 zoom),
// convex latency costs, on the kWeightScale grid with a 1% window.
TEST(MckpIdentity, ControllerScaleMatchesFullGrid) {
  const std::int64_t total = util::kWeightScale;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const bool zoom = seed == 3;
    std::vector<MckpGroup> groups(1000);
    for (auto& g : groups) {
      const auto wmax = rng.uniform_int(std::int64_t{5}, std::int64_t{40});
      const auto start = zoom ? rng.uniform_int(std::int64_t{0}, std::int64_t{15})
                              : std::int64_t{0};
      const double base = rng.uniform(0.5, 5.0);
      const double slope = rng.uniform(0.01, 0.5);
      for (int i = 0; i < 10; ++i) {
        const std::int64_t w =
            zoom ? start + i : static_cast<std::int64_t>(i) * wmax / 9;
        const double x = static_cast<double>(w);
        g.items.push_back(MckpItem{w, base + slope * x + 0.002 * x * x});
      }
    }
    EXPECT_TRUE(expect_identical(groups, total, 100));
  }
}

// Random small instances covering the edges: weights above total and
// negative (skipped), groups with no valid item, duplicate weights with
// equal costs (the strict-< tie-break keeps the first item), slack at or
// beyond total, total == 0, and negative slack.
TEST(MckpIdentity, RandomEdgeInstancesMatchFullGrid) {
  util::Rng rng(20'251'021);
  int feasible = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE(trial);
    const auto total = trial % 10 == 0
                           ? std::int64_t{0}
                           : rng.uniform_int(std::int64_t{1}, std::int64_t{150});
    std::int64_t slack = 0;
    switch (trial % 4) {
      case 0: slack = 0; break;
      case 1: slack = rng.uniform_int(std::int64_t{1}, std::int64_t{10}); break;
      case 2: slack = total + rng.uniform_int(std::int64_t{0}, std::int64_t{5}); break;
      default: slack = rng.uniform_int(std::int64_t{-3}, total + 3); break;
    }
    const bool ties = trial % 3 == 0;  // few distinct weights and costs
    const auto num_groups =
        static_cast<std::size_t>(rng.uniform_int(std::int64_t{1}, std::int64_t{12}));
    std::vector<MckpGroup> groups(num_groups);
    for (auto& g : groups) {
      const auto items = rng.uniform_int(std::int64_t{1}, std::int64_t{8});
      const bool all_invalid = rng.uniform() < 0.01;
      for (std::int64_t i = 0; i < items; ++i) {
        std::int64_t w = 0;
        if (all_invalid) {
          w = rng.uniform() < 0.5 ? -rng.uniform_int(std::int64_t{1}, std::int64_t{5})
                                  : total + rng.uniform_int(std::int64_t{1}, std::int64_t{5});
        } else if (ties) {
          w = rng.uniform_int(std::int64_t{0}, std::int64_t{3}) *
              std::max<std::int64_t>(1, total / 8);
        } else {
          w = rng.uniform_int(std::int64_t{-5},
                              2 * total / static_cast<std::int64_t>(num_groups) + 5);
        }
        const double cost =
            ties ? static_cast<double>(rng.uniform_int(std::int64_t{0}, std::int64_t{2}))
                 : rng.uniform(0.0, 10.0);
        g.items.push_back(MckpItem{w, cost});
      }
    }
    feasible += expect_identical(groups, total, slack) ? 1 : 0;
    if (HasFailure()) return;
  }
  // The mix must exercise both outcomes, not only one of them.
  EXPECT_GT(feasible, 300);
  EXPECT_LT(feasible, 2700);
}

TEST(MckpIdentity, HandPickedEdgesMatchFullGrid) {
  std::vector<MckpGroup> groups(3);
  // Above total and negative items are skipped, wherever they sit.
  groups[0].items = {{11, 0.0}, {4, 2.0}, {-1, 0.0}, {6, 1.0}};
  groups[1].items = {{3, 1.0}, {3, 1.0}, {5, 0.5}, {5, 0.5}};  // exact ties
  groups[2].items = {{0, 1.0}, {1, 1.0}, {2, 1.0}};
  for (const std::int64_t slack : {0, 1, 3, 10, 11, 50})
    expect_identical(groups, 10, slack);

  // A group whose items are all invalid makes the instance infeasible.
  auto no_valid = groups;
  no_valid[1].items = {{-2, 0.0}, {12, 0.0}};
  EXPECT_FALSE(expect_identical(no_valid, 10, 10));

  // Near-tie in the landing scan: sum 3 costs 0.1 + 0.2 (one ulp above
  // 0.3), sum 2 costs 0.3; the 1e-12 tolerance keeps the larger sum.
  std::vector<MckpGroup> near(2);
  near[0].items = {{1, 0.3}, {3, 0.1}};
  near[1].items = {{1, 0.0}, {0, 0.2}};
  EXPECT_TRUE(expect_identical(near, 3, 1));
  EXPECT_EQ(solve_mckp(near, 3, 1).total_units, 3);

  // total == 0 admits only zero-weight items.
  std::vector<MckpGroup> zero(2);
  zero[0].items = {{1, 0.0}, {0, 2.0}, {0, 2.0}};
  zero[1].items = {{0, 1.0}};
  expect_identical(zero, 0, 0);
  expect_identical(zero, 0, 5);
  const auto r = solve_mckp(zero, 0, 0);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.choice, (std::vector<int>{1, 0}));  // first of the tied pair
}

}  // namespace
}  // namespace klb::ilp
