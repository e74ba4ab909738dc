#include "ilp/mckp.hpp"

#include <algorithm>
#include <limits>

namespace klb::ilp {

MckpResult solve_mckp(const std::vector<MckpGroup>& groups,
                      std::int64_t total_units, std::int64_t slack_units) {
  MckpResult result;
  if (groups.empty() || total_units < 0) return result;
  for (const auto& g : groups) {
    if (g.items.empty()) return result;           // no pickable item
    if (g.items.size() > 65'535) return result;   // choice id is uint16
  }
  const std::size_t n = groups.size();
  const std::int64_t lo = std::max<std::int64_t>(0, total_units - slack_units);
  const auto valid = [&](const MckpItem& it) {
    return it.weight_units >= 0 && it.weight_units <= total_units;
  };

  // Window [low[g], high[g]] of sums worth a cell after group g: reachable
  // from 0 through groups 0..g (between the prefix sums of the smallest
  // and largest valid weights, capped at total) and still able to land in
  // [lo, total] through groups g+1..n-1 (at least lo - suffix max).
  std::vector<std::int64_t> low(n), high(n), group_max(n);
  std::int64_t prefix_min = 0, prefix_max = 0;
  for (std::size_t g = 0; g < n; ++g) {
    std::int64_t wmin = total_units + 1, wmax = -1;
    for (const auto& it : groups[g].items) {
      if (!valid(it)) continue;
      wmin = std::min(wmin, it.weight_units);
      wmax = std::max(wmax, it.weight_units);
    }
    if (wmax < 0) return result;  // every item invalid: nothing reachable
    prefix_min += wmin;
    prefix_max = std::min(prefix_max + wmax, total_units);
    low[g] = prefix_min;
    high[g] = prefix_max;
    group_max[g] = wmax;
  }
  std::int64_t suffix_max = 0;  // sum of group_max over groups g+1..n-1
  for (std::size_t g = n; g-- > 0;) {
    low[g] = std::max(low[g], lo - suffix_max);
    if (low[g] > high[g]) return result;  // the window cannot be reached
    suffix_max = std::min(suffix_max + group_max[g], total_units);
  }
  std::vector<std::size_t> offset(n + 1, 0);
  std::size_t widest = 1;
  for (std::size_t g = 0; g < n; ++g) {
    const auto width = static_cast<std::size_t>(high[g] - low[g] + 1);
    offset[g + 1] = offset[g] + width;
    widest = std::max(widest, width);
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // prev/cur hold one window each, indexed by sum - window low.
  std::vector<double> prev(widest, kInf);
  std::vector<double> cur(widest, kInf);
  // choice[offset[g] + u - low[g]]: item chosen for group g to reach sum u.
  std::vector<std::uint16_t> choice(offset[n], 0xffff);

  prev[0] = 0.0;
  std::int64_t prev_lo = 0, prev_hi = 0;  // before group 0: only sum 0
  for (std::size_t g = 0; g < n; ++g) {
    const std::int64_t g_lo = low[g], g_hi = high[g];
    std::fill_n(cur.begin(), g_hi - g_lo + 1, kInf);
    for (std::size_t item = 0; item < groups[g].items.size(); ++item) {
      const auto& it = groups[g].items[item];
      if (!valid(it)) continue;
      const std::int64_t w = it.weight_units;
      const std::int64_t from = std::max(g_lo, prev_lo + w);
      const std::int64_t to = std::min(g_hi, prev_hi + w);
      if (from > to) continue;
      const double* const base = prev.data() + (from - w - prev_lo);
      double* const row = cur.data() + (from - g_lo);
      std::uint16_t* const par = choice.data() + offset[g] + (from - g_lo);
      // An unreachable base is +inf, and inf + cost < row[k] never holds.
      for (std::int64_t k = 0; k <= to - from; ++k) {
        const double cost = base[k] + it.cost;
        if (cost < row[k]) {
          row[k] = cost;
          par[k] = static_cast<std::uint16_t>(item);
        }
      }
    }
    std::swap(prev, cur);
    prev_lo = g_lo;
    prev_hi = g_hi;
  }

  // Pick the best landing spot inside [total - slack, total]; prefer the
  // larger sum on (near-)ties so the schedule uses the full budget. The
  // last window is [max(lo, prefix min), min(total, prefix max)]; every
  // sum in [lo, total] outside it is unreachable.
  std::int64_t best_u = -1;  // sentinel
  double best_cost = kInf;
  for (std::int64_t u = prev_hi; u >= prev_lo; --u) {
    const double c = prev[static_cast<std::size_t>(u - prev_lo)];
    if (c < best_cost - 1e-12) {
      best_cost = c;
      best_u = u;
    }
  }
  if (best_u < 0) return result;  // infeasible in the window

  result.feasible = true;
  result.cost = best_cost;
  result.total_units = best_u;
  result.choice.assign(n, -1);
  std::int64_t u = best_u;
  for (std::size_t g = n; g-- > 0;) {
    const std::uint16_t item =
        choice[offset[g] + static_cast<std::size_t>(u - low[g])];
    result.choice[g] = static_cast<int>(item);
    u -= groups[g].items[item].weight_units;
  }
  return result;
}

}  // namespace klb::ilp
