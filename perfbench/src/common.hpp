// Shared plumbing for the perfbench workloads: command-line arguments,
// the result record every workload fills, wall-clock helpers, and sample
// statistics (medians and percentiles over recorded timings).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // traced runs write their spans here
};

/// One metric as the result line reports it.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): its correctness verdict, the
/// operation counts behind fail_share, the metrics of this run (end-to-end
/// names when untraced, per-layer names when traced), and a detail block
/// with the workload's own named figures and provenance.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// The workload's own named figures, printed for humans; insertion
  /// order is the print order.
  std::vector<std::pair<std::string, Metric>> detail;
  std::map<std::string, std::string> info;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    detail.emplace_back(name, Metric{value, unit});
  }
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::clamp(p / 100.0 * static_cast<double>(v.size()), 1.0,
                 static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Per-operation timings of a hot loop. The storage is allocated and
/// touched up front, so peak RSS does not grow with the number of samples
/// (a faster build would otherwise read as a fatter one); once full, it
/// keeps a uniform reservoir sample of everything added.
class Samples {
 public:
  explicit Samples(std::size_t capacity = std::size_t{1} << 21)
      : store_(capacity, 0.0f) {}

  void add(double v) {
    if (seen_ < store_.size()) {
      store_[seen_] = static_cast<float>(v);
    } else {
      // Algorithm R with a xorshift draw: slot j < seen keeps v.
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      const auto j = state_ % (seen_ + 1);
      if (j < store_.size()) store_[j] = static_cast<float>(v);
    }
    ++seen_;
  }
  std::uint64_t seen() const { return seen_; }
  std::vector<double> values() const {
    const auto n = std::min<std::uint64_t>(seen_, store_.size());
    return std::vector<double>(store_.begin(),
                               store_.begin() + static_cast<std::ptrdiff_t>(n));
  }

 private:
  std::vector<float> store_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Run `setup` `reps` times, keeping the last instance; returns the median
/// set-up wall time in seconds. Earlier instances are destroyed before the
/// next is built, so the peak footprint is one instance.
template <typename T, typename Make>
double timed_setup(int reps, T& keep, Make make) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    keep.reset();
    const auto t0 = Clock::now();
    keep = make();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// 64-bit FNV-1a, for replay digests.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- workloads -------------------------------------------------------------
Result run_dp_stream(const Args& args);
Result run_dp_churn(const Args& args);
Result run_ctl_fleet(const Args& args);
Result run_testbed_churn(const Args& args);

}  // namespace perfbench
