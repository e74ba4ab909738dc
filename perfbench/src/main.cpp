// perfbench: the repository benchmark's workload driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Runs one workload (dp_stream, dp_churn, ctl_fleet, testbed_churn) for S
// seconds of measurement, verifies its outputs, and prints, after a
// PERFBENCH-RESULT marker line, one JSON document: the verdict, the
// operation counts, this run's metrics (end-to-end when untraced,
// per-layer when traced), the workload's named figures, and the build
// stamp. perfbench/run.py builds this binary and turns that document into
// the benchmark's result line.
#include <sys/resource.h>

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "common.hpp"
#include "trace.hpp"
#include "util/logging.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string Digest::hex() const {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << h_;
  return out.str();
}

}  // namespace perfbench

namespace {

using klb::bench::Json;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload dp_stream|dp_churn|ctl_fleet|"
               "testbed_churn --seed N --seconds S --trace 0|1 [--spans PATH]\n";
  return 2;
}

Json metrics_json(const std::map<std::string, perfbench::Metric>& m) {
  auto out = Json::object();
  for (const auto& [name, metric] : m)
    out.set(name, Json::object().set("value", metric.value).set("unit", metric.unit));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.seconds <= 0.0) return usage("--seconds must be positive");
  // Controller and MUX warnings (infeasible-ILP fallbacks, failed backends)
  // are part of the workloads' expected behaviour; keep stderr readable.
  klb::util::set_log_threshold(klb::util::LogLevel::kError);

  perfbench::Result r;
  if (args.workload == "dp_stream") {
    r = perfbench::run_dp_stream(args);
  } else if (args.workload == "dp_churn") {
    r = perfbench::run_dp_churn(args);
  } else if (args.workload == "ctl_fleet") {
    r = perfbench::run_ctl_fleet(args);
  } else if (args.workload == "testbed_churn") {
    r = perfbench::run_testbed_churn(args);
  } else {
    return usage("unknown workload '" + args.workload + "'");
  }

  if (args.trace) {
    // Every layer's self time and call count, whichever layers this
    // workload calls into.
    const auto s = perfbench::trace::summarize();
    for (std::size_t l = 0; l < perfbench::trace::kLayers; ++l) {
      const std::string layer =
          perfbench::trace::layer_name(static_cast<perfbench::trace::Layer>(l));
      r.set(layer + ".self_ms", static_cast<double>(s.layers[l].self_ns) / 1e6,
            "ms");
      r.set(layer + ".calls", static_cast<double>(s.layers[l].calls), "count");
    }
    r.note("spans_kept", static_cast<double>(s.spans_kept), "count");
    r.note("spans_dropped", static_cast<double>(s.spans_dropped), "count");
    if (!args.spans_path.empty() && !perfbench::trace::write_spans(args.spans_path))
      r.check(false, "cannot write spans to " + args.spans_path);
  }

  auto detail = Json::array();
  for (const auto& [name, metric] : r.detail)
    detail.push(Json::object()
                    .set("name", name)
                    .set("value", metric.value)
                    .set("unit", metric.unit));
  auto errors = Json::array();
  for (const auto& e : r.errors) errors.push(Json(e));
  auto info = Json::object();
  for (const auto& [k, v] : r.info) info.set(k, v);
  auto out = Json::object();
  out.set("correct", r.correct)
      .set("attempted", Json(static_cast<std::int64_t>(r.attempted)))
      .set("failed", Json(static_cast<std::int64_t>(r.failed)))
      .set("metrics", metrics_json(r.metrics))
      .set("detail", std::move(detail))
      .set("errors", std::move(errors))
      .set("info", std::move(info))
      .set("build", klb::bench::build_stamp());
  std::cout << "PERFBENCH-RESULT\n" << out.dump() << std::endl;
  return r.correct ? 0 : 1;
}
