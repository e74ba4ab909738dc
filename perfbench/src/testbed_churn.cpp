// testbed_churn: the whole system as the paper's users see it.
//
// A Testbed on the Table-3 pool with KnapsackLB on, a 3-member MuxPool,
// closed-loop clients and the single-threaded event loop (driver_shards
// = 1: the sharded driver does not replay bit-exactly with the controller
// on). The scenario is Fig. 16's, on a compressed control clock (2 s
// controller rounds, 1 s KLM periods): exploration to Ready, a settle,
// then baseline, capacity change (two DS3v2s lose a core), a scale-out
// wave of three DS2v2s explored live, a rolling drain of three DIPs, and a
// correlated failure of two. The clients then stop and every request in
// flight completes or times out.
//
// A run plays kScenarios such scenarios, each seeded from --seed, so it
// takes as long as they do (~40 s) whatever --seconds says. Every
// scenario has a fixed virtual length: one seed gives one result, and the
// run's replay digest (client successes, timeouts, errors and final
// per-DIP weights of every scenario) repeats exactly across runs.
//
// Checks, per scenario: requests sent = successes + errors + timeouts; the
// rolling drain resets no flow; controller and dataplane weights agree by
// address.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/controller.hpp"
#include "klm/klm.hpp"
#include "lb/mux_pool.hpp"
#include "net/fabric.hpp"
#include "testbed/testbed.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace klb;
using trace::Layer;
using trace::Span;

const util::SimTime kReadyLimit = util::SimTime::minutes(5);
const util::SimTime kSettle = util::SimTime::seconds(5);
const util::SimTime kWindow = util::SimTime::seconds(8);
const util::SimTime kDrainGap = util::SimTime::seconds(3);
const util::SimTime kFreeze = util::SimTime::seconds(4);
// Independent scenarios per run, seeded from --seed: client latency is
// pooled over them, so one seed's exploration outcome does not set it.
constexpr std::size_t kScenarios = 3;
constexpr std::size_t kScaleOuts = 3;
constexpr std::size_t kDrains = 3;

testbed::TestbedConfig config(std::uint64_t seed) {
  testbed::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.use_knapsacklb = true;
  cfg.mux_count = 3;
  cfg.driver_shards = 1;
  cfg.requests_per_session = 1.0;
  cfg.closed_loop_factor = 20.0;
  cfg.dip.backlog_per_core = 24;
  cfg.rescale_load_on_churn = false;
  cfg.controller.refresh_interval = util::SimTime::zero();
  cfg.controller.round_interval = util::SimTime::seconds(2);
  cfg.controller.drain_allowance = util::SimTime::millis(800);
  cfg.klm.period = util::SimTime::seconds(1);
  cfg.klm.probe_timeout = util::SimTime::millis(500);
  return cfg;
}

/// One run of the scenario and what it produced.
struct Rep {
  double wall_s = 0.0;     // scenario wall time, set-up excluded
  std::uint64_t completed = 0;
  std::uint64_t sent = 0, successes = 0, errors = 0, timeouts = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t drain_resets = 0;
  std::uint64_t no_backend_drops = 0, affinity_breaks = 0;
  std::uint64_t klm_rounds = 0, klm_dropped = 0, ilp_runs = 0;
  double cpu_util_max = 0.0;
  double rss_mb = 0.0;
  std::size_t weight_mismatches = 0;
  bool ready = true;
  std::uint64_t digest = 0;
  // Client latency percentiles of each churn phase (virtual ms).
  std::vector<double> phase_p50_ms, phase_p99_ms;
  std::vector<std::pair<std::string, double>> phase_s;
  std::vector<double> churn_op_ms;
};

class Scenario {
 public:
  Scenario(testbed::Testbed& bed, Rep& rep) : bed_(bed), rep_(rep) {}

  /// Advance virtual time by `d` on the event loop (driver_shards = 1, so
  /// this is exactly Testbed::run_for), counting events and wall time.
  void run_for(util::SimTime d) {
    const auto t0 = Clock::now();
    {
      Span span(Layer::kSim, "sim.Simulation::run_for");
      rep_.events += bed_.sim().run_for(d);
    }
    phase_wall_ += seconds_since(t0);
  }

  bool run_until_ready(util::SimTime limit) {
    const auto deadline = bed_.sim().now() + limit;
    while (bed_.sim().now() < deadline) {
      if (bed_.controller()->all_ready()) return true;
      run_for(util::SimTime::seconds(2));
    }
    return bed_.controller()->all_ready();
  }

  /// Close a phase: its wall time, and for churn phases the client
  /// latency percentiles of the requests that completed in it.
  void end_phase(const char* name, bool churn) {
    rep_.phase_s.emplace_back(name, phase_wall_);
    phase_wall_ = 0.0;
    const auto& all = bed_.clients().recorder().raw_latencies_ms();
    if (churn) {
      const std::vector<double> lat(
          all.begin() + static_cast<std::ptrdiff_t>(phase_from_), all.end());
      rep_.phase_p50_ms.push_back(percentile(lat, 50.0));
      rep_.phase_p99_ms.push_back(percentile(lat, 99.0));
    }
    phase_from_ = all.size();
  }

  template <typename Op>
  void churn(Layer layer, const char* name, Op op) {
    const auto t0 = Clock::now();
    {
      Span span(layer, name);
      op();
    }
    rep_.churn_op_ms.push_back(seconds_since(t0) * 1e3);
  }

 private:
  testbed::Testbed& bed_;
  Rep& rep_;
  double phase_wall_ = 0.0;
  std::size_t phase_from_ = 0;
};

Rep run_scenario(testbed::Testbed& bed) {
  Rep rep;
  Scenario sc(bed, rep);
  auto* pool = bed.mux_pool();
  const auto start = Clock::now();

  rep.ready = sc.run_until_ready(kReadyLimit);
  sc.run_for(kSettle);
  sc.end_phase("ready", false);

  sc.run_for(kWindow);
  sc.end_phase("baseline", true);

  sc.churn(Layer::kServer, "server.DipServer::set_stolen_cores", [&] {
    bed.dip(24).set_stolen_cores(1.0);
    bed.dip(25).set_stolen_cores(1.0);
  });
  sc.run_for(kWindow);
  sc.end_phase("capacity", true);

  for (std::size_t i = 0; i < kScaleOuts; ++i)
    sc.churn(Layer::kTestbed, "testbed.Testbed::scale_out",
             [&] { bed.scale_out({server::kDs2v2, 1.0, 0.0}); });
  rep.ready = sc.run_until_ready(kReadyLimit) && rep.ready;
  sc.run_for(kWindow);
  sc.end_phase("scale_out", true);

  const auto resets0 = pool->flows_reset_by_failure();
  for (std::size_t i = 0; i < kDrains; ++i) {
    sc.churn(Layer::kTestbed, "testbed.Testbed::scale_in", [&] { bed.scale_in(0); });
    sc.run_for(kDrainGap);
  }
  sc.run_for(kWindow);
  rep.drain_resets = pool->flows_reset_by_failure() - resets0;
  sc.end_phase("drain", true);

  for (int i = 0; i < 2; ++i)
    sc.churn(Layer::kTestbed, "testbed.Testbed::fail_dip", [&] { bed.fail_dip(0); });
  sc.run_for(kWindow);
  sc.end_phase("failure", true);

  // Freeze: no new programs or requests; everything in flight completes
  // or times out, and the last transaction clears its programming delay.
  bed.controller()->stop();
  bed.clients().stop();
  sc.run_for(kFreeze);
  sc.end_phase("freeze", false);
  rep.wall_s = seconds_since(start);
  rep.rss_mb = peak_rss_mb();

  const auto& rec = bed.clients().recorder();
  rep.sent = bed.client_requests_sent();
  rep.successes = bed.client_successes();
  rep.timeouts = bed.client_timeouts();
  rep.errors = rec.errors();
  rep.completed = rep.successes;
  rep.messages = bed.network().messages_sent();
  const auto dm = bed.dataplane_metrics();
  rep.no_backend_drops = dm.no_backend_drops;
  rep.affinity_breaks = dm.affinity_breaks;
  rep.klm_rounds = bed.klm().rounds_completed();
  rep.klm_dropped = bed.klm().rounds_dropped();
  rep.ilp_runs = bed.controller()->ilp_runs();

  Digest digest;
  digest.add(rep.successes);
  digest.add(rep.timeouts);
  digest.add(rep.errors);
  for (const auto& m : bed.metrics()) {
    rep.cpu_util_max = std::max(rep.cpu_util_max, m.cpu_utilization);
    digest.add(m.addr.value());
    std::uint64_t weight_bits = 0;
    std::memcpy(&weight_bits, &m.weight, sizeof weight_bits);
    digest.add(weight_bits);
    const auto cw = bed.controller()->weight_of(m.addr);
    if (!cw || std::abs(*cw - m.weight) > 2e-3) ++rep.weight_mismatches;
  }
  rep.digest = digest.value();
  return rep;
}

}  // namespace

Result run_testbed_churn(const Args& args) {
  Result r;
  const auto specs = testbed::table3_specs();
  std::vector<Rep> reps;
  std::vector<double> setups, kreq, kreq_traced, p50s, p99s;
  Digest digest;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    std::unique_ptr<testbed::Testbed> bed;
    // A Testbed builds in a few milliseconds: time several builds.
    setups.push_back(timed_setup(3, bed, [&] {
      return std::make_unique<testbed::Testbed>(specs, config(args.seed * kScenarios + k));
    }));
    // Traced runs alternate traced and untraced scenarios.
    const bool traced = args.trace && k % 2 == 0;
    trace::set_enabled(traced);
    reps.push_back(run_scenario(*bed));
    trace::set_enabled(false);
    Rep& rep = reps.back();
    const auto tag = "scenario " + std::to_string(k) + ": ";
    r.check(rep.ready, tag + "exploration did not reach Ready within the limit");
    r.check(rep.sent == rep.successes + rep.errors + rep.timeouts,
            tag + "requests sent (" + std::to_string(rep.sent) +
                ") != successes + errors + timeouts (" +
                std::to_string(rep.successes + rep.errors + rep.timeouts) + ")");
    r.check(rep.drain_resets == 0, tag + "the rolling drain reset " +
                                       std::to_string(rep.drain_resets) + " flows");
    r.check(rep.weight_mismatches == 0,
            tag + std::to_string(rep.weight_mismatches) +
                " DIPs whose controller and dataplane weights disagree");
    r.attempted += rep.sent;
    r.failed += rep.errors + rep.timeouts;
    digest.add(rep.digest);
    (traced ? kreq_traced : kreq)
        .push_back(static_cast<double>(rep.completed) / rep.wall_s / 1e3);
    p50s.insert(p50s.end(), rep.phase_p50_ms.begin(), rep.phase_p50_ms.end());
    p99s.insert(p99s.end(), rep.phase_p99_ms.begin(), rep.phase_p99_ms.end());
  }

  const double setup_s = median(setups);
  const double rss = reps.front().rss_mb;
  const double rate = median(kreq);
  // Each churn phase of each scenario weighs the same: a percentile pooled
  // over all requests sits on the edge of the ~76 ms full-backlog plateau
  // and flips between it and the capacity-change excursions by seed.
  const double p50 = std::accumulate(p50s.begin(), p50s.end(), 0.0) /
                     static_cast<double>(p50s.size());
  const double p99 = std::accumulate(p99s.begin(), p99s.end(), 0.0) /
                     static_cast<double>(p99s.size());
  r.note("setup_s", setup_s, "s");
  r.note("rss_mb", rss, "MB");
  r.note("fail_share",
         static_cast<double>(r.failed) / static_cast<double>(r.attempted), "share");
  r.note("sim_kreq_per_s", rate, "kreq/s");
  r.note("client_p50_ms", p50, "ms");
  r.note("client_p99_ms", p99, "ms");
  r.note("scenarios", static_cast<double>(reps.size()), "count");
  r.note("churn_phases", static_cast<double>(p50s.size()), "count");
  r.info["replay_digest"] = digest.hex();

  if (!args.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("rss_mb", rss, "MB");
    r.set("rate_per_s", rate * 1e3, "1/s");
    r.set("lat_p50_ms", p50, "ms");
    r.set("lat_p99_ms", p99, "ms");
    return r;
  }

  const Rep& t = reps.front();  // the first scenario is traced
  for (const auto& [phase, s] : t.phase_s) r.set("testbed.phase_s." + phase, s, "s");
  r.set("testbed.churn_op_ms", median(t.churn_op_ms), "ms");
  double run_wall = 0.0;
  for (const auto& [phase, s] : t.phase_s) run_wall += s;
  r.set("sim.events_per_s", static_cast<double>(t.events) / run_wall, "1/s");
  r.set("sim.events_per_req",
        static_cast<double>(t.events) / static_cast<double>(t.completed), "events/req");
  r.set("net.msgs_per_req",
        static_cast<double>(t.messages) / static_cast<double>(t.completed), "msgs/req");
  r.set("klm.rounds", static_cast<double>(t.klm_rounds), "count");
  r.set("klm.rounds_dropped", static_cast<double>(t.klm_dropped), "count");
  r.set("core.ilp_runs", static_cast<double>(t.ilp_runs), "count");
  r.set("server.cpu_util_max", t.cpu_util_max, "share");
  r.set("workload.timeouts", static_cast<double>(t.timeouts), "count");
  r.set("lb.no_backend_drops", static_cast<double>(t.no_backend_drops), "count");
  r.set("lb.affinity_breaks", static_cast<double>(t.affinity_breaks), "count");
  r.set("trace.overhead_share", median(kreq) / median(kreq_traced) - 1.0, "share");
  return r;
}

}  // namespace perfbench
