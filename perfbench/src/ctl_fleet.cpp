// ctl_fleet: the KnapsackLB control loop at fleet scale.
//
// 167 VIPs in Table 8's six classes at 1/20 of their VIP counts (100x5,
// 50x10, 10x50, 5x100, 1x500, 1x1000 DIPs: 3,500 DIPs). Each VIP has a
// real lb::Mux (Maglev) on one blackholed network behind a timing
// PoolProgrammer, and a controller in one MultiVipCoordinator (2 solver
// threads, unlimited ILP slots). The benchmark plays the KLM: every round
// it records one LatencySample per DIP through LatencyStore::record, read
// off that DIP's seeded true curve at its programmed weight, plus 3% noise.
// Every round reruns every VIP's ILP (the paper's §5 default), exploring
// VIPs excepted. A seeded schedule keeps the loop changing: each round
// four VIPs (a seeded round-robin over the fleet) get a capacity cut on
// one DIP (to 60% for 8 rounds, then restored), and three VIPs of up to
// 100 DIPs a scale-out whose newcomer is explored, fitted, folded into
// the ILP and then scaled in again. A round starts when the previous one
// returns (closed loop).
//
// Freshness: after every program a VIP's Mux commits, the programmer
// sends one probe packet through it and times it from the round's start.
//
// Checks: every program's active units sum to kWeightScale; every probe
// is forwarded under the generation the program published; each Mux's
// applied version equals the last version its controller issued.
#include <algorithm>
#include <iostream>
#include <memory>
#include <numeric>
#include <streambuf>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/multi_vip.hpp"
#include "core/solver_pool.hpp"
#include "lb/mux.hpp"
#include "lb/policy.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "store/latency_store.hpp"
#include "testbed/synthetic.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/weight.hpp"

namespace perfbench {

namespace {

using namespace klb;
using trace::Layer;
using trace::Span;

struct VipClass {
  std::size_t vips;
  std::size_t dips;
};
constexpr std::array<VipClass, 6> kClasses{
    {{100, 5}, {50, 10}, {10, 50}, {5, 100}, {1, 500}, {1, 1000}}};
constexpr int kSolverThreads = 2;
constexpr std::size_t kCutsPerRound = 4;
constexpr std::size_t kScaleOutsPerRound = 3;
constexpr std::size_t kMaxScaleDips = 100;
constexpr std::uint64_t kCutRounds = 8;
constexpr double kCutFactor = 0.6;
constexpr double kCapacityHeadroom = 1.4;  // sum of true wmax per VIP
constexpr double kNoise = 0.03;
constexpr std::uint32_t kProbes = 100;
const util::SimTime kRoundInterval = util::SimTime::seconds(10);

/// Counts the controller's infeasible-ILP warnings (the fallback it takes
/// is otherwise invisible outside the controller) and discards the rest
/// of the log.
class FallbackCounter : public std::streambuf {
 public:
  std::uint64_t count() const { return count_; }

 protected:
  int overflow(int c) override {
    if (c == '\n') {
      if (line_.find("ILP infeasible") != std::string::npos) ++count_;
      line_.clear();
    } else if (c != EOF) {
      line_.push_back(static_cast<char>(c));
    }
    return c;
  }

 private:
  std::string line_;
  std::uint64_t count_ = 0;
};

/// One DIP's ground truth, as the simulated KLM measures it.
struct Truth {
  double wmax = 0.0;
  double l0 = 1.0;
  double cut = 1.0;  // capacity factor while a cut is active
  std::uint64_t cut_until = 0;
};

struct Fleet;

/// The dataplane handed to one controller: commits each program on the
/// VIP's Mux, checks it, and times a probe packet through the new
/// generation.
class TimedProgrammer : public lb::PoolProgrammer {
 public:
  TimedProgrammer(Fleet& fleet, lb::Mux& mux) : fleet_(fleet), mux_(mux) {}

  std::size_t backend_count() const override { return mux_.backend_count(); }
  std::vector<net::IpAddr> backend_addrs() const override {
    return mux_.backend_addrs();
  }
  void apply_program(const lb::PoolProgram& program) override;
  void poll() override { mux_.poll(); }

  /// Units of weight last programmed for `dip` (0 when absent or parked).
  std::int64_t units_of(net::IpAddr dip) const {
    const auto it = units_.find(dip.value());
    return it == units_.end() ? 0 : it->second;
  }
  std::uint64_t programs() const { return programs_; }

 private:
  Fleet& fleet_;
  lb::Mux& mux_;
  std::unordered_map<std::uint32_t, std::int64_t> units_;
  std::uint64_t programs_ = 0;
  std::uint64_t probe_seq_ = 0;
};

struct Fleet {
  explicit Fleet(std::uint64_t seed)
      : sim(seed), net(sim),
        engine(std::make_shared<store::KvEngine>([this] { return sim.now(); })),
        store(engine), rng(seed) {
    net.set_blackhole(true);
    core::MultiVipConfig cfg;
    cfg.round_interval = kRoundInterval;
    cfg.max_ilp_per_round = 0;
    cfg.solver_threads = kSolverThreads;
    cfg.controller.refresh_interval = util::SimTime::zero();
    coord = std::make_unique<core::MultiVipCoordinator>(sim, cfg);

    for (const auto& cls : kClasses) {
      for (std::size_t k = 0; k < cls.vips; ++k) {
        const auto v = vips.size();
        const auto vip = net::IpAddr(static_cast<std::uint32_t>(0x0a000001 + v));
        vips.push_back(vip);
        muxes.push_back(std::make_unique<lb::Mux>(net, vip, lb::make_policy("maglev")));
        lbs.push_back(std::make_unique<TimedProgrammer>(*this, *muxes.back()));
        std::vector<double> share(cls.dips);
        for (auto& s : share) s = 0.5 + 1.5 * rng.uniform();
        const double scale =
            kCapacityHeadroom / std::accumulate(share.begin(), share.end(), 0.0);
        std::vector<net::IpAddr> addrs;
        for (std::size_t d = 0; d < cls.dips; ++d) {
          const auto addr = next_dip_addr();
          addrs.push_back(addr);
          truth[addr.value()] = Truth{share[d] * scale, 1.0 + 2.0 * rng.uniform()};
        }
        coord->add_vip(vip, addrs, store, *lbs.back());
        auto& ctl = coord->controller(v);
        for (std::size_t d = 0; d < cls.dips; ++d) {
          const auto& t = truth[addrs[d].value()];
          ctl.inject_ready_curve(d, testbed::synthetic_curve(t.wmax, t.l0));
        }
        newcomer.push_back(net::IpAddr());
      }
    }
    order.resize(vips.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform_int(std::uint64_t{i})]);
    // A VIP explores a newcomer for ~10 rounds and skips its ILP meanwhile;
    // on the 500- and 1000-DIP VIPs that would swing a round's cost by the
    // largest solves, so scale-outs go to the VIPs of up to kMaxScaleDips.
    for (const auto v : order)
      if (coord->controller(v).dip_count() <= kMaxScaleDips) scale_order.push_back(v);
    // Managed start: the benchmark drives rounds, no timer runs.
    for (std::size_t v = 0; v < vips.size(); ++v) coord->controller(v).start_managed();
    // First round: every VIP solves its initial ILP.
    round(false);
  }

  net::IpAddr next_dip_addr() {
    return net::IpAddr(static_cast<std::uint32_t>(0x0b000000 + next_dip++));
  }

  /// The KLM's view of one DIP at its programmed weight.
  store::LatencySample measure(net::IpAddr dip, double weight) {
    const auto& t = truth.at(dip.value());
    store::LatencySample s;
    s.dip = dip;
    s.probes = kProbes;
    s.at = sim.now();
    const double noise = 1.0 + kNoise * rng.normal();
    // The synthetic curve's shape (5x l0 at wmax) continues past capacity,
    // where a share of the probes is dropped as well.
    const double x = weight / (t.wmax * t.cut);
    s.avg_latency_ms = t.l0 * (1.0 + 4.0 * x * x) * noise;
    if (x > 1.0)
      s.errors = static_cast<std::uint32_t>(std::min(1.0, x - 1.0) *
                                            static_cast<double>(kProbes));
    return s;
  }

  /// This round's share of the seeded churn schedule.
  void schedule_events() {
    for (auto& [addr, t] : truth)
      if (t.cut_until != 0 && t.cut_until <= rounds) {
        t.cut = 1.0;
        t.cut_until = 0;
      }
    for (std::size_t v = 0; v < vips.size(); ++v) {
      // A newcomer leaves once it is Ready and has served two rounds.
      if (newcomer[v] == net::IpAddr()) continue;
      auto& ctl = coord->controller(v);
      const auto idx = ctl.index_of(newcomer[v]);
      if (!idx || ctl.phase(*idx) != core::Controller::DipPhase::kReady) continue;
      const int ready_rounds = ++newcomer_ready_rounds[newcomer[v].value()];
      if (ready_rounds == 1) ++curves_fitted;
      if (ready_rounds < 2) continue;
      {
        Span span(Layer::kCore, "core.Controller::remove_dip");
        ctl.remove_dip(*idx);
      }
      store.forget(vips[v], newcomer[v]);
      truth.erase(newcomer[v].value());
      newcomer_ready_rounds.erase(newcomer[v].value());
      newcomer[v] = net::IpAddr();
    }
    for (std::size_t e = 0; e < kCutsPerRound; ++e) {
      auto& ctl = coord->controller(order[cut_cursor++ % order.size()]);
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(ctl.dip_count())));
      auto& t = truth.at(ctl.dip_addr(i).value());
      if (t.cut_until == 0) {
        t.cut = kCutFactor;
        t.cut_until = rounds + kCutRounds;
      }
    }
    for (std::size_t e = 0; e < kScaleOutsPerRound; ++e) {
      const auto v = scale_order[scale_cursor++ % scale_order.size()];
      if (newcomer[v] != net::IpAddr()) continue;
      auto& ctl = coord->controller(v);
      const auto addr = next_dip_addr();
      const double mean_wmax = kCapacityHeadroom / static_cast<double>(ctl.dip_count());
      truth[addr.value()] = Truth{mean_wmax * (0.5 + rng.uniform()),
                                  1.0 + 2.0 * rng.uniform()};
      newcomer[v] = addr;
      Span span(Layer::kCore, "core.Controller::add_dip");
      ctl.add_dip(addr);
    }
  }

  /// One closed-loop round: advance virtual time, record one sample per
  /// DIP, run the coordinator (or, traced, its three phases one by one).
  void round(bool traced) {
    ++rounds;
    sim.run_for(kRoundInterval);
    trace::set_tag(rounds);
    round_start = Clock::now();
    round_traced = traced;
    // §5's default: every VIP's ILP reruns every round, on top of the
    // VIPs whose curves changed.
    for (std::size_t v = 0; v < vips.size(); ++v) coord->controller(v).mark_dirty();
    for (std::size_t v = 0; v < vips.size(); ++v) {
      auto& ctl = coord->controller(v);
      for (std::size_t i = 0; i < ctl.dip_count(); ++i) {
        const auto addr = ctl.dip_addr(i);
        const auto sample = measure(
            addr, static_cast<double>(lbs[v]->units_of(addr)) /
                      static_cast<double>(util::kWeightScale));
        Span span(Layer::kStore, "store.LatencyStore::record");
        store.record(vips[v], sample);
      }
    }
    const auto k0 = Clock::now();
    if (!traced) {
      coord->tick();
    } else {
      traced_tick();
    }
    tick_s = seconds_since(k0);
  }

  /// MultiVipCoordinator::tick with unlimited slots, phase by phase, so
  /// each controller call gets its own span.
  void traced_tick() {
    if (!solver) solver = std::make_unique<core::SolverPool>(kSolverThreads);
    const auto n = vips.size();
    std::vector<char> wants(n, 0);
    const auto p0 = Clock::now();
    for (std::size_t v = 0; v < n; ++v) {
      Span span(Layer::kCore, "core.Controller::tick_prepare");
      wants[v] = coord->controller(v).tick_prepare() ? 1 : 0;
    }
    phase_prepare_s = seconds_since(p0);
    std::vector<core::Controller::IlpSolveOutcome> outcomes(n);
    std::vector<double> solve_s(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      if (!wants[v]) continue;
      auto* ctl = &coord->controller(v);
      auto* slot = &outcomes[v];
      auto* took = &solve_s[v];
      const auto tag = rounds;
      solver->submit([ctl, slot, took, tag] {
        trace::set_tag(tag);
        const auto t0 = Clock::now();
        Span span(Layer::kIlp, "ilp.Controller::solve_ilp");
        *slot = ctl->solve_ilp();
        *took = seconds_since(t0);
      });
    }
    solver->wait_idle();
    phase_solve_sum_s = std::accumulate(solve_s.begin(), solve_s.end(), 0.0);
    const auto a0 = Clock::now();
    for (std::size_t v = 0; v < n; ++v) {
      if (!wants[v]) continue;
      if (outcomes[v].attempted && !outcomes[v].result.feasible) ++traced_infeasible;
      Span span(Layer::kCore, "core.Controller::apply_ilp");
      coord->controller(v).apply_ilp(outcomes[v]);
    }
    phase_apply_s = seconds_since(a0);
  }

  sim::Simulation sim;
  net::Network net;
  std::shared_ptr<store::KvEngine> engine;
  store::LatencyStore store;
  util::Rng rng;
  std::unique_ptr<core::MultiVipCoordinator> coord;
  std::unique_ptr<core::SolverPool> solver;  // traced rounds only
  std::vector<net::IpAddr> vips;
  std::vector<std::unique_ptr<lb::Mux>> muxes;
  std::vector<std::unique_ptr<TimedProgrammer>> lbs;
  std::unordered_map<std::uint32_t, Truth> truth;
  std::vector<net::IpAddr> newcomer;  // per VIP; IpAddr() when none
  std::unordered_map<std::uint32_t, int> newcomer_ready_rounds;
  std::vector<std::size_t> order;        // capacity cuts, all VIPs
  std::vector<std::size_t> scale_order;  // scale-outs, small VIPs
  std::size_t cut_cursor = 0;
  std::size_t scale_cursor = 0;
  std::uint32_t next_dip = 1;
  std::uint64_t rounds = 0;
  std::uint64_t curves_fitted = 0;  // newcomers whose exploration finished

  // Per-round measurements, read by the round loop in run_ctl_fleet.
  Clock::time_point round_start;
  bool round_traced = false;
  double tick_s = 0.0;  // the coordinator round alone, without the KLM
  // Traced rounds: prepare and apply phase wall time, summed solve time.
  double phase_prepare_s = 0.0, phase_solve_sum_s = 0.0, phase_apply_s = 0.0;
  std::uint64_t traced_infeasible = 0;
  std::vector<double> fresh_ms, fresh_ms_traced, first_pkt_us, program_ms;
  std::uint64_t bad_unit_sums = 0;
  std::uint64_t stale_probes = 0;
};

void TimedProgrammer::apply_program(const lb::PoolProgram& program) {
  std::int64_t sum = 0;
  bool any_active = false;
  for (const auto& e : program.entries)
    if (e.state == lb::BackendState::kActive) {
      sum += e.weight_units;
      any_active = any_active || e.weight_units > 0;
    }
  if (any_active && sum != util::kWeightScale) ++fleet_.bad_unit_sums;
  const auto t0 = Clock::now();
  {
    Span span(Layer::kLb, "lb.Mux::apply_program");
    mux_.apply_program(program);
  }
  const auto t1 = Clock::now();
  if (program.weights_only) {
    for (const auto& e : program.entries) units_[e.dip.value()] = e.weight_units;
  } else {
    units_.clear();
    for (const auto& e : program.entries)
      if (e.state == lb::BackendState::kActive) units_[e.dip.value()] = e.weight_units;
  }
  ++programs_;

  // First packet under the new generation: a probe flow opens and closes.
  const auto gen = mux_.generation_seq();
  const auto forwarded = mux_.total_forwarded();
  net::Message probe;
  probe.tuple.src_ip = net::IpAddr(0x0c000000u | static_cast<std::uint32_t>(probe_seq_ >> 16));
  probe.tuple.src_port = static_cast<std::uint16_t>(probe_seq_++ & 0xffff);
  probe.tuple.dst_ip = mux_.vip();
  probe.tuple.dst_port = 80;
  probe.req_id = 1;
  {
    Span span(Layer::kLb, "lb.Mux::on_message");
    mux_.on_message(probe);
  }
  const auto t2 = Clock::now();
  if (mux_.total_forwarded() != forwarded + 1 || mux_.generation_seq() != gen)
    ++fleet_.stale_probes;
  probe.type = net::MsgType::kFin;
  mux_.on_message(probe);

  const double fresh =
      std::chrono::duration<double, std::milli>(t2 - fleet_.round_start).count();
  (fleet_.round_traced ? fleet_.fresh_ms_traced : fleet_.fresh_ms).push_back(fresh);
  if (fleet_.round_traced) {
    fleet_.program_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    fleet_.first_pkt_us.push_back(
        std::chrono::duration<double, std::micro>(t2 - t1).count());
  }
}

}  // namespace

Result run_ctl_fleet(const Args& args) {
  Result r;
  FallbackCounter fallbacks;
  auto* old_clog = std::clog.rdbuf(&fallbacks);
  util::set_log_threshold(util::LogLevel::kWarn);

  std::unique_ptr<Fleet> fleet;
  const double setup_s =
      timed_setup(3, fleet, [&] { return std::make_unique<Fleet>(args.seed); });
  Fleet& f = *fleet;
  f.fresh_ms.clear();
  const auto fallbacks0 = fallbacks.count();

  auto sum_over = [&f](auto get) {
    std::uint64_t n = 0;
    for (std::size_t v = 0; v < f.vips.size(); ++v) n += get(f.coord->controller(v));
    return n;
  };
  const auto ilp0 = sum_over([](const core::Controller& c) { return c.ilp_runs(); });
  const auto rescales0 = sum_over([](const core::Controller& c) {
    return c.capacity_rescales() + c.traffic_rescales();
  });
  std::uint64_t programs0 = 0;
  for (const auto& lb : f.lbs) programs0 += lb->programs();

  const auto fitted0 = f.curves_fitted;
  std::vector<double> tick_s_untraced, phase_sum_s;
  std::uint64_t vip_rounds = 0, traced_rounds = 0;
  util::Rng pick(args.seed ^ 0x7ace);
  const auto start = Clock::now();
  while (seconds_since(start) < args.seconds || f.rounds < 4) {
    f.schedule_events();
    // Traced runs trace a seeded half of the rounds (not every other one:
    // rescale debouncing gives some VIPs a two-round rhythm).
    const bool traced = args.trace && pick.uniform() < 0.5;
    trace::set_enabled(traced);
    f.round(traced);
    trace::set_enabled(false);
    vip_rounds += f.vips.size();
    if (traced) {
      ++traced_rounds;
      phase_sum_s.push_back(f.phase_prepare_s + f.phase_solve_sum_s / kSolverThreads +
                            f.phase_apply_s);
    } else {
      tick_s_untraced.push_back(f.tick_s);
    }
  }
  const double measured_s = seconds_since(start);
  const double rss = peak_rss_mb();

  std::clog.rdbuf(old_clog);
  util::set_log_threshold(util::LogLevel::kError);
  const auto infeasible = fallbacks.count() - fallbacks0;
  const auto solves = sum_over([](const core::Controller& c) { return c.ilp_runs(); }) - ilp0;
  const auto rescales = sum_over([](const core::Controller& c) {
                          return c.capacity_rescales() + c.traffic_rescales();
                        }) - rescales0;
  std::uint64_t programs = 0;
  std::size_t version_mismatch = 0;
  for (std::size_t v = 0; v < f.vips.size(); ++v) {
    programs += f.lbs[v]->programs();
    if (f.muxes[v]->applied_version() != f.lbs[v]->issued_versions()) ++version_mismatch;
  }
  programs -= programs0;

  r.check(f.bad_unit_sums == 0, std::to_string(f.bad_unit_sums) +
                                    " programs whose active units do not sum "
                                    "to kWeightScale");
  r.check(f.stale_probes == 0, std::to_string(f.stale_probes) +
                                   " probes not forwarded under the generation "
                                   "their program published");
  r.check(version_mismatch == 0,
          std::to_string(version_mismatch) +
              " dataplanes whose applied version differs from the last version "
              "their controller issued");
  if (args.trace)
    r.check(f.traced_infeasible <= infeasible,
            "traced rounds saw " + std::to_string(f.traced_infeasible) +
                " infeasible ILPs but the controller log reported " +
                std::to_string(infeasible));

  r.attempted = vip_rounds;
  r.failed = infeasible;
  const auto& fresh = f.fresh_ms;
  const double solves_per_s = static_cast<double>(solves) / measured_s;
  const double p50 = percentile(fresh, 50.0);
  const double p99 = percentile(fresh, 99.0);
  r.note("setup_s", setup_s, "s");
  r.note("rss_mb", rss, "MB");
  r.note("fail_share",
         static_cast<double>(infeasible) / static_cast<double>(vip_rounds), "share");
  r.note("fresh_p50_ms", p50, "ms");
  r.note("fresh_p99_ms", p99, "ms");
  r.note("solves_per_s", solves_per_s, "1/s");
  r.note("rounds", static_cast<double>(f.rounds), "count");
  r.note("fresh_samples", static_cast<double>(fresh.size()), "count");
  r.note("solves", static_cast<double>(solves), "count");
  r.note("measured_s", measured_s, "s");

  if (!args.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("rss_mb", rss, "MB");
    r.set("rate_per_s", solves_per_s, "1/s");
    r.set("lat_p50_ms", p50, "ms");
    r.set("lat_p99_ms", p99, "ms");
    return r;
  }

  const auto s = trace::summarize();
  const auto& record = s.name("store.LatencyStore::record");
  const auto& prepare = s.name("core.Controller::tick_prepare");
  const auto& solve = s.name("ilp.Controller::solve_ilp");
  const auto& apply = s.name("core.Controller::apply_ilp");
  auto per_call = [](const trace::NameStats& n, double unit_ns, bool self) {
    if (n.calls == 0) return 0.0;
    return static_cast<double>(self ? n.self_ns : n.total_ns) /
           static_cast<double>(n.calls) / unit_ns;
  };
  r.set("lb.program_ms", median(f.program_ms), "ms");
  r.set("lb.first_pkt_us", median(f.first_pkt_us), "us");
  r.set("store.record_us", per_call(record, 1e3, false), "us");
  r.set("core.prepare_ms", per_call(prepare, 1e6, false), "ms");
  r.set("ilp.solve_ms_p50", percentile(solve.durations_ns, 50.0) / 1e6, "ms");
  r.set("ilp.solve_ms_p99", percentile(solve.durations_ns, 99.0) / 1e6, "ms");
  r.set("core.apply_ms", per_call(apply, 1e6, true), "ms");
  r.set("core.coord_ms", (median(tick_s_untraced) - median(phase_sum_s)) * 1e3, "ms");
  r.set("ilp.solves", static_cast<double>(solves), "count");
  r.set("ilp.infeasible", static_cast<double>(infeasible), "count");
  r.set("fit.curves_fitted", static_cast<double>(f.curves_fitted - fitted0), "count");
  r.set("core.rescales", static_cast<double>(rescales), "count");
  r.set("lb.maglev_builds", static_cast<double>(programs), "count");
  r.set("trace.overhead_share",
        median(f.fresh_ms_traced) / median(f.fresh_ms) - 1.0, "share");
  r.note("traced_rounds", static_cast<double>(traced_rounds), "count");
  return r;
}

}  // namespace perfbench
