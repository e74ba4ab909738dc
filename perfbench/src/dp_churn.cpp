// dp_churn: control-plane writes beside packet reads on the dataplane.
//
// A 2-member MuxPool (Maglev, stateless hybrid) fronts 64 DIPs on a
// blackholed fabric, so the workload stays on `lb`. Two forwarding
// threads each own ~2k cache-resident flows (disjoint tuple ranges) and
// push bursts of 32 through MuxPool::on_batch in a closed loop; a flow
// sends a seeded number of requests (uniform 1..7) and then a FIN. The
// main thread is the committer, on an open-loop schedule: every 5 ms it
// applies a reweighted PoolProgram over all 64 DIPs, followed by
// MuxPool::poll (generation reclaim). A write's latency is the committer
// thread's CPU time for it (see WriteTimer); its wall time is reported
// beside it. The run is split into segments, each with a fresh pool and
// fresh forwarding threads.
//
// No DIP leaves rotation while packets flow. Today every removal under
// traffic (fail_backend, a drain, a program that omits a DIP) refuses the
// picks that land on the DIP's slots between the members' publish and the
// shared table swap (ROADMAP item 1), so refusals would vary from run to
// run. MuxPool::fail_backend is instead timed after each segment's
// forwarders have stopped (lb.fail_backend_ms).
//
// Checks: forwarded + refused requests = offered; FINs forwarded never
// exceed FINs offered; every program's units sum to kWeightScale; after
// the last poll each member has retired all but its current generation;
// PoolGeneration::live_count() returns to its start value.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "lb/maglev.hpp"
#include "lb/mux_pool.hpp"
#include "lb/pool_generation.hpp"
#include "lb/pool_program.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/weight.hpp"

namespace perfbench {

namespace {

using namespace klb;
using trace::Layer;
using trace::Span;

constexpr std::size_t kDips = 64;
constexpr std::size_t kMembers = 2;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kForwarders = 2;
constexpr std::size_t kFlowsPerForwarder = 2048;
constexpr auto kCommitPeriod = std::chrono::milliseconds(5);
// DIPs failed one after another once a segment's forwarders have stopped.
constexpr std::size_t kQuiescentFailures = 4;
constexpr double kWindowS = 0.25;
constexpr std::size_t kSegments = 4;
// Each segment's first commits run against a cold pool; they are not timed.
constexpr auto kWarmup = std::chrono::milliseconds(250);
// Slots per Maglev table (~64 per DIP), as in mux_hotpath --churn: at the
// 65,537-slot default one publish (shared build plus a generation diff per
// member) takes ~20 ms beside two forwarding cores, so a 5 ms schedule
// could never be met and commit lag would grow with the run length.
constexpr std::size_t kTableSize = 4099;
const net::IpAddr kVip{10, 0, 0, 1};

net::IpAddr dip_addr(std::size_t d) {
  return net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d));
}

lb::ConsistencyConfig stateless() {
  lb::ConsistencyConfig c;
  c.stateless = true;
  return c;
}

struct Bed {
  explicit Bed(std::uint64_t seed)
      : sim(seed), net(sim),
        pool(net, kVip, kMembers, kTableSize,
             lb::FlowTableConfig{}, stateless()) {
    net.set_blackhole(true);
    lb::PoolProgram program(pool.issue_version());
    for (std::size_t d = 0; d < kDips; ++d)
      program.add(dip_addr(d), util::kWeightScale / kDips);
    pool.apply_program(program);
  }

  sim::Simulation sim;
  net::Network net;
  lb::MuxPool pool;
};

/// One forwarding thread's flows and tallies.
struct Forwarder {
  Forwarder(std::size_t w, std::uint64_t seed, Samples& samples)
      : rng(seed * 7919 + w), base(static_cast<std::uint64_t>(w + 1) << 40),
        burst_us(samples) {
    for (std::size_t i = 0; i < kBurst; ++i) ptrs[i] = &burst[i];
    for (std::size_t s = 0; s < kFlowsPerForwarder; ++s) reopen(s);
  }

  void reopen(std::size_t s) {
    id[s] = base + next_id++;
    sent[s] = 0;
    total[s] = static_cast<std::uint8_t>(1 + rng.uniform_int(std::uint64_t{7}));
  }

  void stage_burst() {
    for (std::size_t i = 0; i < kBurst; ++i) {
      const auto s = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::uint64_t>(kFlowsPerForwarder)));
      auto& m = burst[i];
      const auto fid = id[s];
      m.tuple.src_ip = net::IpAddr(static_cast<std::uint32_t>(fid >> 16));
      m.tuple.src_port = static_cast<std::uint16_t>(fid & 0xffff);
      m.tuple.dst_ip = kVip;
      m.tuple.dst_port = 80;
      m.conn_id = fid;
      if (sent[s] < total[s]) {
        m.type = net::MsgType::kHttpRequest;
        m.req_id = ++sent[s];
        ++offered_requests;
      } else {
        m.type = net::MsgType::kFin;
        m.req_id = 0;
        ++offered_fins;
        reopen(s);
      }
    }
  }

  void run(lb::MuxPool& pool, const std::atomic<bool>& stop) {
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_acquire)) {
      stage_burst();
      trace::set_tag(++n);
      const auto t0 = Clock::now();
      {
        Span span(Layer::kLb, "lb.MuxPool::on_batch");
        pool.on_batch(ptrs.data(), kBurst);
      }
      burst_us.add(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      packets.store(packets.load(std::memory_order_relaxed) + kBurst,
                    std::memory_order_relaxed);
    }
  }

  util::Rng rng;
  std::uint64_t base;
  std::uint64_t next_id = 0;
  std::array<std::uint64_t, kFlowsPerForwarder> id{};
  std::array<std::uint8_t, kFlowsPerForwarder> sent{};
  std::array<std::uint8_t, kFlowsPerForwarder> total{};
  std::array<net::Message, kBurst> burst{};
  std::array<const net::Message*, kBurst> ptrs{};
  std::uint64_t offered_requests = 0;
  std::uint64_t offered_fins = 0;
  Samples& burst_us;  // per forwarder slot, kept across segments
  alignas(64) std::atomic<std::uint64_t> packets{0};
};

/// Times one control-plane write on the committer thread: wall time, and
/// the thread's own CPU time. On a shared VM the wall-time tail of a
/// publish is dominated by time the vCPU was not running at all (slow
/// publishes show no context switch and no page fault), so the gated
/// latency is CPU time; publishes that slept are counted, so blocking
/// cannot hide behind it.
class WriteTimer {
 public:
  WriteTimer() : wall0_(Clock::now()), cpu0_(thread_cpu_ms()), sleeps0_(sleeps()) {}
  double wall_ms() const { return seconds_since(wall0_) * 1e3; }
  double cpu_ms() const { return thread_cpu_ms() - cpu0_; }
  bool slept() const { return sleeps() != sleeps0_; }

 private:
  static double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
  }
  static long sleeps() {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_nvcsw;
  }
  Clock::time_point wall0_;
  double cpu0_;
  long sleeps0_;
};

/// Everything one run measures, summed over its segments.
struct Tally {
  std::vector<double> publish_ms, publish_wall_ms, poll_ms, lag_ms, build_ms,
      fail_ms;
  std::uint64_t publishes_slept = 0;
  std::vector<double> rates, rates_traced;
  std::size_t pending_peak = 0;
  std::uint64_t unit_sum_errors = 0;
  std::uint64_t offered = 0, offered_fins = 0, refused = 0;
  std::uint64_t stateless_picks = 0, exception_pins = 0, affinity_breaks = 0;
};

/// One segment: a fresh pool, two forwarders, and the committer's
/// schedule on this thread for `seconds`; then the segment's checks.
void run_segment(Bed& bed, std::uint64_t seed, double seconds, bool trace,
                 std::array<Samples, kForwarders>& burst_us, Tally& t,
                 Result& r, const std::string& tag) {
  auto& pool = bed.pool;
  std::vector<std::unique_ptr<Forwarder>> fwd;
  for (std::size_t w = 0; w < kForwarders; ++w)
    fwd.push_back(std::make_unique<Forwarder>(w, seed, burst_us[w]));
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (auto& f : fwd)
    threads.emplace_back([&pool, &stop, fp = f.get()] { fp->run(pool, stop); });
  auto packets_now = [&fwd] {
    std::uint64_t n = 0;
    for (const auto& f : fwd) n += f->packets.load(std::memory_order_relaxed);
    return n;
  };

  util::Rng rng(seed ^ 0xc0117u);
  bool traced = trace && t.rates_traced.size() < t.rates.size() + 1;
  trace::set_enabled(traced);
  const auto first_due = Clock::now();
  const auto start = first_due + kWarmup;
  auto win_start = start;
  std::uint64_t win_packets0 = 0;
  for (std::uint64_t tick = 0;; ++tick) {
    const auto due = first_due + kCommitPeriod * tick;
    std::this_thread::sleep_until(due);
    const bool timed = due >= start;
    if (timed && win_packets0 == 0) win_packets0 = packets_now();
    if (timed)
      t.lag_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    trace::set_tag(tick);
    std::vector<double> raw;
    for (std::size_t d = 0; d < kDips; ++d) raw.push_back(0.5 + rng.uniform());
    const auto units = util::normalize_to_units(raw);
    lb::PoolProgram program(pool.issue_version());
    std::int64_t sum = 0;
    for (std::size_t d = 0; d < kDips; ++d) {
      program.add(dip_addr(d), units[d]);
      sum += units[d];
    }
    if (sum != util::kWeightScale) ++t.unit_sum_errors;
    const WriteTimer w;
    {
      Span span(Layer::kLb, "lb.MuxPool::apply_program");
      pool.apply_program(program);
    }
    if (timed) {
      t.publish_ms.push_back(w.cpu_ms());
      t.publish_wall_ms.push_back(w.wall_ms());
      if (w.slept()) ++t.publishes_slept;
    }
    if (timed && traced) {
      // The same program's Maglev build on its own, for the build share
      // of a publish.
      std::vector<lb::MaglevEntry> entries;
      for (std::size_t d = 0; d < kDips; ++d)
        entries.push_back(lb::MaglevEntry{dip_addr(d).value(), units[d]});
      const auto b0 = Clock::now();
      lb::MaglevTable table(kTableSize);
      table.build(entries);
      t.build_ms.push_back(seconds_since(b0) * 1e3);
    }
    t.pending_peak = std::max(t.pending_peak, pool.pending_retired_generations());
    {
      const auto p0 = Clock::now();
      {
        Span span(Layer::kLb, "lb.MuxPool::poll");
        pool.poll();
      }
      if (timed) t.poll_ms.push_back(seconds_since(p0) * 1e3);
    }
    if (!timed) continue;

    const auto now = Clock::now();
    const double win_s = std::chrono::duration<double>(now - win_start).count();
    if (win_s >= kWindowS) {
      const auto p = packets_now();
      (traced ? t.rates_traced : t.rates)
          .push_back(static_cast<double>(p - win_packets0) / win_s);
      win_packets0 = p;
      win_start = now;
      // Traced runs alternate traced and untraced windows.
      traced = trace && !traced;
      trace::set_enabled(traced);
      if (std::chrono::duration<double>(now - start).count() >= seconds) break;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  trace::set_enabled(false);

  std::uint64_t offered = 0, offered_fins = 0;
  for (const auto& f : fwd) {
    offered += f->offered_requests;
    offered_fins += f->offered_fins;
  }
  const auto forwarded = pool.total_forwarded();
  const auto refused = pool.no_backend_drops();
  const auto fins_forwarded = bed.net.messages_blackholed() - forwarded;
  t.offered += offered;
  t.offered_fins += offered_fins;
  t.refused += refused;
  t.stateless_picks += pool.stateless_picks();
  t.exception_pins += pool.exception_pins();
  t.affinity_breaks += pool.affinity_breaks();
  // Failures with no packet in flight: consecutive DIPs from a seeded
  // start, each timed like a publish.
  const auto first_failed = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{kDips}));
  for (std::size_t k = 0; k < kQuiescentFailures; ++k) {
    const auto d = (first_failed + k) % kDips;
    const WriteTimer w;
    bool served = false;
    {
      Span span(Layer::kLb, "lb.MuxPool::fail_backend");
      served = pool.fail_backend(dip_addr(d));
    }
    t.fail_ms.push_back(w.cpu_ms());
    r.check(served, tag + "fail_backend found no member serving DIP " + std::to_string(d));
  }
  pool.poll();
  const auto published = pool.generations_published();
  const auto retired = pool.generations_retired();
  const auto pending = pool.pending_retired_generations();
  r.check(forwarded + refused == offered,
          tag + "requests forwarded + refused (" +
              std::to_string(forwarded + refused) + ") != offered (" +
              std::to_string(offered) + ")");
  r.check(bed.net.messages_blackholed() >= forwarded && fins_forwarded <= offered_fins,
          tag + "more FINs forwarded (" + std::to_string(fins_forwarded) +
              ") than offered (" + std::to_string(offered_fins) + ")");
  r.check(retired + kMembers == published && pending == 0,
          tag + "after poll: retired " + std::to_string(retired) + ", published " +
              std::to_string(published) + ", pending " + std::to_string(pending) +
              " (want retired = published - 1 per member, none pending)");
}

}  // namespace

Result run_dp_churn(const Args& args) {
  Result r;
  Tally t;
  std::array<Samples, kForwarders> burst_us;
  std::vector<double> setups;
  double rss = 0.0;
  // Each segment builds a fresh pool and starts fresh forwarders: where
  // two forwarders land relative to each other sets how much their shared
  // counters cost, and the segments average over several placements.
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    const auto tag = "segment " + std::to_string(seg) + ": ";
    const auto live0 = lb::PoolGeneration::live_count();
    const auto seed = args.seed * kSegments + seg;
    std::unique_ptr<Bed> bed;
    // A pool builds in well under a millisecond: time several builds.
    setups.push_back(timed_setup(25, bed, [&] { return std::make_unique<Bed>(seed); }));
    run_segment(*bed, seed, args.seconds / kSegments, args.trace, burst_us, t, r, tag);
    // Peak footprint of the measured loop, before any post-processing.
    rss = peak_rss_mb();
    bed.reset();
    r.check(lb::PoolGeneration::live_count() == live0,
            tag + "PoolGeneration::live_count() is " +
                std::to_string(lb::PoolGeneration::live_count()) + ", started at " +
                std::to_string(live0));
  }
  r.check(t.unit_sum_errors == 0, std::to_string(t.unit_sum_errors) +
                                      " programs whose units do not sum to "
                                      "kWeightScale");

  std::vector<double> bursts;
  std::uint64_t burst_count = 0;
  for (const auto& b : burst_us) {
    const auto v = b.values();
    bursts.insert(bursts.end(), v.begin(), v.end());
    burst_count += b.seen();
  }
  r.attempted = t.offered;
  r.failed = t.refused;
  const double setup_s = median(setups);
  const double rate = median(t.rates);
  const double p50 = percentile(t.publish_ms, 50.0);
  const double p99 = percentile(t.publish_ms, 99.0);
  r.note("setup_s", setup_s, "s");
  r.note("rss_mb", rss, "MB");
  r.note("fail_share", static_cast<double>(t.refused) / static_cast<double>(t.offered),
         "share");
  r.note("pkt_rate_mpps", rate / 1e6, "Mpps");
  r.note("burst_p50_us", percentile(bursts, 50.0), "us");
  r.note("burst_p99_us", percentile(bursts, 99.0), "us");
  r.note("publish_p50_ms", p50, "ms");
  r.note("publish_p99_ms", p99, "ms");
  r.note("publish_wall_p50_ms", percentile(t.publish_wall_ms, 50.0), "ms");
  r.note("publish_wall_p99_ms", percentile(t.publish_wall_ms, 99.0), "ms");
  r.note("publishes_slept", static_cast<double>(t.publishes_slept), "count");
  r.note("publishes", static_cast<double>(t.publish_ms.size()), "count");
  r.note("bursts", static_cast<double>(burst_count), "count");
  r.note("refused_packets", static_cast<double>(t.refused), "count");

  if (!args.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("rss_mb", rss, "MB");
    r.set("rate_per_s", rate, "1/s");
    r.set("lat_p50_ms", p50, "ms");
    r.set("lat_p99_ms", p99, "ms");
    return r;
  }

  const auto s = trace::summarize();
  const auto& batch = s.name("lb.MuxPool::on_batch");
  const double pkts = static_cast<double>(t.offered + t.offered_fins);
  r.set("lb.batch_ns_per_pkt",
        static_cast<double>(batch.total_ns) /
            static_cast<double>(batch.calls * kBurst),
        "ns");
  r.set("lb.stateless_share", static_cast<double>(t.stateless_picks) / pkts, "share");
  r.set("lb.exception_pin_share", static_cast<double>(t.exception_pins) / pkts,
        "share");
  r.set("lb.program_ms", median(t.publish_ms), "ms");
  r.set("lb.maglev_build_ms", median(t.build_ms), "ms");
  r.set("lb.fail_backend_ms", median(t.fail_ms), "ms");
  r.set("lb.poll_ms", median(t.poll_ms), "ms");
  r.set("lb.pending_retired_peak", static_cast<double>(t.pending_peak), "count");
  r.set("lb.commit_lag_ms", percentile(t.lag_ms, 99.0), "ms");
  r.set("lb.no_backend_drops", static_cast<double>(t.refused), "count");
  r.set("lb.affinity_breaks", static_cast<double>(t.affinity_breaks), "count");
  r.set("trace.overhead_share", median(t.rates) / median(t.rates_traced) - 1.0,
        "share");
  return r;
}

}  // namespace perfbench
