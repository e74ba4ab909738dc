// dp_stream: the per-packet path at a flow table larger than the LLC.
//
// A 2-member MuxPool (Maglev, default stateful flow table) fronts 64
// equal-weight DIPs, each a sink node on the real fabric. One thread keeps
// ~1M concurrent flows open; each flow sends a seeded number of requests
// (uniform 1..7, mean 4) and then a FIN, after which its slot reopens as a
// new flow. The run is split into segments, each on a freshly built and
// prefilled pool. Every burst of 32 packets is drawn from random slots, pushed
// through MuxPool::on_batch, and the fabric delivers it with
// Simulation::run_until (20 virtual microseconds per burst). Closed loop:
// the next burst is built when the previous one has been delivered.
//
// Checks: every delivered packet reaches the sink its tuple's Maglev slot
// names; forwarded + refused = offered; every FIN reaches a sink; the flow
// table is empty once the final FINs are in; no packet is unreachable.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "lb/maglev.hpp"
#include "lb/mux_pool.hpp"
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
constexpr std::size_t kFlows = std::size_t{1} << 20;
constexpr double kWindowS = 0.25;
constexpr std::size_t kSegments = 3;
const util::SimTime kBurstGap = util::SimTime::micros(20);
const net::IpAddr kVip{10, 0, 0, 1};

net::IpAddr dip_addr(std::size_t d) {
  return net::IpAddr(static_cast<std::uint32_t>(0x0a010000 + d));
}

net::FiveTuple tuple_of(std::uint64_t id) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(static_cast<std::uint32_t>(0x0b000000 + id / 50'000));
  t.dst_ip = kVip;
  t.src_port = static_cast<std::uint16_t>(10'000 + id % 50'000);
  t.dst_port = 80;
  return t;
}

/// A DIP that checks every delivered packet against the Maglev table.
struct Sink final : net::Node {
  std::uint32_t addr = 0;
  const lb::MaglevTable* table = nullptr;
  std::uint64_t requests = 0;
  std::uint64_t fins = 0;
  std::uint64_t misrouted = 0;

  void take(const net::Message& m) {
    if (table->lookup_id(net::hash_tuple(m.tuple)) != addr) ++misrouted;
    if (m.type == net::MsgType::kFin) {
      ++fins;
    } else {
      ++requests;
    }
  }
  void on_message(const net::Message& m) override { take(m); }
  void on_batch(const net::Message* const* msgs, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) take(*msgs[i]);
  }
};

lb::FlowTableConfig flow_config() {
  lb::FlowTableConfig cfg;
  cfg.expected_flows = kFlows;
  return cfg;
}

struct Bed {
  explicit Bed(std::uint64_t seed)
      : sim(seed), net(sim), sinks(kDips),
        pool(net, kVip, kMembers, lb::MaglevTable::kDefaultMinSize,
             flow_config()),
        rng(seed ^ 0x5eedu), id(kFlows), sent(kFlows), total(kFlows) {
    lb::PoolProgram program(pool.issue_version());
    for (std::size_t d = 0; d < kDips; ++d)
      program.add(dip_addr(d), util::kWeightScale / kDips);
    pool.apply_program(program);
    table = pool.table_snapshot(0);
    for (std::size_t d = 0; d < kDips; ++d) {
      sinks[d].addr = dip_addr(d).value();
      sinks[d].table = table.get();
      net.attach(dip_addr(d), &sinks[d]);
    }
    for (std::size_t i = 0; i < kBurst; ++i) ptrs[i] = &burst[i];
    // Open every slot's flow, each at a random point of its life, so the
    // measured loop starts in its steady mix of opens, requests and FINs.
    for (std::size_t s = 0; s < kFlows; ++s) {
      reopen(s);
      sent[s] = static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{total[s]}));
    }
    for (std::size_t s = 0; s < kFlows; s += kBurst) {
      for (std::size_t i = 0; i < kBurst; ++i) stage_request(i, s + i);
      pool.on_batch(ptrs.data(), kBurst);
      sim.run_until(sim.now() + kBurstGap);
    }
    sim.run_all();
  }

  void reopen(std::size_t s) {
    id[s] = static_cast<std::uint32_t>(next_id++);
    sent[s] = 0;
    total[s] = static_cast<std::uint8_t>(1 + rng.uniform_int(std::uint64_t{7}));
  }

  void stage_request(std::size_t i, std::size_t s) {
    auto& m = burst[i];
    m.type = net::MsgType::kHttpRequest;
    m.tuple = tuple_of(id[s]);
    m.conn_id = id[s];
    m.req_id = ++sent[s];
    ++offered_requests;
  }

  void stage_fin(std::size_t i, std::size_t s) {
    auto& m = burst[i];
    m.type = net::MsgType::kFin;
    m.tuple = tuple_of(id[s]);
    m.conn_id = id[s];
    m.req_id = 0;
    ++offered_fins;
  }

  /// Fill the burst from random slots: a flow with requests left sends
  /// one, a finished flow sends its FIN and its slot reopens.
  void stage_random_burst() {
    for (std::size_t i = 0; i < kBurst; ++i) {
      const auto s = static_cast<std::size_t>(rng.next() & (kFlows - 1));
      if (sent[s] < total[s]) {
        stage_request(i, s);
      } else {
        stage_fin(i, s);
        reopen(s);
      }
    }
  }

  std::uint64_t delivered_requests() const {
    std::uint64_t n = 0;
    for (const auto& s : sinks) n += s.requests;
    return n;
  }

  sim::Simulation sim;
  net::Network net;
  std::vector<Sink> sinks;
  lb::MuxPool pool;
  std::shared_ptr<const lb::MaglevTable> table;
  util::Rng rng;
  std::vector<std::uint32_t> id;
  std::vector<std::uint8_t> sent;
  std::vector<std::uint8_t> total;
  std::uint64_t next_id = 0;
  std::array<net::Message, kBurst> burst{};
  std::array<const net::Message*, kBurst> ptrs{};
  std::uint64_t offered_requests = 0;
  std::uint64_t offered_fins = 0;
};

struct Window {
  double seconds = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  double burst_p99_us = 0.0;
  bool traced = false;
};

/// Counters of one segment's measured loop, summed over segments.
struct Tally {
  std::uint64_t conns = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t flow_bytes = 0;
  std::size_t live_flows = 0;

  static Tally of(const Bed& b) {
    Tally t;
    for (std::size_t k = 0; k < kMembers; ++k) {
      t.cache_hits += b.pool.mux(k).flow_table().stats().cache_hits;
      t.cache_misses += b.pool.mux(k).flow_table().stats().cache_misses;
    }
    for (std::size_t d = 0; d < kDips; ++d) t.conns += b.pool.new_connections_to(dip_addr(d));
    t.flow_bytes = b.pool.flow_memory().approx_bytes;
    t.live_flows = b.pool.affinity_size();
    return t;
  }
};

/// The closed loop for `seconds`: random bursts through the pool, each
/// delivered by the fabric. Traced runs alternate traced and untraced
/// windows, so the tracing overhead is measured under the same host
/// conditions.
void measure(Bed& b, double seconds, bool trace, Samples& burst_us,
             std::vector<Window>& windows) {
  Window win;
  win.traced = trace && windows.size() % 2 == 0;
  trace::set_enabled(win.traced);
  std::uint64_t burst_no = 0;
  // This window's burst times, for its own p99: a vCPU stall on a shared
  // host lands in one window's tail instead of the whole run's.
  std::vector<double> win_bursts;
  win_bursts.reserve(std::size_t{1} << 16);
  const auto start = Clock::now();
  auto win_start = start;
  for (;;) {
    b.stage_random_burst();
    trace::set_tag(++burst_no);
    const auto t0 = Clock::now();
    {
      Span span(Layer::kLb, "lb.MuxPool::on_batch");
      b.pool.on_batch(b.ptrs.data(), kBurst);
    }
    const auto t1 = Clock::now();
    {
      Span span(Layer::kSim, "sim.Simulation::run_until");
      win.events += b.sim.run_until(b.sim.now() + kBurstGap);
    }
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    burst_us.add(us);
    win_bursts.push_back(us);
    win.packets += kBurst;
    const auto now = Clock::now();
    win.seconds = std::chrono::duration<double>(now - win_start).count();
    if (win.seconds >= kWindowS) {
      win.burst_p99_us = percentile(win_bursts, 99.0);
      win_bursts.clear();
      windows.push_back(win);
      win = Window{};
      win.traced = trace && windows.size() % 2 == 0;
      trace::set_enabled(win.traced);
      win_start = now;
      if (std::chrono::duration<double>(now - start).count() >= seconds) break;
    }
  }
  trace::set_enabled(false);
}

/// Close every open flow, deliver everything, and check the segment.
void close_and_check(Bed& b, Result& r, const std::string& tag) {
  std::size_t staged = 0;
  auto flush = [&] {
    if (staged == 0) return;
    b.pool.on_batch(b.ptrs.data(), staged);
    b.sim.run_until(b.sim.now() + kBurstGap);
    staged = 0;
  };
  for (std::size_t s = 0; s < kFlows; ++s) {
    if (b.sent[s] == 0) continue;  // reopened, never sent: no state anywhere
    b.stage_fin(staged++, s);
    if (staged == kBurst) flush();
  }
  flush();
  b.sim.run_all();

  std::uint64_t misrouted = 0, fins = 0;
  for (const auto& s : b.sinks) {
    misrouted += s.misrouted;
    fins += s.fins;
  }
  const auto refused = b.pool.no_backend_drops();
  const auto unreachable = b.net.messages_unreachable();
  r.check(misrouted == 0, tag + std::to_string(misrouted) +
                              " packets reached a DIP other than the one "
                              "their Maglev slot names");
  r.check(b.delivered_requests() + refused == b.offered_requests,
          tag + "requests delivered + refused (" +
              std::to_string(b.delivered_requests() + refused) +
              ") != offered (" + std::to_string(b.offered_requests) + ")");
  r.check(fins == b.offered_fins, tag + "FINs delivered (" + std::to_string(fins) +
                                      ") != FINs sent (" +
                                      std::to_string(b.offered_fins) + ")");
  r.check(b.pool.affinity_size() == 0,
          tag + "flow table holds " + std::to_string(b.pool.affinity_size()) +
              " entries after the final FINs");
  r.check(unreachable == 0, tag + std::to_string(unreachable) + " packets unreachable");
  r.attempted += b.offered_requests;
  r.failed += refused + unreachable;
}

}  // namespace

Result run_dp_stream(const Args& args) {
  Result r;
  Samples burst_us;
  std::vector<Window> windows;
  std::vector<double> setups;
  Tally tally;
  double rss = 0.0;
  // Each segment builds its own pool and flow table: run-to-run spread on
  // this host comes largely from where one table lands in memory, and the
  // segments average over several placements.
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    const auto t0 = Clock::now();
    auto bed = std::make_unique<Bed>(args.seed * kSegments + seg);
    setups.push_back(seconds_since(t0));
    const auto before = Tally::of(*bed);
    measure(*bed, args.seconds / kSegments, args.trace, burst_us, windows);
    // Peak footprint of the measured loop, before any post-processing.
    rss = peak_rss_mb();
    const auto after = Tally::of(*bed);
    tally.conns += after.conns - before.conns;
    tally.cache_hits += after.cache_hits - before.cache_hits;
    tally.cache_misses += after.cache_misses - before.cache_misses;
    tally.flow_bytes = std::max(tally.flow_bytes, after.flow_bytes);
    tally.live_flows = after.live_flows;
    close_and_check(*bed, r, "segment " + std::to_string(seg) + ": ");
  }

  std::vector<double> rates, rates_traced, window_p99s;
  std::uint64_t packets = 0, packets_traced = 0, events_traced = 0;
  for (const auto& w : windows) {
    const double rate = static_cast<double>(w.packets) / w.seconds;
    (w.traced ? rates_traced : rates).push_back(rate);
    if (!w.traced) window_p99s.push_back(w.burst_p99_us);
    packets += w.packets;
    if (w.traced) {
      packets_traced += w.packets;
      events_traced += w.events;
    }
  }
  const double setup_s = median(setups);
  const double rate = median(rates);
  const auto bursts = burst_us.values();
  const double p50_us = percentile(bursts, 50.0);
  const double p99_us = median(window_p99s);

  r.note("setup_s", setup_s, "s");
  r.note("rss_mb", rss, "MB");
  r.note("fail_share", static_cast<double>(r.failed) / static_cast<double>(r.attempted),
         "share");
  r.note("pkt_rate_mpps", rate / 1e6, "Mpps");
  r.note("burst_p50_us", p50_us, "us");
  r.note("burst_p99_us", p99_us, "us");
  r.note("bursts", static_cast<double>(burst_us.seen()), "count");
  r.note("concurrent_flows", static_cast<double>(tally.live_flows), "count");

  if (!args.trace) {
    r.set("setup_s", setup_s, "s");
    r.set("rss_mb", rss, "MB");
    r.set("rate_per_s", rate, "1/s");
    r.set("lat_p50_ms", p50_us / 1e3, "ms");
    r.set("lat_p99_ms", p99_us / 1e3, "ms");
    return r;
  }

  const auto s = trace::summarize();
  const double pkts = static_cast<double>(packets_traced);
  r.set("lb.batch_ns_per_pkt",
        static_cast<double>(s.name("lb.MuxPool::on_batch").total_ns) / pkts,
        "ns");
  r.set("sim.deliver_ns_per_pkt",
        static_cast<double>(s.name("sim.Simulation::run_until").total_ns) / pkts,
        "ns");
  r.set("net.events_per_pkt", static_cast<double>(events_traced) / pkts,
        "events/pkt");
  r.set("lb.fresh_pick_share",
        static_cast<double>(tally.conns) / static_cast<double>(packets), "share");
  r.set("lb.cache_hit_share",
        tally.cache_hits + tally.cache_misses == 0
            ? 0.0
            : static_cast<double>(tally.cache_hits) /
                  static_cast<double>(tally.cache_hits + tally.cache_misses),
        "share");
  r.set("lb.flow_table_bytes", static_cast<double>(tally.flow_bytes), "B");
  r.set("trace.overhead_share", median(rates) / median(rates_traced) - 1.0,
        "share");
  return r;
}

}  // namespace perfbench
