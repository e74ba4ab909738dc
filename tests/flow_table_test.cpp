// Sharded flow table + flow cache (ISSUE 5): shard distribution
// uniformity, cache epoch invalidation (a cached pick must never resurrect
// a tombstoned DIP), GC under concurrent insert, and the Mux-level
// affinity invariants — cross-shard drain completion and the
// flows_dropped_by_removal accounting — on top of the new table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "lb/flow_table.hpp"
#include "lb/mux.hpp"
#include "lb/policy.hpp"
#include "lb/pool_program.hpp"
#include "util/weight.hpp"

namespace klb::lb {
namespace {

using namespace util::literals;

/// Distinct tuples spread over ports and client addresses.
net::FiveTuple flow_tuple(std::uint64_t i) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr(static_cast<std::uint32_t>(0x0a020000 + i / 50'000));
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = static_cast<std::uint16_t>(10'000 + i % 50'000);
  t.dst_port = 80;
  return t;
}

TEST(FlowTable, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlowTable(FlowTableConfig{1, 0}).shard_count(), 1u);
  EXPECT_EQ(FlowTable(FlowTableConfig{5, 0}).shard_count(), 8u);
  EXPECT_EQ(FlowTable(FlowTableConfig{16, 0}).shard_count(), 16u);
  EXPECT_EQ(FlowTable(FlowTableConfig{0, 0}).shard_count(), 1u);
}

TEST(FlowTable, ShardDistributionIsUniform) {
  FlowTable table(FlowTableConfig{16, 0});
  const std::size_t flows = 64'000;
  for (std::uint64_t i = 0; i < flows; ++i)
    table.try_insert(flow_tuple(i), i % 7, util::SimTime::zero(), false);
  ASSERT_EQ(table.size(), flows);
  const double mean =
      static_cast<double>(flows) / static_cast<double>(table.shard_count());
  for (std::size_t k = 0; k < table.shard_count(); ++k) {
    const auto n = static_cast<double>(table.shard_size(k));
    EXPECT_GT(n, 0.8 * mean) << "shard " << k << " underloaded";
    EXPECT_LT(n, 1.2 * mean) << "shard " << k << " overloaded";
  }
}

TEST(FlowTable, PinLifecycleAndRaceSemantics) {
  FlowTable table;
  const auto t = flow_tuple(1);
  EXPECT_EQ(table.lookup(t, 0_s).kind, FlowHit::Kind::kMiss);

  auto [owner, fresh] = table.try_insert(t, 42, 0_s, false);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(owner, 42u);
  // A concurrent same-tuple packet that lost the race keeps the winner.
  auto [owner2, fresh2] = table.try_insert(t, 99, 1_s, false);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(owner2, 42u);

  const auto hit = table.lookup(t, 2_s);
  EXPECT_EQ(hit.kind, FlowHit::Kind::kAffinity);
  EXPECT_EQ(hit.backend_id, 42u);

  EXPECT_EQ(table.erase(t), std::optional<std::uint64_t>(42));
  EXPECT_EQ(table.erase(t), std::nullopt);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, CachedPickServedUntilEpochBump) {
  FlowTable table(FlowTableConfig{4, 64});
  const auto t = flow_tuple(7);
  table.try_insert(t, 5, 0_s, /*cache_pick=*/true);
  table.erase(t);

  // The pin is gone but the cached pick survives the FIN...
  const auto hit = table.lookup(t, 1_s);
  EXPECT_EQ(hit.kind, FlowHit::Kind::kCachedPick);
  EXPECT_EQ(hit.backend_id, 5u);
  EXPECT_GE(table.stats().cache_hits, 1u);

  // ...until any pool mutation bumps the epoch: the stale pick must never
  // resurrect a backend the pool no longer serves.
  table.invalidate_picks();
  EXPECT_EQ(table.lookup(t, 2_s).kind, FlowHit::Kind::kMiss);
  EXPECT_EQ(table.stats().pick_invalidations, 1u);
}

TEST(FlowTable, CacheDisabledNeverServesPicks) {
  FlowTable table(FlowTableConfig{4, 0});
  const auto t = flow_tuple(3);
  table.try_insert(t, 5, 0_s, /*cache_pick=*/true);
  table.erase(t);
  EXPECT_EQ(table.lookup(t, 1_s).kind, FlowHit::Kind::kMiss);
  EXPECT_EQ(table.stats().cache_hits, 0u);
}

TEST(FlowTable, EraseBackendDropsEveryPinnedFlow) {
  FlowTable table(FlowTableConfig{8, 0});
  for (std::uint64_t i = 0; i < 300; ++i)
    table.try_insert(flow_tuple(i), i % 3, 0_s, false);
  EXPECT_EQ(table.erase_backend(1), 100u);
  EXPECT_EQ(table.size(), 200u);
  table.for_each([](const net::FiveTuple&, std::uint64_t id, util::SimTime) {
    EXPECT_NE(id, 1u);
  });
}

TEST(FlowTable, GcReclaimsDeadAndIdleShardLocally) {
  FlowTable table(FlowTableConfig{8, 0});
  // Backend 1 is dead; backend 2's flows are idle; backend 3's are fresh.
  for (std::uint64_t i = 0; i < 60; ++i)
    table.try_insert(flow_tuple(i), 1 + i % 3, i % 3 == 1 ? 1_s : 90_s, false);
  std::size_t dead = 0, idled = 0;
  const auto reclaimed = table.gc(
      100_s, 60_s, [](std::uint64_t id) { return id != 1; },
      [&](const net::FiveTuple&, std::uint64_t id, bool was_dead) {
        if (was_dead) {
          EXPECT_EQ(id, 1u);
          ++dead;
        } else {
          EXPECT_EQ(id, 2u);
          ++idled;
        }
      });
  EXPECT_EQ(reclaimed, 40u);
  EXPECT_EQ(dead, 20u);
  EXPECT_EQ(idled, 20u);
  EXPECT_EQ(table.size(), 20u);
  EXPECT_EQ(table.stats().gc_reclaimed, 40u);
}

// The reclaim callback runs after the shard lock drops: reentering the
// table from it must not deadlock (the Mux takes its pick mutex there).
TEST(FlowTable, GcReclaimCallbackMayReenterTable) {
  FlowTable table(FlowTableConfig{4, 0});
  for (std::uint64_t i = 0; i < 40; ++i)
    table.try_insert(flow_tuple(i), i % 2, 0_s, false);
  std::size_t seen = 0;
  table.gc(
      100_s, 0_s, [](std::uint64_t id) { return id != 0; },
      [&](const net::FiveTuple&, std::uint64_t, bool) {
        ++seen;
        (void)table.size();  // deadlocks if invoked under the shard lock
      });
  EXPECT_EQ(seen, 20u);
}

TEST(FlowTable, TryFindIsReadOnly) {
  FlowTable table(FlowTableConfig{4, 64});
  const auto t = flow_tuple(11);
  EXPECT_EQ(table.try_find(t), std::nullopt);
  table.try_insert(t, 7, 0_s, /*cache_pick=*/true);
  EXPECT_EQ(table.try_find(t), std::optional<std::uint64_t>(7));
  // No touch, no cache probe, no counter traffic.
  const auto before = table.stats();
  (void)table.try_find(t);
  (void)table.try_find(flow_tuple(12));
  const auto after = table.stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
}

TEST(FlowTable, ExpectedFlowsHintPreReservesShards) {
  // Hinted: the buckets for the expected population exist up front, and
  // filling to that scale never rehashes (capacity is stable).
  FlowTableConfig hinted{8, 0};
  hinted.expected_flows = 64'000;
  FlowTable table(hinted);
  std::vector<std::size_t> buckets_at_start(table.shard_count());
  for (std::size_t k = 0; k < table.shard_count(); ++k) {
    buckets_at_start[k] = table.shard_buckets(k);
    EXPECT_GE(buckets_at_start[k] * 2, 64'000u / table.shard_count())
        << "shard " << k << " not pre-reserved";
  }
  for (std::uint64_t i = 0; i < 64'000; ++i)
    table.try_insert(flow_tuple(i), i % 3, 0_s, false);
  for (std::size_t k = 0; k < table.shard_count(); ++k)
    EXPECT_EQ(table.shard_buckets(k), buckets_at_start[k])
        << "shard " << k << " rehashed despite the hint";

  // Unhinted default: starts near-empty (the hint is opt-in).
  FlowTable bare(FlowTableConfig{8, 0});
  EXPECT_LT(bare.shard_buckets(0), buckets_at_start[0]);
}

TEST(FlowTable, MemoryTracksEntriesAndBuckets) {
  FlowTable table(FlowTableConfig{4, 64});
  const auto empty = table.memory();
  EXPECT_EQ(empty.entries, 0u);
  EXPECT_GT(empty.approx_bytes, 0u);  // shard structs + cache arrays
  for (std::uint64_t i = 0; i < 10'000; ++i)
    table.try_insert(flow_tuple(i), 1, 0_s, false);
  const auto full = table.memory();
  EXPECT_EQ(full.entries, 10'000u);
  EXPECT_GT(full.buckets, 0u);
  // Each entry costs at least its node; the ratio a bench gates on is
  // driven by this growth.
  EXPECT_GE(full.approx_bytes,
            empty.approx_bytes + 10'000u * sizeof(net::FiveTuple));
}

TEST(FlowTable, BudgetedGcSweepsIncrementally) {
  FlowTableConfig cfg{1, 0};
  cfg.gc_scan_budget = 64;
  FlowTable table(cfg);
  constexpr std::uint64_t kFlows = 2'000;
  for (std::uint64_t i = 0; i < kFlows; ++i)
    table.try_insert(flow_tuple(i), i % 2, 0_s, false);

  // One budgeted call examines ~the budget, not the whole shard (bucket
  // granularity makes it approximate), and reclaims only what it saw.
  const auto alive = [](std::uint64_t id) { return id != 1; };
  const auto first = table.gc_shard(0, 0_s, util::SimTime::zero(), alive,
                                    nullptr, FlowTable::kScanBudgeted);
  const auto scanned_once = table.stats().gc_scanned;
  EXPECT_GE(scanned_once, 64u);
  EXPECT_LT(scanned_once, kFlows);
  EXPECT_LT(first, kFlows / 2);

  // Successive calls resume from the cursor and drain the shard fully.
  std::size_t reclaimed = first;
  for (int i = 0; i < 200 && reclaimed < kFlows / 2; ++i)
    reclaimed += table.gc_shard(0, 0_s, util::SimTime::zero(), alive, nullptr,
                                FlowTable::kScanBudgeted);
  EXPECT_EQ(reclaimed, kFlows / 2);
  EXPECT_EQ(table.size(), kFlows / 2);
  // An explicit full sweep overrides the budget in one call.
  for (std::uint64_t i = 0; i < kFlows; ++i)
    table.try_insert(flow_tuple(100'000 + i), 1, 0_s, false);
  EXPECT_EQ(table.gc_shard(0, 0_s, util::SimTime::zero(), alive, nullptr,
                           FlowTable::kScanAll),
            kFlows);
}

TEST(FlowTable, GcUnderConcurrentInsert) {
  FlowTable table(FlowTableConfig{16, 64});
  constexpr std::uint64_t kPerThread = 20'000;
  constexpr std::uint64_t kThreads = 4;
  std::atomic<std::uint64_t> reclaimed{0};
  std::atomic<bool> stop{false};

  // GC continuously while writers insert: odd backend ids are "dead" and
  // reclaimable the moment they land.
  std::thread gc_thread([&] {
    while (!stop.load()) {
      reclaimed.fetch_add(table.gc(
          0_s, util::SimTime::zero(),
          [](std::uint64_t id) { return id % 2 == 0; }));
    }
  });
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const auto n = w * kPerThread + i;
        table.try_insert(flow_tuple(n), n % 4, 0_s, n % 3 == 0);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  gc_thread.join();
  reclaimed.fetch_add(table.gc(
      0_s, util::SimTime::zero(),
      [](std::uint64_t id) { return id % 2 == 0; }));

  // Exactly the even-id flows survive, and the shard-local books balance:
  // every insert is either still present or was reclaimed.
  const auto st = table.stats();
  EXPECT_EQ(st.inserts, kThreads * kPerThread);
  EXPECT_EQ(st.entries, st.inserts - st.gc_reclaimed - st.erases);
  EXPECT_EQ(st.entries + reclaimed.load(), st.inserts);
  table.for_each([](const net::FiveTuple&, std::uint64_t id, util::SimTime) {
    EXPECT_EQ(id % 2, 0u);
  });
}

// --- Mux on top of the sharded table ----------------------------------------

net::FiveTuple port_tuple(std::uint16_t port) {
  net::FiveTuple t;
  t.src_ip = net::IpAddr{10, 2, 0, 1};
  t.dst_ip = net::IpAddr{10, 0, 0, 1};
  t.src_port = port;
  t.dst_port = 80;
  return t;
}

struct MuxFlowFixture {
  sim::Simulation sim{17};
  net::Network net{sim};
  net::IpAddr vip{10, 0, 0, 1};
  net::IpAddr a{10, 1, 0, 1}, b{10, 1, 0, 2};

  net::Message request(std::uint16_t port) {
    net::Message m;
    m.type = net::MsgType::kHttpRequest;
    m.tuple = port_tuple(port);
    return m;
  }
  net::Message fin(std::uint16_t port) {
    net::Message m;
    m.type = net::MsgType::kFin;
    m.tuple = port_tuple(port);
    return m;
  }
};

// A drainer's pinned flows land in many shards; the drain must complete
// exactly when the *last* flow across all shards goes — per-backend active
// counts make completion shard-local, no shard may complete it early.
TEST(MuxFlowTable, CrossShardDrainCompletion) {
  MuxFlowFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"), /*attach_to_vip=*/true,
          FlowTableConfig{8, 64});
  PoolProgram v1(1);
  v1.add(f.a, 5000).add(f.b, 5000);
  mux.apply_program(v1);

  for (std::uint16_t p = 0; p < 200; ++p) mux.on_message(f.request(p));
  const auto id_a = mux.backend_id(0);
  std::vector<std::uint16_t> pinned_to_a;
  mux.flow_table().for_each(
      [&](const net::FiveTuple& t, std::uint64_t id, util::SimTime) {
        if (id == id_a) pinned_to_a.push_back(t.src_port);
      });
  ASSERT_GT(pinned_to_a.size(), 8u);  // enough flows to span shards
  std::set<std::size_t> shards;
  for (const auto p : pinned_to_a)
    shards.insert(mux.flow_table().shard_of(port_tuple(p)));
  ASSERT_GT(shards.size(), 1u) << "drainer's flows all in one shard";

  PoolProgram v2(2);
  v2.add(f.a, 0, BackendState::kDraining).add(f.b, util::kWeightScale);
  mux.apply_program(v2);
  ASSERT_TRUE(mux.backend_draining(0));

  // FIN all but the last pinned flow: every shard but one empties, and the
  // drain must still be running.
  for (std::size_t i = 0; i + 1 < pinned_to_a.size(); ++i)
    mux.on_message(f.fin(pinned_to_a[i]));
  EXPECT_EQ(mux.backend_count(), 2u);
  EXPECT_TRUE(mux.backend_draining(0));

  mux.on_message(f.fin(pinned_to_a.back()));
  EXPECT_EQ(mux.backend_count(), 1u);
  EXPECT_EQ(mux.backend_addr(0), f.b);
  EXPECT_EQ(mux.drains_completed(), 1u);
  EXPECT_EQ(mux.flows_reset_by_failure(), 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

// The flow cache serves repeat tuples for the maglev policy — but a pool
// mutation (fail_backend here) bumps the epoch, so a cached pick can never
// steer a reconnecting client into a tombstoned DIP.
TEST(MuxFlowTable, CachedPickNeverResurrectsFailedBackend) {
  MuxFlowFixture f;
  Mux mux(f.net, f.vip, make_policy("maglev"), /*attach_to_vip=*/true,
          FlowTableConfig{8, 256});
  PoolProgram v1(1);
  v1.add(f.a, 5000).add(f.b, 5000);
  mux.apply_program(v1);

  // Find a tuple maglev routes to backend a.
  std::uint16_t port = 0;
  for (std::uint16_t p = 1; p < 2000; ++p) {
    const auto before = mux.new_connections(0);
    mux.on_message(f.request(p));
    mux.on_message(f.fin(p));
    if (mux.new_connections(0) > before) {
      port = p;
      break;
    }
  }
  ASSERT_NE(port, 0) << "no tuple hashed to backend a";

  // A reconnect of the same tuple is served from the flow cache (no pin
  // existed any more), and lands on the same backend.
  const auto hits_before = mux.flow_table().stats().cache_hits;
  const auto conns_a = mux.new_connections(0);
  mux.on_message(f.request(port));
  EXPECT_GT(mux.flow_table().stats().cache_hits, hits_before);
  EXPECT_EQ(mux.new_connections(0), conns_a + 1);
  mux.on_message(f.fin(port));

  // Kill a. The reconnect must NOT follow the cached pick into the corpse.
  ASSERT_TRUE(mux.fail_backend(f.a));
  ASSERT_EQ(mux.backend_count(), 1u);
  const auto conns_b = mux.new_connections(0);  // b is index 0 now
  mux.on_message(f.request(port));
  EXPECT_EQ(mux.new_connections(0), conns_b + 1);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
  EXPECT_EQ(mux.flows_reset_by_failure(), 0u);  // a held no pins when it died
}

// Abrupt graceful-path removal (transactional kRemoved / omission) drops
// pinned flows; before ISSUE 5 they were counted nowhere.
TEST(MuxFlowTable, RemovalDropsAreCounted) {
  MuxFlowFixture f;
  Mux mux(f.net, f.vip, make_policy("wrr"), true, FlowTableConfig{4, 0});
  PoolProgram v1(1);
  v1.add(f.a, 5000).add(f.b, 5000);
  mux.apply_program(v1);
  for (std::uint16_t p = 0; p < 100; ++p) mux.on_message(f.request(p));
  const auto pinned_a = mux.active_connections(0);
  const auto pinned_b = mux.active_connections(1);
  ASSERT_GT(pinned_a, 0u);
  ASSERT_GT(pinned_b, 0u);

  PoolProgram v2(2);  // a cut short, not drained
  v2.add(f.a, 0, BackendState::kRemoved).add(f.b, util::kWeightScale);
  mux.apply_program(v2);
  EXPECT_EQ(mux.flows_dropped_by_removal(), pinned_a);
  EXPECT_EQ(mux.flows_reset_by_failure(), 0u);

  PoolProgram v3(3);  // b omitted: same abrupt drop, same counter
  v3.add(net::IpAddr{10, 1, 0, 3}, util::kWeightScale);
  mux.apply_program(v3);
  EXPECT_EQ(mux.flows_dropped_by_removal(), pinned_a + pinned_b);
  EXPECT_EQ(mux.affinity_size(), 0u);
  EXPECT_EQ(mux.dangling_affinity_count(), 0u);
}

}  // namespace
}  // namespace klb::lb
