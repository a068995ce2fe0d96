#include "rtf/correlation_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crowdrtse::rtf {
namespace {

// A 4-road path graph: tables are 4x4 = 128 bytes of payload, so byte
// budgets in the tests below are easy to reason about.
constexpr std::size_t kTableBytes = 4 * 4 * sizeof(double);

graph::Graph TestGraph() { return *graph::PathNetwork(4); }

CorrelationCache::ComputeFn CountingCompute(const graph::Graph& graph,
                                            std::atomic<int>* count) {
  return [&graph, count](int) {
    count->fetch_add(1);
    return CorrelationTable::FromEdgeCorrelations(graph, {0.9, 0.8, 0.7});
  };
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/corr_cache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(CorrelationCacheTest, MissThenHitReturnsSameTable) {
  const graph::Graph g = TestGraph();
  std::atomic<int> computes{0};
  CorrelationCache cache;
  const auto first = cache.GetOrCompute(3, CountingCompute(g, &computes));
  const auto second = cache.GetOrCompute(3, CountingCompute(g, &computes));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);  // same shared table
  EXPECT_EQ(computes.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.resident_tables, 1);
  EXPECT_EQ(stats.resident_bytes, static_cast<int64_t>(kTableBytes));
  EXPECT_EQ(stats.compute_latency.count, 1);
}

TEST(CorrelationCacheTest, RejectsNegativeSlot) {
  const graph::Graph g = TestGraph();
  std::atomic<int> computes{0};
  CorrelationCache cache;
  EXPECT_FALSE(cache.GetOrCompute(-1, CountingCompute(g, &computes)).ok());
  EXPECT_EQ(computes.load(), 0);
}

TEST(CorrelationCacheTest, ColdSlotDoesNotBlockOtherSlots) {
  // Thread A gets stuck *inside* the slot-0 computation; while it is stuck,
  // slot 1 must still be servable from this thread. Under the old
  // one-global-mutex design this test deadlocks.
  const graph::Graph g = TestGraph();
  CorrelationCache cache;
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> slot0_entered{false};

  std::thread blocked([&] {
    const auto result =
        cache.GetOrCompute(0, [&](int) {
          slot0_entered = true;
          gate.wait();
          return CorrelationTable::FromEdgeCorrelations(g, {0.5, 0.5, 0.5});
        });
    EXPECT_TRUE(result.ok());
  });
  while (!slot0_entered.load()) std::this_thread::yield();

  std::atomic<int> computes{0};
  const auto other = cache.GetOrCompute(1, CountingCompute(g, &computes));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(computes.load(), 1);
  EXPECT_TRUE(slot0_entered.load());

  release.set_value();
  blocked.join();
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(CorrelationCacheTest, DisjointColdSlotsComputeConcurrently) {
  // Every thread's compute spins until all four threads are inside their
  // computation at once — possible only if disjoint cold slots really run
  // in parallel. A serializing cache would never release the barrier.
  constexpr int kThreads = 4;
  const graph::Graph g = TestGraph();
  CorrelationCache cache;
  std::atomic<int> inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto result =
          cache.GetOrCompute(t, [&](int) {
            inside.fetch_add(1);
            while (inside.load() < kThreads) std::this_thread::yield();
            return CorrelationTable::FromEdgeCorrelations(g,
                                                          {0.9, 0.8, 0.7});
          });
      EXPECT_TRUE(result.ok());
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, kThreads);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.resident_tables, kThreads);
}

TEST(CorrelationCacheTest, SameSlotFirstTouchesComputeExactlyOnce) {
  constexpr int kThreads = 8;
  const graph::Graph g = TestGraph();
  CorrelationCache cache;
  std::atomic<int> computes{0};
  std::atomic<bool> entered{false};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  // The winning thread blocks inside the compute until every other thread
  // has had a chance to pile onto the same slot.
  const auto compute = [&](int) {
    computes.fetch_add(1);
    entered = true;
    gate.wait();
    return CorrelationTable::FromEdgeCorrelations(g, {0.9, 0.8, 0.7});
  };
  std::vector<std::thread> threads;
  std::atomic<int> started{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      started.fetch_add(1);
      const auto result = cache.GetOrCompute(42, compute);
      EXPECT_TRUE(result.ok());
    });
  }
  while (!entered.load() || started.load() < kThreads) {
    std::this_thread::yield();
  }
  release.set_value();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

TEST(CorrelationCacheTest, ComputeErrorsPropagateButAreNotCached) {
  const graph::Graph g = TestGraph();
  CorrelationCache cache;
  std::atomic<int> calls{0};
  const auto failing = [&](int)
      -> util::Result<CorrelationTable> {
    calls.fetch_add(1);
    return util::Status::NumericalError("flaky");
  };
  EXPECT_FALSE(cache.GetOrCompute(0, failing).ok());
  EXPECT_EQ(calls.load(), 1);
  // The error is not cached: the next call retries and can succeed.
  std::atomic<int> computes{0};
  EXPECT_TRUE(cache.GetOrCompute(0, CountingCompute(g, &computes)).ok());
  EXPECT_EQ(computes.load(), 1);
}

TEST(CorrelationCacheTest, EvictionRespectsByteBudget) {
  const graph::Graph g = TestGraph();
  CorrelationCacheOptions options;
  options.memory_budget_bytes = 2 * kTableBytes;
  CorrelationCache cache(options);
  std::atomic<int> computes{0};
  ASSERT_TRUE(cache.GetOrCompute(0, CountingCompute(g, &computes)).ok());
  ASSERT_TRUE(cache.GetOrCompute(1, CountingCompute(g, &computes)).ok());
  ASSERT_TRUE(cache.GetOrCompute(2, CountingCompute(g, &computes)).ok());
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.resident_tables, 2);
  EXPECT_LE(stats.resident_bytes,
            static_cast<int64_t>(options.memory_budget_bytes));
  // Slot 0 was least-recently used; touching it again recomputes a correct
  // table.
  const auto again = cache.GetOrCompute(0, CountingCompute(g, &computes));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(computes.load(), 4);
  EXPECT_DOUBLE_EQ((*again)->Corr(0, 1), 0.9);
  EXPECT_DOUBLE_EQ((*again)->Corr(0, 0), 1.0);
}

TEST(CorrelationCacheTest, HitsRefreshLruOrder) {
  const graph::Graph g = TestGraph();
  CorrelationCacheOptions options;
  options.memory_budget_bytes = 2 * kTableBytes;
  CorrelationCache cache(options);
  std::atomic<int> computes{0};
  ASSERT_TRUE(cache.GetOrCompute(0, CountingCompute(g, &computes)).ok());
  ASSERT_TRUE(cache.GetOrCompute(1, CountingCompute(g, &computes)).ok());
  ASSERT_TRUE(cache.GetOrCompute(0, CountingCompute(g, &computes)).ok());
  // Slot 1 is now the LRU victim.
  ASSERT_TRUE(cache.GetOrCompute(2, CountingCompute(g, &computes)).ok());
  EXPECT_EQ(computes.load(), 3);
  ASSERT_TRUE(cache.GetOrCompute(0, CountingCompute(g, &computes)).ok());
  EXPECT_EQ(computes.load(), 3);  // still resident
  ASSERT_TRUE(cache.GetOrCompute(1, CountingCompute(g, &computes)).ok());
  EXPECT_EQ(computes.load(), 4);  // evicted, recomputed
}

TEST(CorrelationCacheTest, BudgetBelowOneTableKeepsTheNewestTable) {
  const graph::Graph g = TestGraph();
  CorrelationCacheOptions options;
  options.memory_budget_bytes = kTableBytes / 2;
  CorrelationCache cache(options);
  std::atomic<int> computes{0};
  ASSERT_TRUE(cache.GetOrCompute(0, CountingCompute(g, &computes)).ok());
  EXPECT_EQ(cache.stats().resident_tables, 1);
  ASSERT_TRUE(cache.GetOrCompute(1, CountingCompute(g, &computes)).ok());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.resident_tables, 1);
  EXPECT_EQ(stats.evictions, 1);
}

TEST(CorrelationCacheTest, EvictionDoesNotInvalidateHeldTables) {
  const graph::Graph g = TestGraph();
  CorrelationCacheOptions options;
  options.memory_budget_bytes = kTableBytes;  // one table resident at most
  CorrelationCache cache(options);
  std::atomic<int> computes{0};
  const auto held = cache.GetOrCompute(0, CountingCompute(g, &computes));
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(cache.GetOrCompute(1, CountingCompute(g, &computes)).ok());
  EXPECT_EQ(cache.stats().evictions, 1);
  // The reader's shared_ptr outlives the eviction.
  EXPECT_DOUBLE_EQ((*held)->Corr(0, 1), 0.9);
}

TEST(CorrelationCacheTest, PersistsAndWarmStartsAcrossInstances) {
  const graph::Graph g = TestGraph();
  const std::string dir = FreshDir("warm");
  CorrelationCacheOptions options;
  options.persist_dir = dir;
  options.expected_num_roads = g.num_roads();
  std::atomic<int> computes{0};
  {
    CorrelationCache cache(options);
    ASSERT_TRUE(cache.GetOrCompute(3, CountingCompute(g, &computes)).ok());
    EXPECT_EQ(computes.load(), 1);
    EXPECT_TRUE(std::filesystem::exists(cache.PersistPath(3)));
  }
  {
    // Eager warm start: the restarted cache reloads slot 3 and never calls
    // the compute function again.
    CorrelationCache cache(options);
    EXPECT_EQ(cache.WarmStart(/*num_slots=*/8), 1);
    std::atomic<int> cold_computes{0};
    const auto table =
        cache.GetOrCompute(3, CountingCompute(g, &cold_computes));
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(cold_computes.load(), 0);
    EXPECT_DOUBLE_EQ((*table)->Corr(0, 1), 0.9);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.warm_loads, 1);
    EXPECT_EQ(stats.hits, 1);
  }
  {
    // Lazy path: no WarmStart, the miss itself loads from disk.
    CorrelationCache cache(options);
    std::atomic<int> cold_computes{0};
    const auto table =
        cache.GetOrCompute(3, CountingCompute(g, &cold_computes));
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(cold_computes.load(), 0);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.warm_loads, 1);
    EXPECT_EQ(stats.misses, 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(CorrelationCacheTest, CorruptedPersistedFileFallsBackToCompute) {
  const graph::Graph g = TestGraph();
  const std::string dir = FreshDir("corrupt");
  CorrelationCacheOptions options;
  options.persist_dir = dir;
  options.expected_num_roads = g.num_roads();
  std::atomic<int> computes{0};
  {
    CorrelationCache cache(options);
    ASSERT_TRUE(cache.GetOrCompute(5, CountingCompute(g, &computes)).ok());
  }
  {
    // Truncate the persisted file mid-payload.
    CorrelationCache probe(options);
    const std::string path = probe.PersistPath(5);
    const auto full_size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full_size / 2);
  }
  {
    CorrelationCache cache(options);
    EXPECT_EQ(cache.WarmStart(8), 0);
    const auto table = cache.GetOrCompute(5, CountingCompute(g, &computes));
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(computes.load(), 2);  // recomputed, not misparsed
    EXPECT_GE(cache.stats().persist_failures, 1);
    EXPECT_DOUBLE_EQ((*table)->Corr(0, 1), 0.9);
  }
  {
    // Scribble garbage over the (re-persisted) file.
    CorrelationCache probe(options);
    std::ofstream out(probe.PersistPath(5), std::ios::binary);
    out << "not a gamma table";
  }
  {
    CorrelationCache cache(options);
    const auto table = cache.GetOrCompute(5, CountingCompute(g, &computes));
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(computes.load(), 3);
    EXPECT_GE(cache.stats().persist_failures, 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(CorrelationCacheTest, MismatchedRoadCountRejectsPersistedFile) {
  const graph::Graph g = TestGraph();
  const std::string dir = FreshDir("mismatch");
  CorrelationCacheOptions options;
  options.persist_dir = dir;
  options.expected_num_roads = g.num_roads();
  std::atomic<int> computes{0};
  {
    CorrelationCache cache(options);
    ASSERT_TRUE(cache.GetOrCompute(0, CountingCompute(g, &computes)).ok());
  }
  CorrelationCacheOptions other = options;
  other.expected_num_roads = 7;  // pretend the network changed
  CorrelationCache cache(other);
  const auto table = cache.GetOrCompute(0, [&](int) {
    computes.fetch_add(1);
    return CorrelationTable::FromEdgeCorrelations(
        *graph::PathNetwork(7), {0.9, 0.8, 0.7, 0.6, 0.5, 0.4});
  });
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_roads(), 7);
  EXPECT_EQ(computes.load(), 2);
  EXPECT_GE(cache.stats().persist_failures, 1);
  std::filesystem::remove_all(dir);
}

TEST(CorrelationCacheTest, InvalidateDropsTableAndPersistedFile) {
  const graph::Graph g = TestGraph();
  const std::string dir = FreshDir("invalidate");
  CorrelationCacheOptions options;
  options.persist_dir = dir;
  CorrelationCache cache(options);
  std::atomic<int> computes{0};
  ASSERT_TRUE(cache.GetOrCompute(2, CountingCompute(g, &computes)).ok());
  ASSERT_TRUE(std::filesystem::exists(cache.PersistPath(2)));
  cache.Invalidate(2);
  EXPECT_FALSE(std::filesystem::exists(cache.PersistPath(2)));
  EXPECT_EQ(cache.stats().resident_tables, 0);
  ASSERT_TRUE(cache.GetOrCompute(2, CountingCompute(g, &computes)).ok());
  EXPECT_EQ(computes.load(), 2);
  std::filesystem::remove_all(dir);
}

TEST(CorrelationCacheTest, InvalidateDuringComputeDiscardsStaleResult) {
  // Invalidate lands while slot 0's compute is in flight. The stale result
  // (built with rho 0.9) must be discarded — neither cached nor persisted —
  // and both the computing thread and a coalesced waiter must end up with a
  // table built from the post-invalidation parameters (rho 0.5). The waiter
  // exercises the retry path: it wakes to a null table with an OK status
  // (the old code wrapped that OK status in a failed Result).
  const graph::Graph g = TestGraph();
  const std::string dir = FreshDir("stale");
  CorrelationCacheOptions options;
  options.persist_dir = dir;
  CorrelationCache cache(options);
  std::atomic<int> computes{0};
  std::atomic<bool> entered{false};
  std::atomic<bool> invalidated{false};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  const auto compute = [&](int) {
    const double rho = invalidated.load() ? 0.5 : 0.9;
    if (computes.fetch_add(1) == 0) {
      entered = true;
      gate.wait();  // hold the first (pre-invalidation) compute open
    }
    return CorrelationTable::FromEdgeCorrelations(g, {rho, rho, rho});
  };
  std::thread computer([&] {
    const auto result = cache.GetOrCompute(0, compute);
    EXPECT_TRUE(result.ok());
    if (result.ok()) EXPECT_DOUBLE_EQ((*result)->Corr(0, 1), 0.5);
  });
  while (!entered.load()) std::this_thread::yield();
  std::thread waiter([&] {
    const auto result = cache.GetOrCompute(0, compute);
    EXPECT_TRUE(result.ok());
    if (result.ok()) EXPECT_DOUBLE_EQ((*result)->Corr(0, 1), 0.5);
  });
  while (cache.stats().coalesced < 1) std::this_thread::yield();
  cache.Invalidate(0);
  invalidated = true;
  release.set_value();
  computer.join();
  waiter.join();
  // Exactly one retry compute: the discarded first flight plus one fresh
  // one (the other thread coalesces onto it or hits the installed table).
  EXPECT_EQ(computes.load(), 2);
  // Only the fresh table was persisted.
  CorrelationCache reload(options);
  std::atomic<int> cold_computes{0};
  const auto table = reload.GetOrCompute(0, CountingCompute(g, &cold_computes));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(cold_computes.load(), 0);
  EXPECT_DOUBLE_EQ((*table)->Corr(0, 1), 0.5);
  std::filesystem::remove_all(dir);
}

TEST(CorrelationCacheTest, ConcurrentStressDisjointAndSharedSlots) {
  // 8 threads hammering a mix of shared and private slots with real
  // computations (and the Dijkstra fan-out pool enabled): every result must
  // be a valid table and every slot computed at most... once per eviction —
  // with an unlimited budget, exactly once.
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  util::Rng rng(7);
  graph::RoadNetworkOptions net;
  net.num_roads = 40;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  std::vector<double> rho(static_cast<size_t>(g.num_edges()), 0.8);
  CorrelationCache cache;
  std::atomic<int> computes{0};
  const auto compute = [&](int) {
    computes.fetch_add(1);
    return CorrelationTable::FromEdgeCorrelations(
        g, rho, PathWeightMode::kNegLog, &util::ThreadPool::Shared());
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int slot = (round % 2 == 0) ? 0 : (t + 1);  // shared + private
        const auto table = cache.GetOrCompute(slot, compute);
        ASSERT_TRUE(table.ok());
        ASSERT_EQ((*table)->num_roads(), g.num_roads());
        EXPECT_DOUBLE_EQ((*table)->Corr(0, 0), 1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // One shared slot + one private slot per thread, each computed once.
  EXPECT_EQ(computes.load(), kThreads + 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, kThreads + 1);
  EXPECT_EQ(stats.resident_tables, kThreads + 1);
}

}  // namespace
}  // namespace crowdrtse::rtf
