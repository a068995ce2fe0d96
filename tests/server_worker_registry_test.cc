#include "server/worker_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.h"

namespace crowdrtse::server {
namespace {

graph::Graph TestGraph() {
  util::Rng rng(1);
  graph::RoadNetworkOptions options;
  options.num_roads = 80;
  return *graph::RoadNetwork(options, rng);
}

TEST(WorkerRegistryTest, InitialPopulationOnValidRoads) {
  const graph::Graph g = TestGraph();
  WorkerRegistryOptions options;
  options.num_workers = 300;
  WorkerRegistry registry(g, options, 5);
  EXPECT_EQ(registry.num_workers(), 300);
  for (const crowd::Worker& w : registry.workers()) {
    EXPECT_TRUE(g.IsValidRoad(w.road));
  }
}

TEST(WorkerRegistryTest, PopulationStationaryUnderChurn) {
  const graph::Graph g = TestGraph();
  WorkerRegistryOptions options;
  options.num_workers = 200;
  options.churn_probability = 0.1;
  WorkerRegistry registry(g, options, 7);
  for (int step = 0; step < 20; ++step) registry.AdvanceSlot();
  EXPECT_EQ(registry.num_workers(), 200);
  EXPECT_EQ(registry.current_slot_offset(), 20);
}

TEST(WorkerRegistryTest, WorkersActuallyMove) {
  const graph::Graph g = TestGraph();
  WorkerRegistryOptions options;
  options.num_workers = 100;
  options.churn_probability = 0.0;
  options.move_probability = 1.0;
  WorkerRegistry registry(g, options, 9);
  std::vector<graph::RoadId> before;
  for (const auto& w : registry.workers()) before.push_back(w.road);
  registry.AdvanceSlot();
  int moved = 0;
  for (int i = 0; i < 100; ++i) {
    const graph::RoadId now = registry.workers()[static_cast<size_t>(i)].road;
    if (now != before[static_cast<size_t>(i)]) {
      // Must have moved along an edge.
      EXPECT_TRUE(g.AreAdjacent(before[static_cast<size_t>(i)], now));
      ++moved;
    }
  }
  EXPECT_GT(moved, 80);  // move_probability = 1, only isolated roads stay
}

TEST(WorkerRegistryTest, MoveProbabilityZeroFreezesLocations) {
  const graph::Graph g = TestGraph();
  WorkerRegistryOptions options;
  options.num_workers = 50;
  options.churn_probability = 0.0;
  options.move_probability = 0.0;
  WorkerRegistry registry(g, options, 11);
  std::vector<graph::RoadId> before;
  for (const auto& w : registry.workers()) before.push_back(w.road);
  registry.AdvanceSlot();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(registry.workers()[static_cast<size_t>(i)].road,
              before[static_cast<size_t>(i)]);
  }
}

TEST(WorkerRegistryTest, ChurnAssignsFreshIds) {
  const graph::Graph g = TestGraph();
  WorkerRegistryOptions options;
  options.num_workers = 100;
  options.churn_probability = 0.5;
  WorkerRegistry registry(g, options, 13);
  std::set<crowd::WorkerId> before;
  for (const auto& w : registry.workers()) before.insert(w.id);
  registry.AdvanceSlot();
  int fresh = 0;
  for (const auto& w : registry.workers()) {
    if (before.count(w.id) == 0) ++fresh;
  }
  EXPECT_GT(fresh, 20);
  EXPECT_LT(fresh, 80);
}

TEST(WorkerRegistryTest, CoveredRoadsReflectsPlacement) {
  const graph::Graph g = TestGraph();
  WorkerRegistryOptions options;
  options.num_workers = 1000;
  WorkerRegistry registry(g, options, 15);
  const auto covered = registry.CoveredRoads();
  EXPECT_TRUE(std::is_sorted(covered.begin(), covered.end()));
  // 1000 workers over 80 roads: essentially everything covered.
  EXPECT_GT(covered.size(), 70u);
  int total = 0;
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    total += registry.CountOn(r);
  }
  EXPECT_EQ(total, 1000);
}

TEST(WorkerRegistryTest, EmptyGraphSpawnsNoWorkers) {
  const graph::Graph empty = *graph::GraphBuilder(0).Build();
  WorkerRegistryOptions options;
  options.num_workers = 25;
  WorkerRegistry registry(empty, options, 3);
  EXPECT_EQ(registry.num_workers(), 0);
  // A worker on kInvalidRoad would put that id into R^w and fail every
  // later query inside OcsProblem::Create.
  EXPECT_TRUE(registry.CoveredRoads().empty());
  registry.AdvanceSlot();
  EXPECT_EQ(registry.num_workers(), 0);
  EXPECT_EQ(registry.CountOn(graph::kInvalidRoad), 0);
}

TEST(WorkerRegistryDeathTest, WorkerOffTheGraphIsRejected) {
  const graph::Graph g = TestGraph();
  const auto worker_on = [](graph::RoadId road) {
    crowd::Worker w;
    w.id = 1;
    w.road = road;
    return std::vector<crowd::Worker>{w};
  };
  EXPECT_DEATH(WorkerRegistry(g, worker_on(g.num_roads()), {}, 1),
               "check failed");
  EXPECT_DEATH(WorkerRegistry(g, worker_on(graph::kInvalidRoad), {}, 1),
               "check failed");
  WorkerRegistry registry(g, worker_on(0), {}, 1);
  EXPECT_DEATH(registry.ReplaceWorkers(worker_on(g.num_roads() + 5)),
               "check failed");
}

TEST(WorkerRegistryTest, RoadCountsFollowMovesAndChurn) {
  const graph::Graph g = TestGraph();
  WorkerRegistryOptions options;
  options.num_workers = 400;
  options.churn_probability = 0.2;
  WorkerRegistry registry(g, options, 17);
  for (int step = 0; step < 10; ++step) {
    registry.AdvanceSlot();
    std::vector<int> counts(static_cast<size_t>(g.num_roads()), 0);
    for (const crowd::Worker& w : registry.workers()) {
      ++counts[static_cast<size_t>(w.road)];
    }
    std::vector<graph::RoadId> covered;
    for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
      EXPECT_EQ(registry.CountOn(r), counts[static_cast<size_t>(r)]);
      if (counts[static_cast<size_t>(r)] > 0) covered.push_back(r);
    }
    EXPECT_EQ(registry.CoveredRoads(), covered);
  }
}

// The worker index equals a from-scratch bucketing after every slot: each
// road's bucket holds exactly its workers, cleanest first (noise, then id,
// then population order), and every id resolves to its last holder. The
// population starts with duplicate ids and tied noise levels, and moves
// and churns each slot.
TEST(WorkerRegistryTest, IndexMatchesFromScratchBucketing) {
  const graph::Graph g = TestGraph();
  util::Rng rng(23);
  std::vector<crowd::Worker> initial;
  for (int i = 0; i < 300; ++i) {
    crowd::Worker w;
    w.id = static_cast<crowd::WorkerId>(rng.UniformUint64(250));
    // Every road but the last ten starts with workers.
    w.road = static_cast<graph::RoadId>(
        rng.UniformUint64(static_cast<uint64_t>(g.num_roads() - 10)));
    w.noise_kmh = 0.5 * static_cast<double>(rng.UniformUint64(4));
    initial.push_back(w);
  }
  WorkerRegistryOptions options;
  options.churn_probability = 0.1;
  WorkerRegistry registry(g, initial, options, 29);
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::vector<crowd::Worker>& workers = registry.workers();
    std::vector<std::vector<const crowd::Worker*>> buckets(
        static_cast<size_t>(g.num_roads()));
    for (const crowd::Worker& w : workers) {
      buckets[static_cast<size_t>(w.road)].push_back(&w);
    }
    int empty_roads = 0;
    for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
      std::vector<const crowd::Worker*>& want =
          buckets[static_cast<size_t>(r)];
      std::stable_sort(want.begin(), want.end(),
                       [](const crowd::Worker* a, const crowd::Worker* b) {
                         return a->noise_kmh != b->noise_kmh
                                    ? a->noise_kmh < b->noise_kmh
                                    : a->id < b->id;
                       });
      ASSERT_EQ(registry.WorkersOn(r), want) << "road " << r;
      ASSERT_EQ(registry.CountOn(r), static_cast<int>(want.size()));
      empty_roads += want.empty();
    }
    if (step == 0) {
      EXPECT_GE(empty_roads, 10);
    }
    EXPECT_TRUE(registry.WorkersOn(-1).empty());
    EXPECT_TRUE(registry.WorkersOn(g.num_roads()).empty());
    for (const crowd::Worker& w : workers) {
      const crowd::Worker* last = nullptr;
      for (const crowd::Worker& other : workers) {
        if (other.id == w.id) last = &other;
      }
      ASSERT_EQ(registry.index().FindById(w.id), last);
    }
    EXPECT_EQ(registry.index().FindById(-3), nullptr);
    EXPECT_EQ(registry.index().FindById(1 << 30), nullptr);
    // CoveredAmong is the covered part of any road list, sorted and
    // distinct, with off-map ids dropped.
    std::vector<graph::RoadId> probe = {g.num_roads() - 1, 3, -2, 3, 0,
                                        g.num_roads() + 4, 17};
    std::vector<graph::RoadId> covered;
    for (graph::RoadId r : {0, 3, 17, g.num_roads() - 1}) {
      if (registry.CountOn(r) > 0) covered.push_back(r);
    }
    EXPECT_EQ(registry.CoveredAmong(probe), covered);
    registry.AdvanceSlot();
  }
}

}  // namespace
}  // namespace crowdrtse::server
