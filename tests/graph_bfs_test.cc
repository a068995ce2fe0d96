#include "graph/bfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace crowdrtse::graph {
namespace {

/// A finished traversal: every road's hop count plus the level layout.
struct Levels {
  std::vector<int> hops;
  std::vector<RoadId> order;
  std::vector<int32_t> level_offsets;
  int num_levels = 0;
};

Levels Snapshot(const Graph& g, const StampedBfs& bfs) {
  Levels levels;
  for (RoadId r = 0; r < g.num_roads(); ++r) {
    levels.hops.push_back(bfs.Hops(r));
  }
  levels.order = bfs.order();
  levels.level_offsets = bfs.level_offsets();
  levels.num_levels = bfs.num_levels();
  return levels;
}

Levels Bfs(const Graph& g, const std::vector<RoadId>& sources,
           int max_hops = -1) {
  StampedBfs bfs;
  bfs.Run(g, sources, max_hops);
  return Snapshot(g, bfs);
}

/// The roads of level `l`, in discovery order.
std::vector<RoadId> Level(const Levels& levels, int l) {
  return {levels.order.begin() + levels.level_offsets[static_cast<size_t>(l)],
          levels.order.begin() +
              levels.level_offsets[static_cast<size_t>(l) + 1]};
}

TEST(BfsTest, SingleSourcePath) {
  const Graph g = *PathNetwork(5);
  const Levels levels = Bfs(g, {0});
  EXPECT_EQ(levels.hops, (std::vector<int>{0, 1, 2, 3, 4}));
  ASSERT_EQ(levels.num_levels, 5);
  EXPECT_EQ(Level(levels, 3), (std::vector<RoadId>{3}));
  EXPECT_EQ(levels.order, (std::vector<RoadId>{0, 1, 2, 3, 4}));
}

TEST(BfsTest, MultiSourceTakesMinimum) {
  const Graph g = *PathNetwork(7);
  const Levels levels = Bfs(g, {0, 6});
  EXPECT_EQ(levels.hops[3], 3);
  EXPECT_EQ(levels.hops[5], 1);
  EXPECT_EQ(Level(levels, 0), (std::vector<RoadId>{0, 6}));
}

TEST(BfsTest, DuplicateSourcesTolerated) {
  const Graph g = *PathNetwork(3);
  const Levels levels = Bfs(g, {1, 1, 1});
  EXPECT_EQ(Level(levels, 0).size(), 1u);
  EXPECT_EQ(levels.hops[1], 0);
}

TEST(BfsTest, UnreachableIsMinusOne) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  const Graph g = *builder.Build();
  const Levels levels = Bfs(g, {0});
  EXPECT_EQ(levels.hops[2], -1);
  EXPECT_EQ(levels.hops[3], -1);
}

TEST(BfsTest, NoSourcesGivesEmptyLevels) {
  const Graph g = *PathNetwork(3);
  const Levels levels = Bfs(g, {});
  EXPECT_EQ(levels.num_levels, 0);
  EXPECT_TRUE(levels.order.empty());
  EXPECT_TRUE(std::all_of(levels.hops.begin(), levels.hops.end(),
                          [](int h) { return h == -1; }));
}

TEST(BfsTest, InvalidSourcesSkipped) {
  const Graph g = *PathNetwork(3);
  const Levels levels = Bfs(g, {-1, 99, 1});
  EXPECT_EQ(levels.hops[1], 0);
  EXPECT_EQ(Level(levels, 0).size(), 1u);
}

TEST(BfsTest, GridHopsMatchManhattanDistance) {
  const Graph g = *GridNetwork(4, 5);
  const Levels levels = Bfs(g, {0});
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_EQ(levels.hops[static_cast<size_t>(r * 5 + c)], r + c);
    }
  }
}

TEST(BfsTest, LevelsPartitionReachableRoads) {
  util::Rng rng(1);
  RoadNetworkOptions options;
  options.num_roads = 80;
  const Graph g = *RoadNetwork(options, rng);
  const Levels levels = Bfs(g, {0, 10, 20});
  size_t total = 0;
  std::vector<bool> seen(static_cast<size_t>(g.num_roads()), false);
  for (int l = 0; l < levels.num_levels; ++l) {
    for (RoadId r : Level(levels, l)) {
      EXPECT_FALSE(seen[static_cast<size_t>(r)]);
      seen[static_cast<size_t>(r)] = true;
      EXPECT_EQ(levels.hops[static_cast<size_t>(r)], l);
      ++total;
    }
  }
  size_t reachable = 0;
  for (int h : levels.hops) reachable += h >= 0 ? 1 : 0;
  EXPECT_EQ(total, reachable);
}

TEST(BfsTest, MaxHopsStopsExpansion) {
  const Graph g = *PathNetwork(10);
  Levels levels = Bfs(g, {5}, /*max_hops=*/2);
  EXPECT_EQ(levels.hops,
            (std::vector<int>{-1, -1, -1, 2, 1, 0, 1, 2, -1, -1}));
  EXPECT_EQ(levels.num_levels, 3);
  EXPECT_EQ(levels.order.size(), 5u);
  levels = Bfs(g, {5}, /*max_hops=*/0);
  EXPECT_EQ(levels.num_levels, 1);
  EXPECT_EQ(levels.order, (std::vector<RoadId>{5}));
  // A bound deeper than the graph changes nothing.
  const Levels bounded = Bfs(g, {0, 6}, /*max_hops=*/50);
  const Levels unbounded = Bfs(g, {0, 6});
  EXPECT_EQ(bounded.hops, unbounded.hops);
  EXPECT_EQ(bounded.order, unbounded.order);
  EXPECT_EQ(bounded.level_offsets, unbounded.level_offsets);
}

// One instance reused across traversals and graph sizes reads exactly what
// a fresh instance reads: no stamp from an earlier run survives the epoch
// bump.
TEST(BfsTest, ReusedInstanceMatchesFresh) {
  util::Rng rng(3);
  RoadNetworkOptions small_options;
  small_options.num_roads = 40;
  RoadNetworkOptions large_options;
  large_options.num_roads = 120;
  const Graph graphs[] = {*RoadNetwork(large_options, rng),
                          *RoadNetwork(small_options, rng)};
  StampedBfs reused;
  for (int k = 0; k < 30; ++k) {
    const Graph& g = graphs[k % 2];
    const std::vector<RoadId> sources = {
        static_cast<RoadId>(rng.UniformUint64(
            static_cast<uint64_t>(g.num_roads()))),
        static_cast<RoadId>(k % g.num_roads())};
    const int max_hops = k % 3 == 0 ? -1 : k % 4;
    reused.Run(g, sources, max_hops);
    const Levels got = Snapshot(g, reused);
    const Levels want = Bfs(g, sources, max_hops);
    EXPECT_EQ(got.hops, want.hops);
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.level_offsets, want.level_offsets);
  }
}

TEST(RoadsWithinHopsTest, CoverageCounts) {
  const Graph g = *PathNetwork(10);
  EXPECT_EQ(RoadsWithinHops(g, {5}, 0).size(), 1u);
  EXPECT_EQ(RoadsWithinHops(g, {5}, 1).size(), 3u);
  EXPECT_EQ(RoadsWithinHops(g, {5}, 2).size(), 5u);
  EXPECT_EQ(RoadsWithinHops(g, {0}, 100).size(), 10u);
  EXPECT_TRUE(RoadsWithinHops(g, {5}, -1).empty());
}

TEST(RoadsWithinHopsTest, MultiSourceUnion) {
  const Graph g = *PathNetwork(10);
  const auto covered = RoadsWithinHops(g, {0, 9}, 1);
  EXPECT_EQ(covered.size(), 4u);  // {0,1} and {8,9}
}

}  // namespace
}  // namespace crowdrtse::graph
