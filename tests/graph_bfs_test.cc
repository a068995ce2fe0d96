#include "graph/bfs.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"
#include "util/rng.h"

namespace crowdrtse::graph {
namespace {

BfsLevels Bfs(const Graph& g, const std::vector<RoadId>& sources) {
  BfsLevels levels;
  MultiSourceBfsInto(g, sources, levels);
  return levels;
}

/// The roads of level `l`, in discovery order.
std::vector<RoadId> Level(const BfsLevels& levels, int l) {
  return {levels.order.begin() + levels.level_offsets[static_cast<size_t>(l)],
          levels.order.begin() +
              levels.level_offsets[static_cast<size_t>(l) + 1]};
}

TEST(BfsTest, SingleSourcePath) {
  const Graph g = *PathNetwork(5);
  const BfsLevels levels = Bfs(g, {0});
  EXPECT_EQ(levels.hops, (std::vector<int>{0, 1, 2, 3, 4}));
  ASSERT_EQ(levels.num_levels(), 5);
  EXPECT_EQ(Level(levels, 3), (std::vector<RoadId>{3}));
  EXPECT_EQ(levels.order, (std::vector<RoadId>{0, 1, 2, 3, 4}));
}

TEST(BfsTest, MultiSourceTakesMinimum) {
  const Graph g = *PathNetwork(7);
  const BfsLevels levels = Bfs(g, {0, 6});
  EXPECT_EQ(levels.hops[3], 3);
  EXPECT_EQ(levels.hops[5], 1);
  EXPECT_EQ(Level(levels, 0), (std::vector<RoadId>{0, 6}));
}

TEST(BfsTest, DuplicateSourcesTolerated) {
  const Graph g = *PathNetwork(3);
  const BfsLevels levels = Bfs(g, {1, 1, 1});
  EXPECT_EQ(Level(levels, 0).size(), 1u);
  EXPECT_EQ(levels.hops[1], 0);
}

TEST(BfsTest, UnreachableIsMinusOne) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  const Graph g = *builder.Build();
  const BfsLevels levels = Bfs(g, {0});
  EXPECT_EQ(levels.hops[2], -1);
  EXPECT_EQ(levels.hops[3], -1);
}

TEST(BfsTest, NoSourcesGivesEmptyLevels) {
  const Graph g = *PathNetwork(3);
  const BfsLevels levels = Bfs(g, {});
  EXPECT_EQ(levels.num_levels(), 0);
  EXPECT_TRUE(levels.order.empty());
  EXPECT_TRUE(std::all_of(levels.hops.begin(), levels.hops.end(),
                          [](int h) { return h == -1; }));
}

TEST(BfsTest, InvalidSourcesSkipped) {
  const Graph g = *PathNetwork(3);
  const BfsLevels levels = Bfs(g, {-1, 99, 1});
  EXPECT_EQ(levels.hops[1], 0);
  EXPECT_EQ(Level(levels, 0).size(), 1u);
}

TEST(BfsTest, GridHopsMatchManhattanDistance) {
  const Graph g = *GridNetwork(4, 5);
  const BfsLevels levels = Bfs(g, {0});
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
  const BfsLevels levels = Bfs(g, {0, 10, 20});
  size_t total = 0;
  std::vector<bool> seen(static_cast<size_t>(g.num_roads()), false);
  for (int l = 0; l < levels.num_levels(); ++l) {
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
  BfsLevels levels;
  MultiSourceBfsInto(g, {5}, levels, /*max_hops=*/2);
  EXPECT_EQ(levels.hops,
            (std::vector<int>{-1, -1, -1, 2, 1, 0, 1, 2, -1, -1}));
  EXPECT_EQ(levels.num_levels(), 3);
  EXPECT_EQ(levels.order.size(), 5u);
  MultiSourceBfsInto(g, {5}, levels, /*max_hops=*/0);
  EXPECT_EQ(levels.num_levels(), 1);
  EXPECT_EQ(levels.order, (std::vector<RoadId>{5}));
  // A bound deeper than the graph changes nothing.
  BfsLevels bounded;
  MultiSourceBfsInto(g, {0, 6}, bounded, /*max_hops=*/50);
  const BfsLevels unbounded = Bfs(g, {0, 6});
  EXPECT_EQ(bounded.hops, unbounded.hops);
  EXPECT_EQ(bounded.order, unbounded.order);
  EXPECT_EQ(bounded.level_offsets, unbounded.level_offsets);
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
