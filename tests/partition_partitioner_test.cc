#include "partition/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "rtf/correlation_table.h"
#include "util/rng.h"

namespace crowdrtse::partition {
namespace {

graph::Graph MakeWorld(
    std::vector<std::pair<double, double>>* positions, int num_roads = 607) {
  util::Rng rng(11);
  graph::RoadNetworkOptions net;
  net.num_roads = num_roads;
  return *graph::RoadNetwork(net, rng, positions);
}

/// Deterministic per-edge correlation from global endpoint ids, so the
/// same physical edge carries the same rho in the global graph and in any
/// induced subgraph.
double EdgeRho(graph::RoadId u, graph::RoadId v) {
  if (u > v) std::swap(u, v);
  const uint64_t h = static_cast<uint64_t>(u) * 2654435761ull +
                     static_cast<uint64_t>(v) * 40503ull;
  return 0.3 + 0.6 * static_cast<double>(h % 10007) / 10007.0;
}

std::vector<double> GlobalEdgeRhos(const graph::Graph& g) {
  std::vector<double> rhos(static_cast<size_t>(g.num_edges()));
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.EdgeEndpoints(e);
    rhos[static_cast<size_t>(e)] = EdgeRho(u, v);
  }
  return rhos;
}

TEST(PartitionerTest, DeterministicForFixedSeed) {
  std::vector<std::pair<double, double>> positions;
  const graph::Graph g = MakeWorld(&positions);
  PartitionerOptions options;
  options.num_shards = 4;
  options.seed = 42;
  const auto a = PartitionByGeography(g, positions, options);
  const auto b = PartitionByGeography(g, positions, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->owner, b->owner);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(a->shards[s].owned, b->shards[s].owned);
    EXPECT_EQ(a->shards[s].halo, b->shards[s].halo);
  }
}

TEST(PartitionerTest, EveryRoadOwnedExactlyOnce) {
  std::vector<std::pair<double, double>> positions;
  const graph::Graph g = MakeWorld(&positions);
  PartitionerOptions options;
  options.num_shards = 5;  // non-power-of-two K
  const auto partition = PartitionByGeography(g, positions, options);
  ASSERT_TRUE(partition.ok());
  std::vector<int> seen(static_cast<size_t>(g.num_roads()), 0);
  for (const ShardLayout& shard : partition->shards) {
    for (graph::RoadId r : shard.owned) ++seen[static_cast<size_t>(r)];
  }
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    EXPECT_EQ(seen[static_cast<size_t>(r)], 1) << "road " << r;
    EXPECT_TRUE(std::binary_search(
        partition->shards[static_cast<size_t>(partition->OwnerOf(r))]
            .owned.begin(),
        partition->shards[static_cast<size_t>(partition->OwnerOf(r))]
            .owned.end(),
        r));
  }
}

TEST(PartitionerTest, BalanceWithinBudget) {
  std::vector<std::pair<double, double>> positions;
  const graph::Graph g = MakeWorld(&positions);
  for (int k : {2, 3, 4, 8}) {
    PartitionerOptions options;
    options.num_shards = k;
    const auto partition = PartitionByGeography(g, positions, options);
    ASSERT_TRUE(partition.ok());
    EXPECT_LE(partition->BalanceRatio(), 1.2) << "K=" << k;
  }
}

TEST(PartitionerTest, RefinementDoesNotWorsenEdgeCut) {
  std::vector<std::pair<double, double>> positions;
  const graph::Graph g = MakeWorld(&positions);
  PartitionerOptions raw;
  raw.num_shards = 4;
  raw.refine_passes = 0;
  PartitionerOptions refined = raw;
  refined.refine_passes = 3;
  const auto a = PartitionByGeography(g, positions, raw);
  const auto b = PartitionByGeography(g, positions, refined);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(EdgeCut(g, *b), EdgeCut(g, *a));
}

TEST(PartitionerTest, HaloClosesTheHopBall) {
  std::vector<std::pair<double, double>> positions;
  const graph::Graph g = MakeWorld(&positions);
  PartitionerOptions options;
  options.num_shards = 4;
  options.halo_radius = 3;
  const auto partition = PartitionByGeography(g, positions, options);
  ASSERT_TRUE(partition.ok());
  for (const ShardLayout& shard : partition->shards) {
    const std::vector<graph::RoadId> ball =
        graph::RoadsWithinHops(g, shard.owned, options.halo_radius);
    for (graph::RoadId r : ball) {
      EXPECT_NE(shard.LocalId(r), graph::kInvalidRoad)
          << "road " << r << " is within " << options.halo_radius
          << " hops of an owned road but is not a member";
    }
  }
}

// The locality contract behind sharded serving: for roads whose C-hop
// ball lies inside the shard, the sparse Gamma_R computed on the induced
// subgraph is bit-identical to the global one.
TEST(PartitionerTest, ShardLocalSparseGammaMatchesGlobalBitwise) {
  std::vector<std::pair<double, double>> positions;
  const graph::Graph g = MakeWorld(&positions, 300);
  const int kHopC = 2;
  PartitionerOptions options;
  options.num_shards = 3;
  options.halo_radius = 2 * kHopC;
  const auto partition = PartitionByGeography(g, positions, options);
  ASSERT_TRUE(partition.ok());

  const auto global = rtf::CorrelationTable::FromEdgeCorrelations(
      g, GlobalEdgeRhos(g), rtf::PathWeightMode::kNegLog, nullptr, kHopC);
  ASSERT_TRUE(global.ok());

  for (const ShardLayout& shard : partition->shards) {
    const auto sub = graph::InducedSubgraph(g, shard.members);
    ASSERT_TRUE(sub.ok());
    std::vector<double> sub_rhos(
        static_cast<size_t>(sub->graph.num_edges()));
    for (graph::EdgeId e = 0; e < sub->graph.num_edges(); ++e) {
      const auto [a, b] = sub->graph.EdgeEndpoints(e);
      sub_rhos[static_cast<size_t>(e)] =
          EdgeRho(sub->original_ids[static_cast<size_t>(a)],
                  sub->original_ids[static_cast<size_t>(b)]);
    }
    const auto local = rtf::CorrelationTable::FromEdgeCorrelations(
        sub->graph, sub_rhos, rtf::PathWeightMode::kNegLog, nullptr, kHopC);
    ASSERT_TRUE(local.ok());
    for (size_t li = 0; li < shard.members.size(); ++li) {
      if (!shard.owned_local[li]) continue;
      const graph::RoadId gi = shard.members[li];
      for (size_t lj = 0; lj < shard.members.size(); ++lj) {
        const graph::RoadId gj = shard.members[lj];
        EXPECT_EQ(local->Corr(static_cast<graph::RoadId>(li),
                              static_cast<graph::RoadId>(lj)),
                  global->Corr(gi, gj))
            << "Gamma(" << gi << ", " << gj << ")";
      }
    }
  }
}

TEST(PartitionerTest, RejectsBadOptions) {
  std::vector<std::pair<double, double>> positions;
  const graph::Graph g = MakeWorld(&positions, 50);
  PartitionerOptions options;
  options.num_shards = 0;
  EXPECT_FALSE(PartitionByGeography(g, positions, options).ok());
  options.num_shards = 51;
  EXPECT_FALSE(PartitionByGeography(g, positions, options).ok());
  options.num_shards = 2;
  options.halo_radius = -1;
  EXPECT_FALSE(PartitionByGeography(g, positions, options).ok());
  options.halo_radius = 2;
  EXPECT_FALSE(
      PartitionByGeography(g, {{0.0, 0.0}}, options).ok());  // size mismatch
}

}  // namespace
}  // namespace crowdrtse::partition
