#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/crowd_rtse.h"
#include "graph/generators.h"
#include "rtf/correlation_cache.h"
#include "rtf/correlation_table.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crowdrtse::rtf {
namespace {

/// Golden contract of incremental Gamma_R maintenance: a sparse table with
/// only the affected rows recomputed equals a full rebuild bit for bit —
/// at the table level (RefreshedRows), through the cache
/// (PatchInPlace), and through the engine (CrowdRtse::RefineSlot).

graph::Graph TestNetwork(int num_roads) {
  util::Rng rng(23);
  graph::RoadNetworkOptions net;
  net.num_roads = num_roads;
  return *graph::RoadNetwork(net, rng);
}

std::vector<double> EdgeRhos(const graph::Graph& g) {
  std::vector<double> rho(static_cast<size_t>(g.num_edges()));
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    rho[static_cast<size_t>(e)] = 0.3 + 0.6 * ((e * 7) % 13) / 13.0;
  }
  return rho;
}

TEST(GammaDeltaTest, AffectedRowsCoverChangedEdgeNeighborhood) {
  // Path 0-1-2-3-4-5-6 (edge e joins roads e and e+1). With C = 2, a
  // 2-edge path from source s crosses edge (2, 3) only if s reaches an
  // endpoint within 1 hop: exactly roads {1, 2, 3, 4}.
  const graph::Graph g = *graph::PathNetwork(7);
  const std::vector<graph::RoadId> affected =
      AffectedCorrelationRows(g, {2}, 2);
  const std::set<graph::RoadId> got(affected.begin(), affected.end());
  EXPECT_EQ(got, (std::set<graph::RoadId>{1, 2, 3, 4}));
  EXPECT_EQ(affected.size(), got.size()) << "ids must be deduplicated";
  EXPECT_TRUE(AffectedCorrelationRows(g, {}, 2).empty());
}

TEST(GammaDeltaTest, RefreshedRowsEqualsFullRebuild) {
  const graph::Graph g = TestNetwork(257);
  constexpr int kHops = 3;
  const std::vector<double> old_rho = EdgeRhos(g);
  const auto table = CorrelationTable::FromEdgeCorrelations(
      g, old_rho, PathWeightMode::kNegLog, nullptr, kHops);
  ASSERT_TRUE(table.ok());

  std::vector<double> new_rho = old_rho;
  std::vector<graph::EdgeId> changed = {5, 41, 120};
  for (graph::EdgeId e : changed) {
    new_rho[static_cast<size_t>(e)] =
        std::min(0.95, old_rho[static_cast<size_t>(e)] + 0.2);
  }
  const std::vector<graph::RoadId> affected =
      AffectedCorrelationRows(g, changed, kHops);
  ASSERT_FALSE(affected.empty());
  ASSERT_LT(affected.size(), static_cast<size_t>(g.num_roads()))
      << "test network too dense to exercise row locality";

  const auto refreshed = table->RefreshedRows(g, new_rho, affected);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().message();
  const auto full = CorrelationTable::FromEdgeCorrelations(
      g, new_rho, PathWeightMode::kNegLog, nullptr, kHops);
  ASSERT_TRUE(full.ok());
  // Bitwise table equality, every entry included (serialized form covers
  // the whole payload).
  EXPECT_EQ(refreshed->Serialize(), full->Serialize());
}

TEST(GammaDeltaTest, DenseTableRejectsRowRefresh) {
  // Dense closures have no row locality (one edge can shift any entry), so
  // the incremental path must refuse rather than return a partial table.
  const graph::Graph g = *graph::PathNetwork(6);
  const std::vector<double> rho(static_cast<size_t>(g.num_edges()), 0.8);
  const auto dense = CorrelationTable::FromEdgeCorrelations(g, rho);
  ASSERT_TRUE(dense.ok());
  EXPECT_FALSE(dense->RefreshedRows(g, rho, {0}).ok());
}

TEST(GammaDeltaTest, PatchInPlaceEqualsInvalidateAndRecompute) {
  const graph::Graph g = TestNetwork(257);
  constexpr int kHops = 3;
  const std::vector<double> old_rho = EdgeRhos(g);
  std::vector<double> new_rho = old_rho;
  new_rho[10] = 0.9;
  const std::vector<graph::RoadId> affected =
      AffectedCorrelationRows(g, {10}, kHops);

  CorrelationCache cache;
  const auto resident =
      cache.GetOrCompute(0, [&](int) {
        return CorrelationTable::FromEdgeCorrelations(
            g, old_rho, PathWeightMode::kNegLog, &util::ThreadPool::Shared(),
            kHops);
      });
  ASSERT_TRUE(resident.ok());

  const auto outcome = cache.PatchInPlace(
      0, [&](const CorrelationTable& current) {
        return current.RefreshedRows(g, new_rho, affected,
                                     &util::ThreadPool::Shared());
      });
  EXPECT_EQ(outcome, CorrelationCache::PatchOutcome::kPatched);
  EXPECT_EQ(cache.stats().patches, 1);

  const auto patched =
      cache.GetOrCompute(0, [&](int)
                                -> util::Result<CorrelationTable> {
        ADD_FAILURE() << "patched table must be served without recompute";
        return util::Status::FailedPrecondition("unexpected recompute");
      });
  ASSERT_TRUE(patched.ok());
  const auto full = CorrelationTable::FromEdgeCorrelations(
      g, new_rho, PathWeightMode::kNegLog, nullptr, kHops);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ((*patched)->Serialize(), full->Serialize());
}

TEST(GammaDeltaTest, PatchInPlaceWithoutResidentTableInvalidates) {
  CorrelationCache cache;
  const auto outcome = cache.PatchInPlace(
      0, [](const CorrelationTable&)
             -> util::Result<CorrelationTable> {
        ADD_FAILURE() << "nothing resident: patch must not run";
        return util::Status::FailedPrecondition("unexpected patch");
      });
  EXPECT_EQ(outcome, CorrelationCache::PatchOutcome::kInvalidated);
  EXPECT_EQ(cache.stats().patch_fallbacks, 1);
}

/// End-to-end: RefineSlot with the incremental refresh produces exactly
/// the table a full invalidate-and-recompute produces, and reports how it
/// got there (row count vs -1).
TEST(GammaDeltaTest, RefineSlotIncrementalMatchesFullRecompute) {
  const graph::Graph g = TestNetwork(211);
  traffic::TrafficModelOptions traffic_options;
  traffic_options.num_days = 6;
  traffic::TrafficSimulator sim(g, traffic_options, 5);
  const traffic::HistoryStore history = sim.GenerateHistory();

  core::CrowdRtseConfig config;
  config.correlation_hop_radius = 2;
  config.refine_with_ccd = false;
  const int slot = 10;

  config.incremental_gamma_refresh = true;
  auto incremental = core::CrowdRtse::BuildOffline(g, history, config);
  ASSERT_TRUE(incremental.ok());
  config.incremental_gamma_refresh = false;
  auto full = core::CrowdRtse::BuildOffline(g, history, config);
  ASSERT_TRUE(full.ok());

  // Warm the slot so the incremental system has a resident table to patch.
  ASSERT_TRUE(incremental->CorrelationsFor(slot).ok());
  ASSERT_TRUE(full->CorrelationsFor(slot).ok());

  const auto rows_incremental = incremental->RefineSlot(slot);
  const auto rows_full = full->RefineSlot(slot);
  ASSERT_TRUE(rows_incremental.ok()) << rows_incremental.status().message();
  ASSERT_TRUE(rows_full.ok()) << rows_full.status().message();
  // The incremental path never falls back when a table is resident: it
  // either patched (> 0 rows) or CCD changed no edge correlation (0).
  EXPECT_GE(*rows_incremental, 0);
  EXPECT_LE(*rows_full, 0) << "full path must not report patched rows";
  EXPECT_EQ(*rows_incremental > 0,
            incremental->CorrelationCacheStats().patches == 1);

  // Both refinements are deterministic over the same world, so the two
  // systems hold identical parameters; the patched table must equal the
  // fully recomputed one bit for bit.
  const auto table_incremental = incremental->CorrelationsFor(slot);
  const auto table_full = full->CorrelationsFor(slot);
  ASSERT_TRUE(table_incremental.ok());
  ASSERT_TRUE(table_full.ok());
  EXPECT_EQ((*table_incremental)->Serialize(), (*table_full)->Serialize());
}

}  // namespace
}  // namespace crowdrtse::rtf
