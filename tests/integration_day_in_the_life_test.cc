// "Day in the life" integration test: the serving stack runs a whole
// simulated day — workers drive around and churn, queries arrive every few
// slots, the ledger caps the campaign spend, the model gets refreshed
// nightly from the day's observations — exercising the server, crowd, rtf,
// ocs, gsp and eval layers together and checking global invariants.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/congestion_monitor.h"
#include "core/crowd_rtse.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "rtf/moment_estimator.h"
#include "server/budget_ledger.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace crowdrtse {
namespace {

TEST(DayInTheLifeTest, FullServiceDay) {
  // --- world ------------------------------------------------------------
  util::Rng rng(1234);
  graph::RoadNetworkOptions net;
  net.num_roads = 120;
  const graph::Graph network = *graph::RoadNetwork(net, rng);
  traffic::TrafficModelOptions traffic_options;
  traffic_options.num_days = 10;
  const traffic::TrafficSimulator simulator(network, traffic_options, 55);
  const traffic::HistoryStore history = simulator.GenerateHistory();
  const traffic::DayMatrix today = simulator.GenerateEvaluationDay();

  auto system = core::CrowdRtse::BuildOffline(network, history, {});
  ASSERT_TRUE(system.ok());

  // --- serving stack ------------------------------------------------------
  server::WorkerRegistryOptions registry_options;
  registry_options.num_workers = 500;
  server::WorkerRegistry registry(network, registry_options, 77);
  const int64_t campaign_budget = 600;
  server::BudgetLedger ledger(campaign_budget, /*per_query_cap=*/15);
  const crowd::CostModel costs = crowd::CostModel::Constant(120, 2);
  crowd::CrowdSimulator crowd_sim({}, util::Rng(88));
  server::QueryEngine engine(*system, registry, ledger, costs, crowd_sim);
  const core::CongestionMonitor monitor(system->model());

  // --- the day -------------------------------------------------------------
  util::Rng query_rng(99);
  eval::QualityAccumulator quality;
  int64_t alarms_total = 0;
  int served = 0;
  int rejected = 0;
  for (int slot = 0; slot < traffic::kSlotsPerDay; slot += 12) {
    server::QueryRequest request;
    request.slot = slot;
    for (int pick : query_rng.SampleWithoutReplacement(120, 10)) {
      request.queried.push_back(pick);
    }
    const auto response = engine.Serve(request, today);
    if (!response.ok()) {
      EXPECT_EQ(response.status().code(),
                util::StatusCode::kFailedPrecondition);
      ++rejected;
      registry.AdvanceSlot();
      continue;
    }
    ++served;
    // Invariant: spend within grant, grant within cap.
    EXPECT_LE(response->paid, response->granted_budget);
    EXPECT_LE(response->granted_budget, 15);
    // Estimate quality on the queried roads.
    std::vector<double> all(static_cast<size_t>(network.num_roads()), 1.0);
    for (size_t i = 0; i < request.queried.size(); ++i) {
      all[static_cast<size_t>(request.queried[i])] =
          response->queried_speeds[i];
    }
    quality.Add(*eval::ComputeQuality(all, today.SlotSpeeds(slot),
                                      request.queried));
    // Congestion monitoring over the full estimate of a fresh propagation.
    std::vector<double> probe_speeds;
    for (graph::RoadId r : response->probed_roads) {
      probe_speeds.push_back(today.At(slot, r));
    }
    const auto estimate =
        system->Estimate(slot, response->probed_roads, probe_speeds);
    ASSERT_TRUE(estimate.ok());
    const auto alarms = monitor.Scan(slot, estimate->speeds,
                                     estimate->hops);
    ASSERT_TRUE(alarms.ok());
    alarms_total += static_cast<int64_t>(alarms->size());
    registry.AdvanceSlot();
  }

  // --- global invariants ----------------------------------------------------
  EXPECT_GT(served, 10);
  EXPECT_EQ(engine.stats().queries_served, served);
  EXPECT_EQ(engine.stats().queries_rejected, rejected);
  EXPECT_LE(ledger.total_spent(), campaign_budget);
  EXPECT_EQ(engine.stats().total_paid, ledger.total_spent());
  // The service stayed useful: mean MAPE clearly better than a coin flip.
  EXPECT_LT(quality.Mean().mape, 0.15);
  // The registry population stayed stationary through churn.
  EXPECT_EQ(registry.num_workers(), 500);

  // --- nightly model refresh -------------------------------------------------
  // Re-estimate the RTF over the history plus today's observations.
  traffic::HistoryStore extended(network.num_roads(), history.num_days() + 1,
                                 history.num_slots());
  for (int day = 0; day < history.num_days(); ++day) {
    for (int slot = 0; slot < history.num_slots(); ++slot) {
      for (graph::RoadId r = 0; r < network.num_roads(); ++r) {
        extended.At(day, slot, r) = history.At(day, slot, r);
      }
    }
  }
  ASSERT_TRUE(extended.SetDay(history.num_days(), today).ok());
  const auto refreshed = rtf::EstimateByMoments(network, extended);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed->Validate().ok());
}

}  // namespace
}  // namespace crowdrtse
