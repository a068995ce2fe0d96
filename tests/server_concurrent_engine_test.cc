// Concurrent-serving stress tests: many client threads hammer one
// QueryEngine over a shared reservation ledger. The invariants under test
// are the tentpole guarantees — the campaign budget is never jointly
// overspent, every query lands in exactly one outcome counter, every
// granted query settles exactly once, and the metrics layer sees every
// phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "server/budget_ledger.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace crowdrtse::server {
namespace {

/// Queries that recorded `stage` in the engine's stage histograms.
int64_t StageCount(const Engine& engine, const std::string& stage) {
  const std::string key =
      "crowdrtse_stage_wall_ms_count{stage=\"" + stage + "\"} ";
  const std::string text = engine.metrics().RenderPrometheus();
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size()));
}

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  ConcurrentEngineTest() {
    util::Rng rng(21);
    graph::RoadNetworkOptions net;
    net.num_roads = 100;
    graph_ = *graph::RoadNetwork(net, rng);
    traffic::TrafficModelOptions traffic_options;
    traffic_options.num_days = 8;
    sim_ = std::make_unique<traffic::TrafficSimulator>(graph_,
                                                       traffic_options, 5);
    history_ = sim_->GenerateHistory();
    truth_ = sim_->GenerateEvaluationDay();
    system_ = std::make_unique<core::CrowdRtse>(
        *core::CrowdRtse::BuildOffline(graph_, history_, {}));
    WorkerRegistryOptions registry_options;
    registry_options.num_workers = 600;
    registry_ = std::make_unique<WorkerRegistry>(graph_, registry_options,
                                                 7);
    costs_ = crowd::CostModel::Constant(100, 2);
    crowd_sim_ =
        std::make_unique<crowd::CrowdSimulator>(crowd::CrowdSimOptions{},
                                                util::Rng(9));
  }

  QueryRequest MakeRequest(int slot) {
    QueryRequest request;
    request.slot = slot;
    request.queried = {3, 17, 42, 77};
    return request;
  }

  graph::Graph graph_;
  std::unique_ptr<traffic::TrafficSimulator> sim_;
  traffic::HistoryStore history_;
  traffic::DayMatrix truth_;
  std::unique_ptr<core::CrowdRtse> system_;
  std::unique_ptr<WorkerRegistry> registry_;
  crowd::CostModel costs_;
  std::unique_ptr<crowd::CrowdSimulator> crowd_sim_;
};

TEST_F(ConcurrentEngineTest, SharedLedgerNeverOverspendsCampaign) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 8;
  constexpr int64_t kCampaignBudget = 300;  // dries up mid-run
  BudgetLedger ledger(kCampaignBudget, /*per_query_cap=*/12);
  QueryEngine::Options options;
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_,
                     options);

  std::atomic<int> served{0};
  std::atomic<int> rejected{0};
  std::atomic<int64_t> paid_observed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // A few distinct slots so cold correlation-cache fills race too.
        const auto response =
            engine.Serve(MakeRequest(100 + (t + i) % 3), truth_);
        if (response.ok()) {
          served.fetch_add(1);
          paid_observed.fetch_add(response->paid);
          EXPECT_LE(response->paid, response->granted_budget);
        } else {
          EXPECT_EQ(response.status().code(),
                    util::StatusCode::kFailedPrecondition);
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  const EngineStats stats = engine.stats();
  constexpr int kAttempts = kThreads * kQueriesPerThread;
  // The central invariant: reservations stopped concurrent queries from
  // jointly overspending.
  EXPECT_LE(ledger.total_spent(), kCampaignBudget);
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
  // Every query landed in exactly one outcome bucket.
  EXPECT_EQ(stats.queries_served, served.load());
  EXPECT_EQ(stats.queries_rejected, rejected.load());
  EXPECT_EQ(stats.queries_served + stats.queries_rejected +
                stats.queries_failed,
            kAttempts);
  EXPECT_GT(stats.queries_served, 0);
  EXPECT_GT(stats.queries_rejected, 0);  // the campaign did dry up
  // Every granted query settled exactly once.
  EXPECT_EQ(ledger.settled_count(),
            stats.queries_served + stats.queries_failed);
  EXPECT_EQ(stats.total_paid, ledger.total_spent());
  EXPECT_EQ(paid_observed.load(), stats.total_paid);
  // The metrics layer saw every served query end to end.
  EXPECT_EQ(stats.serve_latency.count, stats.queries_served);
  EXPECT_GE(StageCount(engine, "ocs.select"), stats.queries_served);
  EXPECT_LE(stats.serve_latency.p50_ms, stats.serve_latency.p99_ms);
}

TEST_F(ConcurrentEngineTest, DistinctQueryIdsUnderConcurrency) {
  BudgetLedger ledger(-1, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 5;
  std::vector<std::vector<int64_t>> ids(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const auto response = engine.Serve(MakeRequest(100), truth_);
        if (response.ok()) {
          ids[static_cast<size_t>(t)].push_back(response->query_id);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  std::vector<int64_t> all;
  for (const auto& per_thread : ids) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(all.size(),
            static_cast<size_t>(kThreads * kQueriesPerThread));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate query id handed out";
}

TEST_F(ConcurrentEngineTest, ReportAndStageHistogramsCoverEveryPhase) {
  BudgetLedger ledger(-1, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Serve(MakeRequest(100 + i), truth_).ok());
  }
  // Every served query recorded each pipeline stage once.
  for (const char* stage : {"ocs.select", "crowd.dispatch", "gsp.sweep"}) {
    EXPECT_EQ(StageCount(engine, stage), 4) << stage;
  }
  const std::string report = engine.stats().Report();
  EXPECT_NE(report.find("served 4"), std::string::npos);
  EXPECT_NE(report.find("serve:"), std::string::npos);
  EXPECT_NE(report.find("p50="), std::string::npos);
  EXPECT_NE(report.find("p95="), std::string::npos);
  EXPECT_NE(report.find("p99="), std::string::npos);
  // Gamma_R cache state is part of the service report: the four slots above
  // were each a cold miss, later queries of the same slot are hits.
  EXPECT_NE(report.find("gamma:"), std::string::npos);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.gamma_cache.misses, 4);
  ASSERT_TRUE(engine.Serve(MakeRequest(100), truth_).ok());
  EXPECT_GE(engine.stats().gamma_cache.hits, 1);
}

}  // namespace
}  // namespace crowdrtse::server
