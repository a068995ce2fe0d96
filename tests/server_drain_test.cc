/// Shutdown-ordering regression tests (run under TSan in CI): tearing an
/// engine or the Gamma_R cache down while other threads are mid-serve /
/// mid-compute used to race their worker pools' destruction. Drain() now
/// gates both; these tests destroy under load and let the sanitizer judge.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "rtf/correlation_cache.h"
#include "server/query_engine.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace crowdrtse::server {
namespace {

class DrainTest : public ::testing::Test {
 protected:
  DrainTest() {
    util::Rng rng(3);
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
    ledger_ = std::make_unique<BudgetLedger>(-1, 12);
  }

  QueryRequest MakeRequest(int slot = 100) {
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
  std::unique_ptr<BudgetLedger> ledger_;
};

// The §6 regression proper: serving threads hammer the engine while the
// main thread drains and then destroys it. Before the drain gate this
// destroyed the propagator pool and the Gamma_R fan-out pool under the
// serving threads' feet.
TEST_F(DrainTest, DestructionUnderServingLoadIsSafe) {
  auto engine = std::make_unique<QueryEngine>(*system_, *registry_,
                                              *ledger_, costs_, *crowd_sim_);
  constexpr int kThreads = 4;
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Spread across slots so cold Gamma_R computes stay in flight.
      for (int i = 0; !engine->draining(); ++i) {
        const auto response =
            engine->Serve(MakeRequest(100 + (t * 7 + i) % 40), truth_);
        if (response.ok()) {
          served.fetch_add(1);
        } else {
          // Only the drain refusal is a legal failure here.
          EXPECT_EQ(response.status().code(),
                    util::StatusCode::kFailedPrecondition);
          refused.fetch_add(1);
        }
      }
    });
  }
  // Let real serving overlap the drain.
  while (served.load() < 4) std::this_thread::yield();
  engine->Drain();

  // Post-drain the engine refuses but never crashes.
  EXPECT_TRUE(engine->draining());
  const auto after = engine->Serve(MakeRequest(), truth_);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(after.status().message().find("draining"), std::string::npos);

  for (auto& thread : threads) thread.join();
  const int64_t total = served.load();
  engine.reset();  // destructor's Drain() is idempotent
  EXPECT_GE(total, 4);
  EXPECT_EQ(ledger_->reserved_outstanding(), 0);
}

TEST_F(DrainTest, DrainIsIdempotentAndReentrant) {
  QueryEngine engine(*system_, *registry_, *ledger_, costs_, *crowd_sim_);
  ASSERT_TRUE(engine.Serve(MakeRequest(), truth_).ok());
  engine.Drain();
  engine.Drain();
  std::thread other([&] { engine.Drain(); });
  other.join();
  EXPECT_EQ(engine.stats().queries_served, 1);
}

// The cache half of the ordering bug: destroying the CorrelationCache
// while a compute is mid-flight tore down the Dijkstra fan-out pool under
// the computing thread. ~CorrelationCache now waits the compute out.
TEST(CorrelationCacheDrainTest, DestructionWaitsForInFlightCompute) {
  const graph::Graph g = *graph::PathNetwork(4);
  auto cache = std::make_unique<rtf::CorrelationCache>();
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  std::thread computer([&] {
    const auto table =
        cache->GetOrCompute(0, [&](int) {
          started.store(true);
          // Long enough that the destructor below overlaps the compute.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          finished.store(true);
          return rtf::CorrelationTable::FromEdgeCorrelations(
              g, {0.9, 0.8, 0.7});
        });
    EXPECT_TRUE(table.ok());
  });
  while (!started.load()) std::this_thread::yield();
  cache.reset();  // must block until the compute resolves
  EXPECT_TRUE(finished.load());
  computer.join();
}

TEST(CorrelationCacheDrainTest, DrainWithNothingInFlightReturnsAtOnce) {
  rtf::CorrelationCache cache;
  cache.Drain();  // no compute ever started
  const graph::Graph g = *graph::PathNetwork(4);
  ASSERT_TRUE(cache
                  .GetOrCompute(0,
                                [&](int) {
                                  return rtf::CorrelationTable::
                                      FromEdgeCorrelations(g,
                                                           {0.9, 0.8, 0.7});
                                })
                  .ok());
  cache.Drain();  // and again after the compute retired
}

}  // namespace
}  // namespace crowdrtse::server
