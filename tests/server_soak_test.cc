// Soak: each engine kind serves two full days of slot rolls on the paper's
// 607-road world — a storm fault plan on fault-tolerant dispatch, worker
// churn every slot, shed queries in the mix — then drains under load.
// After warm-up every bounded store must stay flat: the trace ring and the
// slow log, each Gamma_R cache (at or below its budget), the flight
// recorder's rings (at or below their cap) and the number of exported
// metric series. At the end the books must close: no reservation is left
// outstanding and the ledger spent exactly what the answers say was paid.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "obs/flight_recorder.h"
#include "partition/partitioner.h"
#include "server/query_engine.h"
#include "server/sharded_engine.h"
#include "traffic/time_slots.h"
#include "traffic/traffic_simulator.h"
#include "util/clock.h"
#include "util/rng.h"

namespace crowdrtse::server {
namespace {

constexpr int kShards = 4;
constexpr int kQueriesPerSlot = 53;  // 2 days x 288 slots x 53 >= 30k
constexpr int kWarmupSlots = 32;
constexpr int kShedEvery = 25;
constexpr size_t kRingSize = 32;
constexpr size_t kSlowLogSize = 8;
constexpr int64_t kGammaBudgetBytes = 256 * 1024;

/// Exported series: every non-comment line of the Prometheus exposition.
int64_t SeriesCount(const Engine& engine) {
  std::istringstream lines(engine.metrics().RenderPrometheus());
  int64_t series = 0;
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] != '#') ++series;
  }
  return series;
}

class SoakTest : public ::testing::Test {
 protected:
  SoakTest() {
    util::Rng rng(3);
    graph::RoadNetworkOptions net;
    net.num_roads = 607;
    graph_ = *graph::RoadNetwork(net, rng, &positions_);
    traffic::TrafficModelOptions traffic_options;
    traffic_options.num_days = 8;
    traffic::TrafficSimulator sim(graph_, traffic_options, 5);
    history_ = sim.GenerateHistory();
    truth_ = sim.GenerateEvaluationDay();

    config_.correlation_hop_radius = 2;
    config_.gsp.hop_limit = 2;
    config_.prune_zero_gain_candidates = true;
    config_.correlation_cache.memory_budget_bytes = kGammaBudgetBytes;
    costs_ = crowd::CostModel::Constant(graph_.num_roads(), 2);

    partition::PartitionerOptions options;
    options.num_shards = kShards;
    options.halo_radius = 5;
    options.seed = 17;
    partition_ = *partition::PartitionByGeography(graph_, positions_, options);

    crowd::FaultSpec storm;
    storm.drop_rate = 0.1;
    storm.delay_rate = 0.1;
    storm.duplicate_rate = 0.05;
    storm.corrupt_rate = 0.05;
    engine_options_.fault_tolerant_dispatch = true;
    engine_options_.fault_plan = crowd::FaultPlan(storm, 29);
    engine_options_.clock = &clock_;
    engine_options_.trace_sample_rate = 0.05;
    engine_options_.trace_ring_size = static_cast<int>(kRingSize);
    engine_options_.trace_slow_log_size = static_cast<int>(kSlowLogSize);
  }

  /// Two roads anywhere: on the sharded engine about one query in four is
  /// single-owner, the rest split across shards.
  QueryRequest NextQuery(util::Rng& rng, int slot) {
    QueryRequest request;
    request.slot = slot;
    request.queried = {rng.UniformInt(0, graph_.num_roads() - 1),
                       rng.UniformInt(0, graph_.num_roads() - 1)};
    return request;
  }

  /// Serves two days of slots on `engine`, calling `roll` between slots,
  /// then drains it under load. `pool_threads` is how many of the engine's
  /// own threads may first record after warm-up (a fan-out thread
  /// registers its flight-recorder ring the first time it runs a group).
  void Soak(Engine& engine, BudgetLedger& ledger,
            const std::function<void()>& roll, int pool_threads) {
    const obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    util::Rng rng(41);
    int64_t paid = 0;
    int64_t queries = 0;
    int64_t warm_series = 0;
    int warm_rings = 0;
    for (int roll_index = 0; roll_index < 2 * traffic::kSlotsPerDay;
         ++roll_index) {
      const int slot = roll_index % traffic::kSlotsPerDay;
      for (int q = 0; q < kQueriesPerSlot; ++q, ++queries) {
        const QueryRequest request = NextQuery(rng, slot);
        const util::Result<QueryResponse> response =
            queries % kShedEvery == 0
                ? engine.ServePeriodicFallback(request, truth_)
                : engine.Serve(request, truth_);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        paid += response->paid;
      }
      roll();
      if (roll_index + 1 < kWarmupSlots) continue;
      if (roll_index + 1 == kWarmupSlots) {
        warm_series = SeriesCount(engine);
        warm_rings = recorder.threads_registered();
      }
      SCOPED_TRACE("slot roll " + std::to_string(roll_index));
      ASSERT_EQ(engine.traces().Recent().size(), kRingSize);
      ASSERT_EQ(engine.traces().Slowest().size(), kSlowLogSize);
      const EngineStats stats = engine.stats();
      ASSERT_LE(stats.gamma_cache.resident_bytes,
                kGammaBudgetBytes *
                    std::max<int64_t>(1, static_cast<int64_t>(
                                             stats.shards.size())));
      for (const ShardStats& shard : stats.shards) {
        ASSERT_LE(shard.gamma_cache_bytes, kGammaBudgetBytes);
      }
      // Each ring is a fixed bytes_per_thread, so the ring count bounds the
      // recorder's bytes by its cap.
      ASSERT_LE(recorder.threads_registered(), warm_rings + pool_threads);
      ASSERT_LE(recorder.threads_registered(),
                obs::FlightRecorder::Options{}.max_threads);
      ASSERT_EQ(SeriesCount(engine), warm_series);
    }
    EXPECT_GE(queries, 30000);
    EXPECT_GT(engine.stats().gamma_cache.evictions, 0);

    // Drain under load: clients keep serving until the gate refuses them.
    std::atomic<int64_t> drain_paid{0};
    std::atomic<int> served_under_load{0};
    std::vector<std::thread> clients;
    for (uint64_t c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        util::Rng client_rng(100 + c);
        for (;;) {
          const util::Result<QueryResponse> response =
              engine.Serve(NextQuery(client_rng, 100), truth_);
          if (!response.ok()) {
            EXPECT_EQ(response.status().code(),
                      util::StatusCode::kFailedPrecondition);
            EXPECT_TRUE(engine.draining());
            return;
          }
          drain_paid.fetch_add(response->paid);
          served_under_load.fetch_add(1);
        }
      });
    }
    while (served_under_load.load() < 30) std::this_thread::yield();
    engine.Drain();
    for (std::thread& client : clients) client.join();
    paid += drain_paid.load();

    const EngineStats stats = engine.stats();
    EXPECT_EQ(ledger.reserved_outstanding(), 0);
    EXPECT_EQ(ledger.total_spent(), paid);
    EXPECT_EQ(stats.total_paid, paid);
    EXPECT_EQ(stats.queries_failed, 0);
    EXPECT_GT(stats.crowd_retries, 0) << "the storm never hit dispatch";
  }

  graph::Graph graph_;
  std::vector<std::pair<double, double>> positions_;
  traffic::HistoryStore history_;
  traffic::DayMatrix truth_;
  core::CrowdRtseConfig config_;
  crowd::CostModel costs_;
  partition::Partition partition_;
  util::SimClock clock_;
  QueryEngine::Options engine_options_;
};

TEST_F(SoakTest, QueryEngineStaysBoundedOverTwoDays) {
  core::CrowdRtse system =
      *core::CrowdRtse::BuildOffline(graph_, history_, config_);
  WorkerRegistry registry(graph_, WorkerRegistryOptions{}, 7);
  crowd::CrowdSimulator crowd_sim(crowd::CrowdSimOptions{}, util::Rng(9));
  BudgetLedger ledger(-1, 12);
  QueryEngine engine(system, registry, ledger, costs_, crowd_sim,
                     engine_options_);
  Soak(engine, ledger, [&] { registry.AdvanceSlot(); }, /*pool_threads=*/0);
}

TEST_F(SoakTest, ShardedEngineStaysBoundedOverTwoDays) {
  WorkerRegistry registry(graph_, WorkerRegistryOptions{}, 7);
  BudgetLedger ledger(-1, 12);
  ShardedEngineOptions options;
  options.engine = engine_options_;
  options.fanout_threads = kShards;
  auto created =
      ShardedEngine::Create(graph_, partition_, history_, config_, costs_,
                            registry.workers(), ledger, truth_, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ShardedEngine& engine = **created;
  engine.SetFaultPlan(engine_options_.fault_plan);
  Soak(
      engine, ledger,
      [&] {
        registry.AdvanceSlot();
        engine.SyncWorkers(registry.workers());
      },
      options.fanout_threads);
}

}  // namespace
}  // namespace crowdrtse::server
