// Metropolitan-scale sharding sweep: one synthetic metro network (60k-600k
// roads), partitioned K ways, served by ShardedEngine under closed-loop
// client load. For each shard count the driver replays the same localized
// query mix and reports answered QPS, so the sweep isolates what sharding
// buys: per-shard worker registries (the O(workers) coverage scan shrinks
// K-fold), per-shard Gamma_R caches, and K independent crowd-phase locks.
//
// Invariants checked every configuration, strict mode additionally gates
// on near-linear scaling:
//   - zero failed queries; served + rejected == attempts (no silent drops);
//   - with the unlimited campaign here, rejected == 0 as well;
//   - the global ledger settles every reservation (outstanding == 0) and
//     its spend equals the sum of per-response payments;
//   - partition balance <= 1.2, every configuration;
//   - strict (default): answered QPS at the largest K >= 3x the K=1 QPS.
//
// Work per query: every response carries deterministic work counts (roads
// visited by the candidate ball, worker-index entries read, candidates
// scored, GSP road updates). The first kWorkQueries queries of the mix are
// summed at each K, on the timed sweep's map and on one more map of
// kWorkRoads roads (served by one client, untimed). Work counts do
// not depend on timing or load, so tools/bench_trend gates how work per
// query grows with the city exactly.
//
// Artifacts: BENCH_scale.json (the sweep as one JSON object) next to the
// binary, or wherever --out points.
//
// Flags: --roads=N --shards=1,4 --clients=8 --queries=N --halo=5
//        --out=PATH --no-strict
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "partition/partition.h"
#include "partition/partitioner.h"
#include "server/budget_ledger.h"
#include "server/sharded_engine.h"
#include "traffic/history_store.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crowdrtse::bench {
namespace {

struct Flags {
  int roads = 60000;
  std::vector<int> shards = {1, 4};
  int clients = 8;
  int queries = 1600;
  int halo = 5;
  std::string out = "BENCH_scale.json";
  bool strict = true;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_flag = [&arg](const char* name, int* value) {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *value = std::atoi(arg.c_str() + prefix.size());
        return true;
      }
      return false;
    };
    if (int_flag("--roads", &flags.roads)) continue;
    if (int_flag("--clients", &flags.clients)) continue;
    if (int_flag("--queries", &flags.queries)) continue;
    if (int_flag("--halo", &flags.halo)) continue;
    if (arg.rfind("--shards=", 0) == 0) {
      flags.shards.clear();
      for (const std::string& part : util::Split(arg.substr(9), ',')) {
        flags.shards.push_back(std::atoi(part.c_str()));
      }
      continue;
    }
    if (arg.rfind("--out=", 0) == 0) {
      flags.out = arg.substr(6);
      continue;
    }
    if (arg == "--no-strict") {
      flags.strict = false;
      continue;
    }
    std::printf("unknown flag: %s\n", arg.c_str());
    std::exit(2);
  }
  CROWDRTSE_CHECK(!flags.shards.empty());
  return flags;
}

constexpr int kSlots = 8;  // a short synthetic day keeps history cheap
constexpr int kDays = 3;
constexpr int kQuerySize = 4;
constexpr int kPerQueryCap = 12;
// Work counts: the first kWorkQueries queries of the mix, summed per K on
// the timed map and on one kWorkRoads-road map.
constexpr int kWorkRoads = 8000;
constexpr int kWorkQueries = 2000;

/// Deterministic synthetic speed field: a west-east congestion gradient
/// with per-slot waves and day-to-day jitter (so moment estimation sees
/// real variance). All values stay comfortably positive.
double SpeedAt(int day, int slot, graph::RoadId road, double x) {
  const double base = 30.0 + 40.0 * x;
  const double wave = 6.0 * std::sin(0.7 * slot + 0.01 * road);
  const double jitter =
      1.5 * (((day * 7 + slot * 3 + road) % 5) - 2);
  return base + wave + jitter;
}

/// One synthetic metro world: the map, its history and "today", uniform
/// costs and two noiseless workers on every road.
struct World {
  graph::Graph graph;
  std::vector<std::pair<double, double>> positions;
  traffic::HistoryStore history;
  traffic::DayMatrix truth;
  crowd::CostModel costs;
  std::vector<crowd::Worker> workers;
};

World BuildWorld(int roads) {
  World world;
  graph::MetroNetworkOptions metro;
  metro.num_roads = roads;
  util::Timer gen_timer;
  auto graph = graph::MetroNetwork(metro, &world.positions);
  CROWDRTSE_CHECK(graph.ok());
  world.graph = std::move(*graph);
  const int n = world.graph.num_roads();
  std::printf("metro network: %d roads, %d edges (%.2fs)\n", n,
              world.graph.num_edges(), gen_timer.ElapsedSeconds());

  world.history = traffic::HistoryStore(n, kDays, kSlots);
  world.truth = traffic::DayMatrix(kSlots, n);
  for (int slot = 0; slot < kSlots; ++slot) {
    for (graph::RoadId r = 0; r < n; ++r) {
      const double x = world.positions[static_cast<size_t>(r)].first;
      for (int day = 0; day < kDays; ++day) {
        world.history.At(day, slot, r) = SpeedAt(day, slot, r, x);
      }
      world.truth.At(slot, r) = SpeedAt(kDays, slot, r, x);  // "today"
    }
  }
  world.costs = crowd::CostModel::Constant(n, 2);
  world.workers.reserve(static_cast<size_t>(n) * 2);
  crowd::WorkerId next_id = 0;
  for (graph::RoadId r = 0; r < n; ++r) {
    for (int k = 0; k < 2; ++k) {
      crowd::Worker w;
      w.id = next_id++;
      w.road = r;
      w.bias = 1.0;
      w.noise_kmh = 0.0;
      world.workers.push_back(w);
    }
  }
  return world;
}

/// Query q of the deterministic localized mix: 4 geographically adjacent
/// roads, spread across the whole city, slots rotating through the day.
server::QueryRequest MixQuery(int q, int num_roads) {
  server::QueryRequest request;
  request.slot = q % kSlots;
  const graph::RoadId base = static_cast<graph::RoadId>(
      (static_cast<int64_t>(q) * 9973) %
      static_cast<int64_t>(num_roads - kQuerySize));
  for (int k = 0; k < kQuerySize; ++k) request.queried.push_back(base + k);
  return request;
}

struct SweepPoint {
  int roads = 0;
  int shards = 0;
  double partition_seconds = 0.0;
  double build_seconds = 0.0;
  double wall_seconds = 0.0;
  double answered_qps = 0.0;
  int64_t served = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
  int64_t cross_shard = 0;
  int64_t paid = 0;
  int64_t edge_cut = 0;
  double balance_ratio = 0.0;
  /// Work of the first kWorkQueries queries of the mix.
  int64_t work_queries = 0;
  server::ServeWork work;

  double WorkPerQuery() const {
    return work_queries > 0 ? static_cast<double>(work.Total()) /
                                  static_cast<double>(work_queries)
                            : 0.0;
  }
};

/// Partitions `world` K ways, builds a ShardedEngine over it and serves
/// queries [0, queries) of the mix from `clients` closed-loop clients,
/// checking the accounting invariants. Work sums over q < work_queries.
SweepPoint ServePoint(const World& world, int num_shards, int clients,
                      int queries, int halo, int work_queries) {
  SweepPoint point;
  point.roads = world.graph.num_roads();
  point.shards = num_shards;
  const int n = world.graph.num_roads();

  partition::PartitionerOptions partition_options;
  partition_options.num_shards = num_shards;
  partition_options.halo_radius = halo;
  partition_options.seed = 17;
  util::Timer partition_timer;
  const auto partition = partition::PartitionByGeography(
      world.graph, world.positions, partition_options);
  CROWDRTSE_CHECK(partition.ok());
  point.partition_seconds = partition_timer.ElapsedSeconds();
  point.edge_cut = partition::EdgeCut(world.graph, *partition);
  point.balance_ratio = partition->BalanceRatio();
  CROWDRTSE_CHECK(point.balance_ratio <= 1.2);

  core::CrowdRtseConfig config;
  config.correlation_hop_radius = 2;
  config.gsp.hop_limit = 2;
  config.prune_zero_gain_candidates = true;
  crowd::CrowdSimOptions crowd_options;
  crowd_options.min_bias = 1.0;
  crowd_options.max_bias = 1.0;
  crowd_options.min_noise_kmh = 0.0;
  crowd_options.max_noise_kmh = 0.0;
  crowd_options.outlier_rate = 0.0;

  server::BudgetLedger ledger(/*campaign_budget=*/-1, kPerQueryCap);
  server::ShardedEngineOptions engine_options;
  engine_options.engine.propagator_pool_size = clients;
  engine_options.crowd = crowd_options;
  util::Timer build_timer;
  auto engine = server::ShardedEngine::Create(
      world.graph, *partition, world.history, config, world.costs,
      world.workers, ledger, world.truth, engine_options);
  CROWDRTSE_CHECK(engine.ok());
  point.build_seconds = build_timer.ElapsedSeconds();
  std::printf(
      "%d roads, K=%d: partition %.2fs (cut %lld, balance %.3f), build "
      "%.2fs\n",
      n, num_shards, point.partition_seconds,
      static_cast<long long>(point.edge_cut), point.balance_ratio,
      point.build_seconds);

  std::atomic<int64_t> attempts{0};
  std::atomic<int64_t> total_response_paid{0};
  std::mutex work_mutex;
  util::Timer wall;
  std::vector<std::thread> threads;
  const int per_client = (queries + clients - 1) / clients;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int begin = c * per_client;
      const int end = std::min(queries, begin + per_client);
      server::ServeWork work;
      int64_t counted = 0;
      for (int q = begin; q < end; ++q) {
        attempts.fetch_add(1, std::memory_order_relaxed);
        const auto response = (*engine)->Serve(MixQuery(q, n), world.truth);
        CROWDRTSE_CHECK(response.ok());
        total_response_paid.fetch_add(response->paid,
                                      std::memory_order_relaxed);
        if (q < work_queries) {
          work += response->work;
          ++counted;
        }
      }
      std::lock_guard<std::mutex> lock(work_mutex);
      point.work += work;
      point.work_queries += counted;
    });
  }
  for (std::thread& t : threads) t.join();
  point.wall_seconds = wall.ElapsedSeconds();

  const server::EngineStats stats = (*engine)->stats();
  point.served = stats.queries_served;
  point.rejected = stats.queries_rejected;
  point.failed = stats.queries_failed;
  point.paid = stats.total_paid;
  point.answered_qps =
      static_cast<double>(point.served) / point.wall_seconds;
  int64_t sub_served = 0;
  for (const server::ShardStats& shard : stats.shards) {
    std::printf("  shard[%d]: served %lld, gamma bytes %lld\n", shard.shard,
                static_cast<long long>(shard.queries_served),
                static_cast<long long>(shard.gamma_cache_bytes));
    sub_served += shard.queries_served;
  }
  // Each multi-owner query runs one sub-serve per owner shard, so the
  // sub-serve surplus over router serves counts the extra fan-out groups.
  point.cross_shard = std::max<int64_t>(0, sub_served - point.served);

  // The accounting invariants the sweep certifies at every K.
  CROWDRTSE_CHECK(point.failed == 0);
  CROWDRTSE_CHECK(point.rejected == 0);
  CROWDRTSE_CHECK(point.served + point.rejected == attempts.load());
  CROWDRTSE_CHECK(ledger.reserved_outstanding() == 0);
  CROWDRTSE_CHECK(ledger.total_spent() == total_response_paid.load());
  CROWDRTSE_CHECK(ledger.total_spent() == point.paid);

  std::printf(
      "%d roads, K=%d: %lld served in %.2fs -> %.1f answered QPS; work per "
      "query %.1f (ball %lld, workers %lld, candidates %lld, gsp %lld over "
      "%lld queries)\n",
      n, num_shards, static_cast<long long>(point.served),
      point.wall_seconds, point.answered_qps, point.WorkPerQuery(),
      static_cast<long long>(point.work.ball_roads),
      static_cast<long long>(point.work.workers_read),
      static_cast<long long>(point.work.candidates_scored),
      static_cast<long long>(point.work.gsp_roads_relaxed),
      static_cast<long long>(point.work_queries));
  (*engine)->Drain();
  return point;
}

std::string WorkJson(const SweepPoint& p) {
  return "{\"roads\": " + std::to_string(p.roads) +
         ", \"shards\": " + std::to_string(p.shards) +
         ", \"queries\": " + std::to_string(p.work_queries) +
         ", \"ball_roads\": " + std::to_string(p.work.ball_roads) +
         ", \"workers_read\": " + std::to_string(p.work.workers_read) +
         ", \"candidates_scored\": " +
         std::to_string(p.work.candidates_scored) +
         ", \"gsp_roads_relaxed\": " +
         std::to_string(p.work.gsp_roads_relaxed) +
         ", \"work_per_query\": " + util::FormatDouble(p.WorkPerQuery(), 3) +
         "}";
}

void DumpArtifact(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::printf("WARNING: could not write %s\n", path.c_str());
    return;
  }
  std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

void Run(const Flags& flags) {
  std::printf("=== bench_scale: %d roads, shards {", flags.roads);
  for (size_t i = 0; i < flags.shards.size(); ++i) {
    std::printf("%s%d", i ? "," : "", flags.shards[i]);
  }
  std::printf("}, %d clients, %d queries ===\n", flags.clients,
              flags.queries);

  std::vector<SweepPoint> sweep;
  std::vector<SweepPoint> work;
  {
    const World world = BuildWorld(flags.roads);
    for (const int num_shards : flags.shards) {
      sweep.push_back(ServePoint(world, num_shards, flags.clients,
                                 flags.queries, flags.halo,
                                 kWorkQueries));
    }
  }
  // Work-only points: one client, exactly the counted queries, untimed.
  {
    const World world = BuildWorld(kWorkRoads);
    for (const int num_shards : flags.shards) {
      work.push_back(ServePoint(world, num_shards, /*clients=*/1,
                                kWorkQueries, flags.halo, kWorkQueries));
    }
  }
  work.insert(work.end(), sweep.begin(), sweep.end());
  std::sort(work.begin(), work.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.roads != b.roads ? a.roads < b.roads
                                        : a.shards < b.shards;
            });

  double ratio = 0.0;
  const auto base_point =
      std::find_if(sweep.begin(), sweep.end(),
                   [](const SweepPoint& p) { return p.shards == 1; });
  const auto peak_point = std::max_element(
      sweep.begin(), sweep.end(), [](const SweepPoint& a,
                                     const SweepPoint& b) {
        return a.shards < b.shards;
      });
  if (base_point != sweep.end() && peak_point != sweep.end() &&
      peak_point->shards > 1) {
    ratio = peak_point->answered_qps / base_point->answered_qps;
    std::printf("scaling 1 -> %d shards: %.2fx answered QPS\n",
                peak_point->shards, ratio);
  }

  std::string json = "{\n";
  json += "  \"bench\": \"scale\",\n";
  json += "  \"roads\": " + std::to_string(flags.roads) + ",\n";
  json += "  \"clients\": " + std::to_string(flags.clients) + ",\n";
  json += "  \"queries\": " + std::to_string(flags.queries) + ",\n";
  json += "  \"halo_radius\": " + std::to_string(flags.halo) + ",\n";
  json += "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    json += "    {\"shards\": " + std::to_string(p.shards) +
            ", \"partition_seconds\": " +
            util::FormatDouble(p.partition_seconds, 3) +
            ", \"build_seconds\": " +
            util::FormatDouble(p.build_seconds, 3) +
            ", \"edge_cut\": " + std::to_string(p.edge_cut) +
            ", \"balance_ratio\": " +
            util::FormatDouble(p.balance_ratio, 4) +
            ", \"wall_seconds\": " +
            util::FormatDouble(p.wall_seconds, 3) +
            ", \"answered_qps\": " +
            util::FormatDouble(p.answered_qps, 1) +
            ", \"served\": " + std::to_string(p.served) +
            ", \"rejected\": " + std::to_string(p.rejected) +
            ", \"failed\": " + std::to_string(p.failed) +
            ", \"paid\": " + std::to_string(p.paid) + "}";
    json += (i + 1 < sweep.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"work\": [\n";
  for (size_t i = 0; i < work.size(); ++i) {
    json += "    " + WorkJson(work[i]);
    json += (i + 1 < work.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"qps_ratio_1_to_max\": " + util::FormatDouble(ratio, 3) +
          "\n";
  json += "}\n";
  DumpArtifact(flags.out, json);

  if (flags.strict && ratio > 0.0) {
    CROWDRTSE_CHECK(ratio >= 3.0);
    std::printf("strict scaling gate passed (%.2fx >= 3x)\n", ratio);
  }
}

}  // namespace
}  // namespace crowdrtse::bench

int main(int argc, char** argv) {
  crowdrtse::bench::Run(crowdrtse::bench::ParseFlags(argc, argv));
  return 0;
}
