#include "server/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "obs/flight_recorder.h"
#include "partition/partitioner.h"
#include "rtf/correlation_table.h"
#include "server/query_engine.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace crowdrtse::server {
namespace {

// The locality knobs of the exactness contract: correlation hop radius C,
// GSP hop limit H, halo >= max(2C, C + H + 1).
constexpr int kHopC = 2;
constexpr int kHopH = 2;
constexpr int kHalo = 5;

/// Shared world: the paper's 607-road network, a trained model with both
/// locality knobs on, a noiseless worker pool (bias 1, noise 0) so crowd
/// answers equal ground truth regardless of per-shard RNG streams — the
/// precondition for sharded-vs-unsharded bit-identity.
class ShardedEngineTest : public ::testing::Test {
 protected:
  ShardedEngineTest() {
    util::Rng rng(3);
    graph::RoadNetworkOptions net;
    net.num_roads = 607;
    graph_ = *graph::RoadNetwork(net, rng, &positions_);
    traffic::TrafficModelOptions traffic_options;
    traffic_options.num_days = 8;
    traffic::TrafficSimulator sim(graph_, traffic_options, 5);
    history_ = sim.GenerateHistory();
    truth_ = sim.GenerateEvaluationDay();

    config_.correlation_hop_radius = kHopC;
    config_.gsp.hop_limit = kHopH;
    config_.prune_zero_gain_candidates = true;
    config_.refine_with_ccd = false;

    costs_ = crowd::CostModel::Constant(graph_.num_roads(), 2);

    // Deterministic noiseless crowd: 4 workers per road, everywhere.
    crowd::WorkerId next_id = 0;
    for (graph::RoadId r = 0; r < graph_.num_roads(); ++r) {
      for (int k = 0; k < 4; ++k) {
        crowd::Worker w;
        w.id = next_id++;
        w.road = r;
        w.bias = 1.0;
        w.noise_kmh = 0.0;
        workers_.push_back(w);
      }
    }

    crowd_options_.min_bias = 1.0;
    crowd_options_.max_bias = 1.0;
    crowd_options_.min_noise_kmh = 0.0;
    crowd_options_.max_noise_kmh = 0.0;
    crowd_options_.outlier_rate = 0.0;
  }

  partition::Partition MakePartition(int num_shards, int halo = kHalo) {
    partition::PartitionerOptions options;
    options.num_shards = num_shards;
    options.halo_radius = halo;
    options.seed = 17;
    return *partition::PartitionByGeography(graph_, positions_, options);
  }

  std::unique_ptr<ShardedEngine> MakeSharded(int num_shards,
                                             BudgetLedger& ledger) {
    ShardedEngineOptions options;
    options.crowd = crowd_options_;
    auto engine =
        ShardedEngine::Create(graph_, MakePartition(num_shards), history_,
                              config_, costs_, workers_, ledger, truth_,
                              options);
    EXPECT_TRUE(engine.ok()) << engine.status().message();
    return std::move(*engine);
  }

  /// The unsharded reference engine over the same world and knobs.
  struct Reference {
    std::unique_ptr<core::CrowdRtse> system;
    std::unique_ptr<WorkerRegistry> registry;
    std::unique_ptr<crowd::CrowdSimulator> crowd_sim;
    std::unique_ptr<QueryEngine> engine;
  };
  Reference MakeReference(BudgetLedger& ledger) {
    Reference ref;
    ref.system = std::make_unique<core::CrowdRtse>(
        *core::CrowdRtse::BuildOffline(graph_, history_, config_));
    ref.registry = std::make_unique<WorkerRegistry>(
        graph_, workers_, WorkerRegistryOptions{}, 7);
    ref.crowd_sim = std::make_unique<crowd::CrowdSimulator>(crowd_options_,
                                                            util::Rng(9));
    ref.engine = std::make_unique<QueryEngine>(
        *ref.system, *ref.registry, ledger, costs_, *ref.crowd_sim,
        QueryEngine::Options{});
    return ref;
  }

  static void ExpectBitIdentical(const QueryResponse& got,
                                 const QueryResponse& want) {
    // Everything deterministic must match bitwise; wall-clock latencies
    // and trace summaries are exempt by construction.
    ASSERT_EQ(got.queried_speeds.size(), want.queried_speeds.size());
    for (size_t i = 0; i < want.queried_speeds.size(); ++i) {
      EXPECT_EQ(got.queried_speeds[i], want.queried_speeds[i])
          << "speed " << i;
    }
    EXPECT_EQ(got.probed_roads, want.probed_roads);
    EXPECT_EQ(got.underfilled_roads, want.underfilled_roads);
    EXPECT_EQ(got.degraded_roads, want.degraded_roads);
    EXPECT_EQ(got.queried_variances, want.queried_variances);
    EXPECT_EQ(got.granted_budget, want.granted_budget);
    EXPECT_EQ(got.paid, want.paid);
    EXPECT_EQ(got.gsp_sweeps, want.gsp_sweeps);
  }

  graph::Graph graph_;
  std::vector<std::pair<double, double>> positions_;
  traffic::HistoryStore history_;
  traffic::DayMatrix truth_;
  core::CrowdRtseConfig config_;
  crowd::CostModel costs_;
  std::vector<crowd::Worker> workers_;
  crowd::CrowdSimOptions crowd_options_;
};

TEST_F(ShardedEngineTest, SingleShardBitIdenticalToUnsharded) {
  BudgetLedger ledger_ref(100000, 12);
  BudgetLedger ledger_sharded(100000, 12);
  Reference ref = MakeReference(ledger_ref);
  auto sharded = MakeSharded(1, ledger_sharded);

  for (int q = 0; q < 6; ++q) {
    QueryRequest request;
    request.slot = 100 + q;
    request.queried = {static_cast<graph::RoadId>(3 + 90 * q),
                       static_cast<graph::RoadId>(17 + 90 * q),
                       static_cast<graph::RoadId>(42 + 90 * q)};
    const auto want = ref.engine->Serve(request, truth_);
    const auto got = sharded->Serve(request, truth_);
    ASSERT_TRUE(want.ok()) << want.status().message();
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectBitIdentical(*got, *want);
  }
  EXPECT_EQ(ledger_sharded.total_spent(), ledger_ref.total_spent());
  EXPECT_EQ(ledger_sharded.reserved_outstanding(), 0);
}

// The golden acceptance test: K=4 sharded serving reproduces unsharded
// answers bitwise on single-owner queries, the common case the partitioner
// optimises for.
TEST_F(ShardedEngineTest, FourShardsBitIdenticalOnSingleOwnerQueries) {
  BudgetLedger ledger_ref(100000, 12);
  BudgetLedger ledger_sharded(100000, 12);
  Reference ref = MakeReference(ledger_ref);
  auto sharded = MakeSharded(4, ledger_sharded);

  const partition::Partition& partition = sharded->partition();
  int compared = 0;
  for (int s = 0; s < 4; ++s) {
    const auto& owned = partition.shards[static_cast<size_t>(s)].owned;
    ASSERT_GE(owned.size(), 12u);
    // A handful of queries per shard, roads spread across its territory.
    for (int q = 0; q < 3; ++q) {
      QueryRequest request;
      request.slot = 80 + 10 * s + q;
      request.queried = {owned[static_cast<size_t>(q)],
                         owned[owned.size() / 2],
                         owned[owned.size() - 1 - static_cast<size_t>(q)]};
      const auto want = ref.engine->Serve(request, truth_);
      const auto got = sharded->Serve(request, truth_);
      ASSERT_TRUE(want.ok()) << want.status().message();
      ASSERT_TRUE(got.ok()) << got.status().message();
      ExpectBitIdentical(*got, *want);
      ++compared;
    }
  }
  EXPECT_EQ(compared, 12);
  EXPECT_EQ(ledger_sharded.total_spent(), ledger_ref.total_spent());
  EXPECT_EQ(ledger_sharded.reserved_outstanding(), 0);
  EXPECT_EQ(sharded->stats().queries_served, 12);
}

TEST_F(ShardedEngineTest, CrossShardQueryMergesSanely) {
  BudgetLedger ledger(100000, 20);
  auto sharded = MakeSharded(4, ledger);
  const partition::Partition& partition = sharded->partition();

  QueryRequest request;
  request.slot = 100;
  // Two owned roads from every shard: maximally cross-shard.
  for (int s = 0; s < 4; ++s) {
    const auto& owned = partition.shards[static_cast<size_t>(s)].owned;
    request.queried.push_back(owned.front());
    request.queried.push_back(owned[owned.size() / 2]);
  }
  const auto response = sharded->Serve(request, truth_);
  ASSERT_TRUE(response.ok()) << response.status().message();
  ASSERT_EQ(response->queried_speeds.size(), request.queried.size());
  for (size_t i = 0; i < request.queried.size(); ++i) {
    EXPECT_GT(response->queried_speeds[i], 0.0) << "road "
                                                << request.queried[i];
    EXPECT_LT(response->queried_speeds[i], 200.0);
    // Each speed matches what the owner shard believes: noiseless workers
    // mean probed roads carry exact truth.
  }
  EXPECT_GT(response->paid, 0);
  EXPECT_LE(response->paid, response->granted_budget);
  // Provenance is sorted and deduplicated after the merge.
  EXPECT_TRUE(std::is_sorted(response->probed_roads.begin(),
                             response->probed_roads.end()));
  EXPECT_EQ(std::adjacent_find(response->probed_roads.begin(),
                               response->probed_roads.end()),
            response->probed_roads.end());
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
  EXPECT_EQ(ledger.total_spent(), response->paid);

  const EngineStats stats = sharded->stats();
  EXPECT_EQ(stats.queries_served, 1);
  const std::string prom = sharded->metrics().RenderPrometheus();
  EXPECT_NE(prom.find("crowdrtse_queries_cross_shard_total 1"),
            std::string::npos);
}

TEST_F(ShardedEngineTest, ZeroCapGroupsFallBackInsteadOfOverspending) {
  BudgetLedger ledger(100000, 20);
  auto sharded = MakeSharded(4, ledger);
  const partition::Partition& partition = sharded->partition();

  QueryRequest request;
  request.slot = 100;
  for (int s = 0; s < 4; ++s) {
    request.queried.push_back(
        partition.shards[static_cast<size_t>(s)].owned.front());
  }
  // One unit across four owner groups: three proportional caps round to
  // zero and must answer from the periodic fallback, not overspend.
  request.budget_cap = 1;
  const auto response = sharded->Serve(request, truth_);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_LE(response->paid, 1);
  EXPECT_FALSE(response->degraded_roads.empty());
  EXPECT_EQ(ledger.total_spent(), response->paid);
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
}

TEST_F(ShardedEngineTest, StatsCarryPerShardBreakdown) {
  BudgetLedger ledger(100000, 12);
  auto sharded = MakeSharded(4, ledger);
  const partition::Partition& partition = sharded->partition();

  QueryRequest request;
  request.slot = 100;
  request.queried = {partition.shards[0].owned.front(),
                     partition.shards[0].owned.back()};
  ASSERT_TRUE(sharded->Serve(request, truth_).ok());

  const EngineStats stats = sharded->stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  EXPECT_EQ(stats.shards[0].shard, 0);
  EXPECT_EQ(stats.shards[0].queries_served, 1);
  EXPECT_EQ(stats.shards[1].queries_served, 0);
  EXPECT_GT(stats.shards[0].gamma_cache_bytes, 0);

  const std::string report = stats.Report();
  EXPECT_NE(report.find("shard[0]"), std::string::npos) << report;
  EXPECT_NE(report.find("shard[3]"), std::string::npos);
  const std::string json = stats.ReportJson();
  EXPECT_NE(json.find("\"crowdrtse_shards\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard\":0"), std::string::npos);

  // An unsharded engine's JSON stays free of the per-shard array.
  BudgetLedger ref_ledger(1000, 12);
  Reference ref = MakeReference(ref_ledger);
  EXPECT_EQ(ref.engine->stats().ReportJson().find("crowdrtse_shards"),
            std::string::npos);
}

TEST_F(ShardedEngineTest, MetricsExposeLabeledShardSeries) {
  BudgetLedger ledger(100000, 12);
  auto sharded = MakeSharded(2, ledger);
  const std::string prom = sharded->metrics().RenderPrometheus();
  EXPECT_NE(prom.find("crowdrtse_shard_queries_served{shard=\"0\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("crowdrtse_shard_queries_served{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("crowdrtse_shard_owned_roads{shard=\"0\"}"),
            std::string::npos);
  // One TYPE header per family, not one per labeled series.
  size_t count = 0;
  const std::string header = "# TYPE crowdrtse_shard_queries_served gauge";
  for (size_t pos = prom.find(header); pos != std::string::npos;
       pos = prom.find(header, pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST_F(ShardedEngineTest, PeriodicFallbackAnswersEveryRoad) {
  BudgetLedger ledger(100000, 12);
  auto sharded = MakeSharded(4, ledger);
  const partition::Partition& partition = sharded->partition();

  QueryRequest request;
  request.slot = 100;
  for (int s = 0; s < 4; ++s) {
    request.queried.push_back(
        partition.shards[static_cast<size_t>(s)].owned.front());
  }
  const auto response = sharded->ServePeriodicFallback(request, truth_);
  ASSERT_TRUE(response.ok()) << response.status().message();
  ASSERT_EQ(response->queried_speeds.size(), request.queried.size());
  for (double v : response->queried_speeds) EXPECT_GT(v, 0.0);
  // Everything degraded as load-shed, nothing paid, nothing reserved.
  EXPECT_EQ(response->degraded_roads.size(), request.queried.size());
  EXPECT_EQ(response->paid, 0);
  EXPECT_EQ(ledger.total_spent(), 0);
  EXPECT_EQ(sharded->stats().queries_shed, 1);
}

TEST_F(ShardedEngineTest, DrainRefusesNewQueries) {
  BudgetLedger ledger(100000, 12);
  auto sharded = MakeSharded(2, ledger);
  sharded->Drain();
  EXPECT_TRUE(sharded->draining());
  QueryRequest request;
  request.slot = 100;
  request.queried = {1};
  const auto rejected = sharded->Serve(request, truth_);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ShardedEngineTest, RejectsForeignWorldAndBadRequests) {
  BudgetLedger ledger(100000, 12);
  auto sharded = MakeSharded(2, ledger);

  traffic::DayMatrix other(truth_.num_slots(), truth_.num_roads());
  QueryRequest request;
  request.slot = 100;
  request.queried = {1};
  EXPECT_FALSE(sharded->Serve(request, other).ok());

  QueryRequest empty;
  empty.slot = 100;
  EXPECT_FALSE(sharded->Serve(empty, truth_).ok());

  QueryRequest bad_road;
  bad_road.slot = 100;
  bad_road.queried = {graph_.num_roads()};
  EXPECT_FALSE(sharded->Serve(bad_road, truth_).ok());

  QueryRequest bad_slot;
  bad_slot.slot = truth_.num_slots();
  bad_slot.queried = {1};
  EXPECT_FALSE(sharded->Serve(bad_slot, truth_).ok());
  EXPECT_EQ(sharded->stats().queries_rejected, 4);
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
}

TEST_F(ShardedEngineTest, CreateEnforcesTheHaloInvariant) {
  BudgetLedger ledger(100000, 12);
  ShardedEngineOptions options;
  options.crowd = crowd_options_;
  // halo 3 < max(2C, C+H+1) = 5: locality contract broken, refuse to build.
  const auto engine =
      ShardedEngine::Create(graph_, MakePartition(4, 3), history_, config_,
                            costs_, workers_, ledger, truth_, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().message().find("halo_radius"),
            std::string::npos)
      << engine.status().message();
}

TEST_F(ShardedEngineTest, RefineSlotPatchesEveryShardIncrementally) {
  // Incremental Gamma_R maintenance through the sharded front-end: after a
  // fan-out RefineSlot, every shard's resident table must equal a full
  // recompute from that shard's (refined) model bit for bit.
  BudgetLedger ledger(100000, 12);
  auto sharded = MakeSharded(3, ledger);
  const int slot = 30;
  for (int s = 0; s < sharded->num_shards(); ++s) {
    // Warm the slot so the incremental patch has a resident table.
    ASSERT_TRUE(sharded->shard_system(s).CorrelationsFor(slot).ok());
  }
  const auto rows = sharded->RefineSlot(slot);
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  ASSERT_EQ(static_cast<int>(rows->size()), sharded->num_shards());
  for (int s = 0; s < sharded->num_shards(); ++s) {
    // With a warm sparse closure the incremental path never falls back:
    // either it patched rows or CCD changed no edge correlation.
    EXPECT_GE((*rows)[static_cast<size_t>(s)], 0) << "shard " << s;
    core::CrowdRtse& system = sharded->shard_system(s);
    const auto resident = system.CorrelationsFor(slot);
    ASSERT_TRUE(resident.ok());
    const auto full = rtf::CorrelationTable::Compute(
        system.model(), slot, system.config().path_mode, nullptr,
        system.config().correlation_hop_radius);
    ASSERT_TRUE(full.ok()) << full.status().message();
    EXPECT_EQ((*resident)->Serialize(), full->Serialize()) << "shard " << s;
  }
}

TEST_F(ShardedEngineTest, CreateRejectsPartitionFromAnotherGraph) {
  BudgetLedger ledger(100000, 12);
  ShardedEngineOptions options;
  options.crowd = crowd_options_;
  partition::Partition partition = MakePartition(4);
  partition.graph_checksum ^= 1;
  const auto engine =
      ShardedEngine::Create(graph_, partition, history_, config_, costs_,
                            workers_, ledger, truth_, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_NE(engine.status().message().find("checksum"), std::string::npos);
}

TEST_F(ShardedEngineTest, CrossShardQueryYieldsOneStitchedTrace) {
  BudgetLedger ledger(-1, 24);
  ShardedEngineOptions options;
  options.crowd = crowd_options_;
  options.engine.trace_sample_rate = 1.0;
  options.engine.profile_sample_rate = 1.0;
  const partition::Partition partition = MakePartition(4);
  const auto engine =
      ShardedEngine::Create(graph_, partition, history_, config_, costs_,
                            workers_, ledger, truth_, options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();

  // Three owned roads from every shard: the query MUST split 4 ways.
  QueryRequest request;
  request.slot = 12;
  std::map<int, int> taken;
  std::set<int> owners;
  for (graph::RoadId r = 0; r < graph_.num_roads(); ++r) {
    const int owner = partition.OwnerOf(r);
    if (taken[owner]++ < 3) {
      request.queried.push_back(r);
      owners.insert(owner);
    }
  }
  ASSERT_EQ(owners.size(), 4u);

  const auto response = (*engine)->Serve(request, truth_);
  ASSERT_TRUE(response.ok()) << response.status().message();

  // The router samples; sub-engines adopt — so exactly ONE trace exists
  // for this query, holding every shard's spans, not K disconnected ones.
  std::shared_ptr<const util::trace::Trace> trace;
  for (const auto& t : (*engine)->traces().Recent()) {
    if (t->query_id() != response->query_id) continue;
    EXPECT_EQ(trace, nullptr) << "query produced more than one trace";
    trace = t;
  }
  ASSERT_NE(trace, nullptr);

  const std::vector<util::trace::SpanRecord> spans = trace->spans();
  std::map<int64_t, const util::trace::SpanRecord*> by_id;
  for (const auto& span : spans) by_id[span.id] = &span;
  // Spans land in completion order (fan-out children often finish before
  // the root closes), so resolve the root first, then validate edges.
  int roots = 0;
  int64_t root_id = 0;
  for (const auto& span : spans) {
    if (span.parent != 0) continue;
    ++roots;
    root_id = span.id;
    EXPECT_EQ(span.name, "serve");
  }
  EXPECT_EQ(roots, 1);
  std::set<std::string> shard_tags;
  bool have_merge = false;
  for (const auto& span : spans) {
    if (span.parent != 0) {
      EXPECT_EQ(by_id.count(span.parent), 1u)
          << "orphan span '" << span.name << "'";
    }
    if (span.name == "shard") {
      EXPECT_EQ(span.parent, root_id) << "shard span not under the root";
      for (const auto& annotation : span.annotations) {
        if (annotation.key == "shard") shard_tags.insert(annotation.value);
      }
    }
    if (span.name == "merge") have_merge = true;
  }
  EXPECT_EQ(shard_tags.size(), 4u) << "shard children must cover every owner";
  EXPECT_TRUE(have_merge);

  // The rollup fans back through the merge into the response.
  EXPECT_EQ(response->trace_summary.query_id, response->query_id);
  EXPECT_FALSE(response->trace_summary.lines.empty());

  // The flight recorder saw the split and the merge of exactly this query.
  bool saw_split = false;
  bool saw_merge = false;
  for (const auto& event : obs::FlightRecorder::Global().Snapshot()) {
    if (event.a != response->query_id) continue;
    if (event.kind == obs::EventKind::kShardSplit) {
      saw_split = true;
      EXPECT_EQ(event.b, 4);  // owner shards
    }
    if (event.kind == obs::EventKind::kShardMerge) saw_merge = true;
  }
  EXPECT_TRUE(saw_split);
  EXPECT_TRUE(saw_merge);
}

}  // namespace
}  // namespace crowdrtse::server
