#include "server/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "gsp/uncertainty.h"
#include "obs/flight_recorder.h"
#include "traffic/time_slots.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace crowdrtse::server {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() {
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
};

TEST_F(QueryEngineTest, ServesQueryEndToEnd) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  const auto response = engine.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->queried_speeds.size(), 4u);
  EXPECT_EQ(response->granted_budget, 12);
  EXPECT_LE(response->paid, 12);
  EXPECT_GT(response->paid, 0);
  EXPECT_FALSE(response->probed_roads.empty());
  for (double v : response->queried_speeds) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 200.0);
  }
  EXPECT_EQ(engine.stats().queries_served, 1);
  EXPECT_EQ(ledger.total_spent(), response->paid);
}

TEST_F(QueryEngineTest, QueryIdsIncrement) {
  BudgetLedger ledger(1000, 10);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  const auto a = engine.Serve(MakeRequest(), truth_);
  const auto b = engine.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->query_id, a->query_id + 1);
}

TEST_F(QueryEngineTest, RejectsWhenCampaignExhausted) {
  BudgetLedger ledger(10, 10);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  const auto first = engine.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(first.ok());
  // Drain whatever remains.
  for (int i = 0; i < 10 && !ledger.exhausted(); ++i) {
    (void)engine.Serve(MakeRequest(), truth_);
  }
  const auto rejected = engine.Serve(MakeRequest(), truth_);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_GE(engine.stats().queries_rejected, 1);
}

TEST_F(QueryEngineTest, ProbedRoadsComeFromWorkerCoverage) {
  BudgetLedger ledger(1000, 10);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  const auto response = engine.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(response.ok());
  const auto covered = registry_->CoveredRoads();
  for (graph::RoadId r : response->probed_roads) {
    EXPECT_TRUE(std::binary_search(covered.begin(), covered.end(), r));
  }
}

TEST_F(QueryEngineTest, WorksAcrossMovingWorkers) {
  BudgetLedger ledger(-1, 10);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  for (int step = 0; step < 5; ++step) {
    const auto response = engine.Serve(MakeRequest(100 + step), truth_);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    registry_->AdvanceSlot();
  }
  EXPECT_EQ(engine.stats().queries_served, 5);
  const std::string report = engine.stats().Report();
  EXPECT_NE(report.find("served 5"), std::string::npos);
}

// Regression (budget leak): a query that dies after its crowdsourcing
// round really paid the workers; that spend must reach the ledger even
// though the query failed. Forcing the GSP phase to fail (invalid epsilon)
// reproduces the old leak, where the early return skipped Settle and the
// campaign silently overspent.
TEST_F(QueryEngineTest, FailedQueryStillSettlesItsCrowdSpend) {
  core::CrowdRtseConfig broken_config;
  broken_config.gsp.epsilon = -1.0;  // GSP rejects this after the crowd ran
  auto broken_system =
      core::CrowdRtse::BuildOffline(graph_, history_, broken_config);
  ASSERT_TRUE(broken_system.ok());
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*broken_system, *registry_, ledger, costs_,
                     *crowd_sim_);
  const auto response = engine.Serve(MakeRequest(), truth_);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(engine.stats().queries_failed, 1);
  EXPECT_EQ(engine.stats().queries_served, 0);
  // The crowd round paid real units and they are all on the books.
  EXPECT_GT(ledger.total_spent(), 0);
  EXPECT_EQ(engine.stats().total_paid, ledger.total_spent());
  EXPECT_EQ(ledger.settled_count(), 1);
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
}

// Regression (missing slot validation): out-of-range slots used to flow
// into the RTF parameter tables unchecked. The rejection names the served
// world's actual bound.
TEST_F(QueryEngineTest, RejectsOutOfRangeSlot) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  for (int slot : {-1, traffic::kSlotsPerDay, traffic::kSlotsPerDay + 7}) {
    const auto response = engine.Serve(MakeRequest(slot), truth_);
    ASSERT_FALSE(response.ok()) << "slot " << slot;
    EXPECT_EQ(response.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(response.status().message().find(
                  "not in [0, " + std::to_string(truth_.num_slots()) + ")"),
              std::string::npos)
        << response.status().ToString();
  }
  EXPECT_EQ(engine.stats().queries_rejected, 3);
  // Rejected before any grant: no spend, no reservation, no settle.
  EXPECT_EQ(ledger.total_spent(), 0);
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
  EXPECT_EQ(ledger.settled_count(), 0);
}

// Regression (budget leak, validation order): a bad road id used to be
// detected only after the crowd round had paid — and the early return
// skipped settlement. Now it is rejected before any money moves.
TEST_F(QueryEngineTest, RejectsBadRoadBeforePayingWorkers) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  QueryRequest request = MakeRequest();
  request.queried.push_back(graph_.num_roads() + 5);
  const auto response = engine.Serve(request, truth_);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.total_spent(), 0);
  EXPECT_EQ(ledger.settled_count(), 0);
  EXPECT_EQ(engine.stats().queries_rejected, 1);
  EXPECT_EQ(engine.stats().queries_failed, 0);
}

TEST_F(QueryEngineTest, DeduplicatesQueriedRoads) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  QueryRequest request = MakeRequest();
  request.queried = {17, 3, 17, 42, 3};
  const auto response = engine.Serve(request, truth_);
  ASSERT_TRUE(response.ok());
  // The answer stays aligned with the request as submitted...
  ASSERT_EQ(response->queried_speeds.size(), 5u);
  // ...and duplicates agree with each other.
  EXPECT_EQ(response->queried_speeds[0], response->queried_speeds[2]);
  EXPECT_EQ(response->queried_speeds[1], response->queried_speeds[4]);
}

// Regression (invisible failures): every outcome increments exactly one of
// served / rejected / failed.
TEST_F(QueryEngineTest, EveryOutcomeCountedExactlyOnce) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  ASSERT_TRUE(engine.Serve(MakeRequest(), truth_).ok());     // served
  QueryRequest empty;
  empty.slot = 100;
  ASSERT_FALSE(engine.Serve(empty, truth_).ok());            // rejected
  ASSERT_FALSE(engine.Serve(MakeRequest(-3), truth_).ok());  // rejected
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_served, 1);
  EXPECT_EQ(stats.queries_rejected, 2);
  EXPECT_EQ(stats.queries_failed, 0);
  EXPECT_EQ(stats.queries_served + stats.queries_rejected +
                stats.queries_failed,
            3);
  EXPECT_EQ(stats.serve_latency.count, 1);
}

// --- Fault-tolerant dispatch path (DESIGN.md §5c) ---------------------

TEST_F(QueryEngineTest, DispatchPathFaultFreeServesWithinLatencyBudget) {
  BudgetLedger ledger(1000, 12);
  util::SimClock clock;
  QueryEngine::Options options;
  options.fault_tolerant_dispatch = true;
  options.clock = &clock;
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_,
                     options);
  const QueryRequest request = MakeRequest();
  const auto response = engine.Serve(request, truth_);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->degraded_roads.empty());
  EXPECT_FALSE(response->probed_roads.empty());
  EXPECT_GT(response->paid, 0);
  EXPECT_EQ(ledger.total_spent(), response->paid);
  EXPECT_GT(response->dispatch_span_ms, 0.0);
  EXPECT_LE(response->dispatch_span_ms, options.dispatch.MaxRoundSpanMs());
  // Confidence annotations ride along: one variance per queried road.
  ASSERT_EQ(response->queried_variances.size(), request.queried.size());
  for (double v : response->queried_variances) EXPECT_GE(v, 0.0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_served, 1);
  EXPECT_EQ(stats.roads_degraded, 0);
  EXPECT_EQ(stats.crowd_retries, 0);
  EXPECT_EQ(stats.crowd_deadline_misses, 0);
}

// Satellite regression: with every worker on one probed road faulted out,
// the query still succeeds inside its budget; the road falls down the
// degradation ladder to its RTF periodic mean, lands in degraded_roads
// (and nowhere else), and `paid` excludes the unanswered tasks.
TEST_F(QueryEngineTest, SingleRoadWorkerOutageDegradesJustThatRoad) {
  BudgetLedger ledger(-1, 12);
  util::SimClock clock;
  QueryEngine::Options base;
  base.fault_tolerant_dispatch = true;
  base.clock = &clock;
  QueryEngine healthy(*system_, *registry_, ledger, costs_, *crowd_sim_,
                      base);
  const QueryRequest request = MakeRequest();
  const auto first = healthy.Serve(request, truth_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->degraded_roads.empty());
  ASSERT_FALSE(first->probed_roads.empty());
  // Target a probed road, preferring one the client actually queried.
  graph::RoadId target = first->probed_roads.front();
  for (graph::RoadId r : first->probed_roads) {
    if (std::find(request.queried.begin(), request.queried.end(), r) !=
        request.queried.end()) {
      target = r;
      break;
    }
  }
  // Knock out every worker on the target road — including the spares the
  // controller would otherwise reassign to.
  QueryEngine::Options faulted = base;
  crowd::FaultSpec drop_all;
  drop_all.drop_rate = 1.0;
  for (const crowd::Worker* w : registry_->WorkersOn(target)) {
    faulted.fault_plan.SetWorkerSpec(w->id, drop_all);
  }
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_,
                     faulted);
  const auto second = engine.Serve(request, truth_);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->degraded_roads.size(), 1u);
  EXPECT_EQ(second->degraded_roads[0], target);
  // Regression: a degraded road must not double-count as underfilled or
  // still claim to be probed.
  EXPECT_EQ(std::count(second->underfilled_roads.begin(),
                       second->underfilled_roads.end(), target),
            0);
  EXPECT_EQ(std::count(second->probed_roads.begin(),
                       second->probed_roads.end(), target),
            0);
  // Unanswered tasks are not paid.
  EXPECT_LT(second->paid, first->paid);
  EXPECT_EQ(ledger.total_spent(), first->paid + second->paid);
  EXPECT_LE(second->dispatch_span_ms, base.dispatch.MaxRoundSpanMs());
  // If the degraded road was queried, its answer is exactly the RTF
  // periodic mean mu_i^t with a widened (positive) variance.
  const auto it =
      std::find(request.queried.begin(), request.queried.end(), target);
  if (it != request.queried.end()) {
    const size_t idx =
        static_cast<size_t>(it - request.queried.begin());
    const std::vector<double> mu =
        system_->PeriodicMeans(request.slot, {target});
    EXPECT_DOUBLE_EQ(second->queried_speeds[idx], mu[0]);
    EXPECT_GT(second->queried_variances[idx], 0.0);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.roads_degraded, 1);
  EXPECT_EQ(stats.degraded_deadline, 1);
  EXPECT_GT(stats.crowd_deadline_misses, 0);
  EXPECT_NE(stats.Report().find("degraded: 1 roads"), std::string::npos);
}

TEST_F(QueryEngineTest, TotalCrowdOutageFallsBackToPeriodicMeans) {
  BudgetLedger ledger(1000, 12);
  util::SimClock clock;
  QueryEngine::Options options;
  options.fault_tolerant_dispatch = true;
  options.clock = &clock;
  crowd::FaultSpec blackout;
  blackout.drop_rate = 1.0;
  options.fault_plan = crowd::FaultPlan(blackout, /*seed=*/17);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_,
                     options);
  const QueryRequest request = MakeRequest();
  const auto response = engine.Serve(request, truth_);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Every probe failed: nothing was answered, nobody was paid...
  EXPECT_TRUE(response->probed_roads.empty());
  EXPECT_FALSE(response->degraded_roads.empty());
  EXPECT_EQ(response->paid, 0);
  EXPECT_EQ(ledger.total_spent(), 0);
  // ...yet the query completed within its latency budget and every
  // queried road reports the RTF periodic mean.
  EXPECT_LE(response->dispatch_span_ms, options.dispatch.MaxRoundSpanMs());
  const std::vector<double> mu =
      system_->PeriodicMeans(request.slot, request.queried);
  ASSERT_EQ(response->queried_speeds.size(), mu.size());
  for (size_t i = 0; i < mu.size(); ++i) {
    EXPECT_DOUBLE_EQ(response->queried_speeds[i], mu[i]);
    EXPECT_GT(response->queried_variances[i], 0.0);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_served, 1);
  EXPECT_EQ(static_cast<size_t>(stats.roads_degraded),
            response->degraded_roads.size());
  EXPECT_EQ(stats.degraded_deadline + stats.degraded_outlier +
                stats.degraded_unstaffed,
            stats.roads_degraded);
}

// Satellite regression: QueryResponse::underfilled_roads had no test
// coverage anywhere. A sparse crowd against a quota of 3 must surface the
// shortfall, on both the legacy and the fault-tolerant dispatch paths —
// and never double-count an underfilled road as degraded.
TEST_F(QueryEngineTest, UnderfilledRoadsSurfaceOnBothServePaths) {
  WorkerRegistryOptions sparse_options;
  sparse_options.num_workers = 60;
  WorkerRegistry sparse(graph_, sparse_options, 11);
  const crowd::CostModel quota3 = crowd::CostModel::Constant(100, 3);
  BudgetLedger ledger(-1, 30);
  QueryEngine legacy(*system_, sparse, ledger, quota3, *crowd_sim_);
  const auto legacy_response = legacy.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(legacy_response.ok()) << legacy_response.status().ToString();
  ASSERT_FALSE(legacy_response->underfilled_roads.empty());
  for (graph::RoadId r : legacy_response->underfilled_roads) {
    EXPECT_EQ(std::count(legacy_response->probed_roads.begin(),
                         legacy_response->probed_roads.end(), r),
              1)
        << "underfilled road " << r << " must still be probed";
  }
  // Underfilled probes pay fewer units than quota * probes.
  EXPECT_LT(legacy_response->paid,
            3 * static_cast<int>(legacy_response->probed_roads.size()));

  util::SimClock clock;
  QueryEngine::Options options;
  options.fault_tolerant_dispatch = true;
  options.clock = &clock;
  QueryEngine dispatch(*system_, sparse, ledger, quota3, *crowd_sim_,
                       options);
  const auto response = dispatch.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_FALSE(response->underfilled_roads.empty());
  for (graph::RoadId r : response->underfilled_roads) {
    EXPECT_EQ(std::count(response->probed_roads.begin(),
                         response->probed_roads.end(), r),
              1);
    EXPECT_EQ(std::count(response->degraded_roads.begin(),
                         response->degraded_roads.end(), r),
              0)
        << "road " << r << " double-counted as underfilled and degraded";
  }
}

// --- Observability: tracing, metrics exposition, structured reasons ----

/// Spans of the most recent collected trace, plus a name -> record index
/// for the single-occurrence ones.
std::vector<util::trace::SpanRecord> LastTraceSpans(
    const QueryEngine& engine) {
  const auto recent = engine.traces().Recent();
  if (recent.empty()) return {};
  return recent.back()->spans();
}

const util::trace::SpanRecord* FindSpan(
    const std::vector<util::trace::SpanRecord>& spans,
    const std::string& name) {
  for (const util::trace::SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

std::string AnnotationValue(const util::trace::SpanRecord& span,
                            const std::string& key) {
  for (const util::trace::Annotation& a : span.annotations) {
    if (a.key == key) return a.value;
  }
  return "";
}

TEST_F(QueryEngineTest, SampledQueryProducesFullSpanTree) {
  BudgetLedger ledger(1000, 12);
  QueryEngine::Options options;
  options.trace_sample_rate = 1.0;
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_,
                     options);
  const auto response = engine.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(response.ok());

  // The compact summary rides on the response.
  ASSERT_FALSE(response->trace_summary.empty());
  EXPECT_EQ(response->trace_summary.query_id, response->query_id);
  EXPECT_EQ(response->trace_summary.lines[0].name, "serve");
  EXPECT_NE(response->trace_summary.ToString().find("serve"),
            std::string::npos);

  // The full trace landed in the collector with the whole phase tree.
  EXPECT_EQ(engine.traces().collected(), 1);
  const auto spans = LastTraceSpans(engine);
  const util::trace::SpanRecord* serve = FindSpan(spans, "serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_EQ(serve->parent, 0);
  EXPECT_EQ(AnnotationValue(*serve, "outcome"), "served");
  for (const char* name :
       {"ocs", "ocs.correlations", "ocs.select", "crowd", "gsp",
        "gsp.acquire", "gsp.propagate", "settle"}) {
    const util::trace::SpanRecord* span = FindSpan(spans, name);
    EXPECT_NE(span, nullptr) << "missing span " << name;
    if (span != nullptr) {
      EXPECT_NE(span->parent, 0) << name;
    }
  }
  // Every parent id resolves within the trace.
  std::set<int64_t> ids;
  for (const auto& span : spans) ids.insert(span.id);
  for (const auto& span : spans) {
    if (span.parent != 0) {
      EXPECT_EQ(ids.count(span.parent), 1u)
          << "span " << span.name << " has dangling parent";
    }
  }
  // The Chrome export names this query.
  const std::string json = engine.traces().ChromeTraceJson();
  EXPECT_NE(
      json.find("\"query_id\":" + std::to_string(response->query_id)),
      std::string::npos);
}

TEST_F(QueryEngineTest, ZeroSampleRateLeavesNoTraceAndEmptySummary) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  const auto response = engine.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->trace_summary.empty());
  EXPECT_EQ(engine.traces().collected(), 0);
  EXPECT_TRUE(engine.traces().Recent().empty());
}

// Satellite bugfix assertion: the per-road degrade verdicts on the
// response are exactly the verdicts the dispatch trace recorded — the two
// can never drift apart again.
TEST_F(QueryEngineTest, TraceAndResponseAgreeOnDegradeReasons) {
  BudgetLedger ledger(1000, 12);
  util::SimClock clock;
  QueryEngine::Options options;
  options.fault_tolerant_dispatch = true;
  options.clock = &clock;
  options.trace_sample_rate = 1.0;
  crowd::FaultSpec blackout;
  blackout.drop_rate = 1.0;
  options.fault_plan = crowd::FaultPlan(blackout, /*seed=*/17);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_,
                     options);
  const auto response = engine.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_FALSE(response->degraded_roads.empty());

  // Reasons align one-to-one with the degraded roads.
  ASSERT_EQ(response->degraded_reasons.size(),
            response->degraded_roads.size());
  for (crowd::DegradeReason reason : response->degraded_reasons) {
    EXPECT_EQ(reason, crowd::DegradeReason::kDeadline);
  }

  // The dispatch span carries the same verdicts, in the same order.
  const auto spans = LastTraceSpans(engine);
  const util::trace::SpanRecord* dispatch =
      FindSpan(spans, "crowd.dispatch");
  ASSERT_NE(dispatch, nullptr);
  std::string expected;
  for (size_t i = 0; i < response->degraded_roads.size(); ++i) {
    if (i > 0) expected += ",";
    expected += std::to_string(response->degraded_roads[i]);
    expected += ":";
    expected +=
        crowd::DegradeReasonName(response->degraded_reasons[i]);
  }
  EXPECT_EQ(AnnotationValue(*dispatch, "degraded"), expected);

  // Per-attempt child spans hang off the dispatch span, each with a
  // terminal outcome annotation.
  int attempts = 0;
  for (const auto& span : spans) {
    if (span.name != "crowd.attempt") continue;
    ++attempts;
    EXPECT_EQ(span.parent, dispatch->id);
    EXPECT_FALSE(AnnotationValue(span, "outcome").empty());
    EXPECT_GE(span.start_us, dispatch->start_us);
    EXPECT_LE(span.end_us, dispatch->end_us);
  }
  EXPECT_GT(attempts, 0);
}

TEST_F(QueryEngineTest, MetricsExpositionMatchesStats) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Serve(MakeRequest(100 + i), truth_).ok());
  }
  QueryRequest empty;
  empty.slot = 100;
  ASSERT_FALSE(engine.Serve(empty, truth_).ok());

  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.queries_served, 3);
  ASSERT_EQ(stats.queries_rejected, 1);

  const std::string prom = engine.metrics().RenderPrometheus();
  EXPECT_NE(prom.find("crowdrtse_queries_served_total 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("crowdrtse_queries_rejected_total 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("crowdrtse_paid_units_total " +
                      std::to_string(stats.total_paid) + "\n"),
            std::string::npos);
  EXPECT_NE(prom.find("crowdrtse_serve_latency_ms_count 3\n"),
            std::string::npos);
  // Callback gauges surface live component state.
  EXPECT_NE(prom.find("crowdrtse_ledger_remaining_units " +
                      std::to_string(ledger.remaining()) + "\n"),
            std::string::npos);
  EXPECT_NE(prom.find("crowdrtse_ledger_reserved_outstanding 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("crowdrtse_gsp_leases_in_flight 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("crowdrtse_gamma_cache_resident_bytes"),
            std::string::npos);

  // The JSON exposition carries the same counters under the same names.
  const std::string json = engine.metrics().RenderJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"crowdrtse_queries_served_total\":3"),
            std::string::npos);
  EXPECT_NE(json.find("\"crowdrtse_queries_rejected_total\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"crowdrtse_serve_latency_ms\":{\"count\":3"),
            std::string::npos);
  // stats() remains a thin view over the registry: both agree.
  EXPECT_EQ(stats.serve_latency.count, 3);
  EXPECT_EQ(stats.total_paid, ledger.total_spent());
}

// --- Serve-path correctness fixes (DESIGN.md §6 satellites) ------------

// Admission control's first shed rung: a request-level budget cap below
// the ledger's grant limits the spend (fewer probed roads), while the
// unspent remainder of the normal grant flows back at settle time.
TEST_F(QueryEngineTest, BudgetCapLimitsSpendBelowTheGrant) {
  BudgetLedger ledger(-1, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  const auto full = engine.Serve(MakeRequest(), truth_);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->paid, 4);  // otherwise the cap below would be idle

  QueryRequest capped = MakeRequest();
  capped.budget_cap = 4;
  const auto response = engine.Serve(capped, truth_);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_LE(response->paid, 4);
  EXPECT_GT(response->paid, 0);
  EXPECT_LT(response->probed_roads.size(), full->probed_roads.size());
  // The ledger granted normally and took back the unspent remainder.
  EXPECT_EQ(response->granted_budget, 12);
  EXPECT_EQ(ledger.total_spent(), full->paid + response->paid);
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
}

// Fault-tolerant variances are computed for the queried roads only; they
// must stay aligned with the request as submitted, duplicates included.
TEST_F(QueryEngineTest, FaultTolerantVariancesAlignWithDuplicateQueries) {
  BudgetLedger ledger(-1, 12);
  util::SimClock clock;
  QueryEngine::Options options;
  options.fault_tolerant_dispatch = true;
  options.clock = &clock;
  crowd::FaultSpec storm;
  storm.drop_rate = 0.5;
  options.fault_plan = crowd::FaultPlan(storm, /*seed=*/23);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_,
                     options);
  QueryRequest request = MakeRequest();
  request.queried = {17, 3, 17, 42, 3, 77, 42, 60};
  const rtf::RtfModel& model = system_->model();
  const auto check = [&](const QueryResponse& response) {
    ASSERT_EQ(response.queried_variances.size(), request.queried.size());
    const auto local = gsp::LocalConditionalVariances(
        model, request.slot, response.probed_roads);
    ASSERT_TRUE(local.ok());
    for (size_t i = 0; i < request.queried.size(); ++i) {
      const graph::RoadId r = request.queried[i];
      double want = (*local)[static_cast<size_t>(r)];
      if (std::binary_search(response.degraded_roads.begin(),
                             response.degraded_roads.end(), r)) {
        const double sigma = model.Sigma(request.slot, r);
        want = options.degraded_variance_inflation * sigma * sigma;
      }
      EXPECT_EQ(response.queried_variances[i], want) << "road " << r;
    }
  };
  for (int round = 0; round < 3; ++round) {
    const auto response = engine.Serve(request, truth_);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    check(*response);
  }
  const auto shed = engine.ServePeriodicFallback(request, truth_);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  check(*shed);
}

// The ladder's periodic-mean rung: no budget, no workers, answers are
// exactly the RTF periodic means with load-shed provenance.
TEST_F(QueryEngineTest, PeriodicFallbackServesMeansWithoutSpending) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  const QueryRequest request = MakeRequest();
  const auto response = engine.ServePeriodicFallback(request, truth_);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  const std::vector<double> mu =
      system_->PeriodicMeans(request.slot, request.queried);
  ASSERT_EQ(response->queried_speeds.size(), mu.size());
  for (size_t i = 0; i < mu.size(); ++i) {
    EXPECT_DOUBLE_EQ(response->queried_speeds[i], mu[i]);
    EXPECT_GT(response->queried_variances[i], 0.0);
  }
  // Provenance: every queried road degraded with reason kLoadShed.
  EXPECT_TRUE(response->probed_roads.empty());
  ASSERT_EQ(response->degraded_roads.size(), request.queried.size());
  ASSERT_EQ(response->degraded_reasons.size(), request.queried.size());
  for (crowd::DegradeReason reason : response->degraded_reasons) {
    EXPECT_EQ(reason, crowd::DegradeReason::kLoadShed);
  }
  // No money moved, and the books say so.
  EXPECT_EQ(response->granted_budget, 0);
  EXPECT_EQ(response->paid, 0);
  EXPECT_EQ(ledger.total_spent(), 0);
  EXPECT_EQ(ledger.settled_count(), 0);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_served, 1);
  EXPECT_EQ(stats.queries_shed, 1);
  EXPECT_EQ(stats.degraded_load_shed,
            static_cast<int64_t>(request.queried.size()));
  // Validation matches Serve: bad requests are rejected, not answered.
  EXPECT_FALSE(engine.ServePeriodicFallback(MakeRequest(-1), truth_).ok());
}

TEST_F(QueryEngineTest, DrainRefusesNewQueriesExplicitly) {
  BudgetLedger ledger(1000, 12);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  ASSERT_TRUE(engine.Serve(MakeRequest(), truth_).ok());
  engine.Drain();
  for (int i = 0; i < 2; ++i) {  // idempotent
    const auto refused = engine.Serve(MakeRequest(), truth_);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(),
              util::StatusCode::kFailedPrecondition);
    EXPECT_NE(refused.status().message().find("draining"),
              std::string::npos);
  }
  EXPECT_FALSE(engine.ServePeriodicFallback(MakeRequest(), truth_).ok());
  EXPECT_EQ(engine.stats().queries_served, 1);
}

// Tracing, stage profiling and the flight recorder observe a query; they
// never take part in it. The same faulted day, served once plain, once with
// every query traced and profiled, and once with the recorder off, must
// give bitwise-equal answers, degraded sets and spend.
TEST_F(QueryEngineTest, TracingAndRecordingLeaveAnswersUnchanged) {
  struct Day {
    std::vector<double> speeds;
    std::vector<graph::RoadId> degraded;
    std::vector<int> paid;
    int64_t served = 0;
    int64_t retries = 0;
    int64_t traces = 0;
  };
  const auto serve_day = [&](auto configure) {
    WorkerRegistryOptions registry_options;
    registry_options.num_workers = 600;
    WorkerRegistry registry(graph_, registry_options, 7);
    crowd::CrowdSimulator crowd_sim(crowd::CrowdSimOptions{}, util::Rng(9));
    BudgetLedger ledger(-1, 12);
    util::SimClock clock;
    QueryEngine::Options options;
    options.fault_tolerant_dispatch = true;
    options.clock = &clock;
    crowd::FaultSpec storm;
    storm.drop_rate = 0.3;
    storm.delay_rate = 0.2;
    options.fault_plan = crowd::FaultPlan(storm, /*seed=*/2026);
    configure(options);
    QueryEngine engine(*system_, registry, ledger, costs_, crowd_sim,
                       options);
    Day day;
    for (int slot = 96; slot < 104; slot += 2) {
      for (int q = 0; q < 3; ++q) {
        const auto response = engine.Serve(MakeRequest(slot), truth_);
        EXPECT_TRUE(response.ok()) << response.status().ToString();
        if (!response.ok()) continue;
        day.speeds.insert(day.speeds.end(), response->queried_speeds.begin(),
                          response->queried_speeds.end());
        day.degraded.insert(day.degraded.end(),
                            response->degraded_roads.begin(),
                            response->degraded_roads.end());
        day.paid.push_back(response->paid);
      }
      registry.AdvanceSlot();
    }
    day.served = engine.stats().queries_served;
    day.retries = engine.stats().crowd_retries;
    day.traces = engine.traces().collected();
    return day;
  };

  const Day plain = serve_day([](QueryEngine::Options&) {});
  const Day traced = serve_day([](QueryEngine::Options& options) {
    options.trace_sample_rate = 1.0;
  });
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const bool recorder_was_enabled = recorder.enabled();
  recorder.SetEnabled(false);
  const Day unrecorded = serve_day([](QueryEngine::Options&) {});
  recorder.SetEnabled(recorder_was_enabled);

  EXPECT_EQ(plain.served, 12);
  EXPECT_GT(plain.retries, 0);  // the storm really hit the dispatch path
  EXPECT_EQ(traced.traces, traced.served);
  for (const Day* other : {&traced, &unrecorded}) {
    ASSERT_EQ(other->speeds.size(), plain.speeds.size());
    EXPECT_EQ(std::memcmp(other->speeds.data(), plain.speeds.data(),
                          plain.speeds.size() * sizeof(double)),
              0);
    EXPECT_EQ(other->degraded, plain.degraded);
    EXPECT_EQ(other->paid, plain.paid);
    EXPECT_EQ(other->served, plain.served);
    EXPECT_EQ(other->retries, plain.retries);
  }
}

TEST_F(QueryEngineTest, EstimatesTrackTruthReasonably) {
  BudgetLedger ledger(-1, 30);
  QueryEngine engine(*system_, *registry_, ledger, costs_, *crowd_sim_);
  const QueryRequest request = MakeRequest();
  const auto response = engine.Serve(request, truth_);
  ASSERT_TRUE(response.ok());
  for (size_t i = 0; i < request.queried.size(); ++i) {
    const double actual = truth_.At(request.slot, request.queried[i]);
    EXPECT_NEAR(response->queried_speeds[i], actual, 0.6 * actual)
        << "road " << request.queried[i];
  }
}

}  // namespace
}  // namespace crowdrtse::server
