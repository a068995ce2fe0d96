#include "server/query_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "crowd/task_assignment.h"
#include "graph/bfs.h"
#include "gsp/uncertainty.h"
#include "traffic/time_slots.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crowdrtse::server {

QueryEngine::QueryEngine(core::CrowdRtse& system, WorkerRegistry& registry,
                         BudgetLedger& ledger,
                         const crowd::CostModel& costs,
                         crowd::CrowdSimulator& crowd_sim)
    : QueryEngine(system, registry, ledger, costs, crowd_sim, Options{}) {}

QueryEngine::QueryEngine(core::CrowdRtse& system, WorkerRegistry& registry,
                         BudgetLedger& ledger,
                         const crowd::CostModel& costs,
                         crowd::CrowdSimulator& crowd_sim, Options options)
    : system_(system),
      registry_(registry),
      ledger_(ledger),
      costs_(costs),
      crowd_sim_(crowd_sim),
      options_(options),
      propagator_(system.model(), system.config().gsp),
      traces_(util::trace::TraceCollector::Options{
          options.trace_ring_size, options.trace_slow_log_size}),
      profiler_(&metrics_),
      counters_(metrics_) {
  RegisterInstruments();
}

void QueryEngine::RegisterInstruments() {
  crowd_retries_ = &metrics_.GetCounter(
      "crowdrtse_dispatch_retries_total",
      "re-dispatches after a failed crowd attempt");
  crowd_reassignments_ = &metrics_.GetCounter(
      "crowdrtse_dispatch_reassignments_total",
      "retries that moved to a fresh worker");
  crowd_deadline_misses_ = &metrics_.GetCounter(
      "crowdrtse_dispatch_deadline_misses_total",
      "attempts written off at their deadline");
  reports_late_ = &metrics_.GetCounter(
      "crowdrtse_reports_late_total", "reports that arrived past deadline");
  reports_duplicate_ = &metrics_.GetCounter(
      "crowdrtse_reports_duplicate_total",
      "reports dropped because the task was already answered");
  reports_outlier_ = &metrics_.GetCounter(
      "crowdrtse_reports_outlier_total",
      "reports rejected by the plausibility window or MAD filter");

  // Live component state surfaces as callback gauges, read at render time.
  metrics_.RegisterCallbackGauge(
      "crowdrtse_gamma_cache_resident_bytes",
      "resident footprint of the Gamma_R correlation cache",
      [this] { return system_.CorrelationCacheStats().resident_bytes; });
  metrics_.RegisterCallbackGauge(
      "crowdrtse_gamma_cache_resident_tables",
      "correlation tables currently resident",
      [this] { return system_.CorrelationCacheStats().resident_tables; });
  metrics_.RegisterCallbackGauge(
      "crowdrtse_ledger_reserved_outstanding",
      "budget units earmarked by in-flight reservations",
      [this] { return ledger_.reserved_outstanding(); });
  metrics_.RegisterCallbackGauge(
      "crowdrtse_ledger_remaining_units",
      "campaign budget not yet spent or reserved",
      [this] { return ledger_.remaining(); });
  metrics_.RegisterCallbackGauge(
      "crowdrtse_traces_collected", "sampled query traces collected",
      [this] { return traces_.collected(); });
  metrics_.RegisterCallbackGauge(
      "crowdrtse_gsp_inv_variance_clamps_total",
      "GSP weights clamped to the inverse-variance ceiling (non-zero means "
      "degenerate RTF parameters reached the hot path; process-wide)",
      [] { return static_cast<int64_t>(rtf::InvVarianceClampCount()); });
}

QueryEngine::~QueryEngine() { Drain(); }

void QueryEngine::Drain() { gate_.Drain(); }

util::Status QueryEngine::FailQuery(int64_t query_id, int granted, int paid,
                                    const util::Status& status) {
  // The crowd (if it ran) was really paid: that spend must not vanish from
  // the campaign accounting just because a later phase failed.
  (void)ledger_.Settle(query_id, granted, paid);
  return counters_.Fail(status, paid);
}

util::Result<QueryResponse> QueryEngine::Serve(
    const QueryRequest& request, const traffic::DayMatrix& world) {
  util::Timer serve_timer;
  const ServeGate::Admission admission(gate_);
  if (!admission) {
    return counters_.Reject(util::Status::FailedPrecondition(
        "engine draining: no new queries admitted"));
  }
  // Validate the request up front — before any budget is granted and any
  // worker paid, so a malformed query cannot leak campaign spend.
  const util::Status valid = ValidateQuery(request, world.num_slots(),
                                           system_.graph().num_roads());
  if (!valid.ok()) return counters_.Reject(valid);
  std::vector<graph::RoadId> queried = request.queried;
  std::sort(queried.begin(), queried.end());
  queried.erase(std::unique(queried.begin(), queried.end()), queried.end());

  const int64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);

  // Sampled queries get a trace; every Span below attaches to it through
  // the thread-local installed by ScopedTrace, so the deeper layers need no
  // plumbing. Unsampled queries pay one thread-local read per span site.
  // When a sharded router already installed an ambient trace on this
  // thread, adopt it: the router owns sampling, collection, and the
  // summary for cross-shard queries, and the spans below stitch into its
  // span tree instead of starting a disconnected per-shard one.
  const bool adopted_trace = util::trace::ActiveTrace() != nullptr;
  std::shared_ptr<util::trace::Trace> trace;
  if (!adopted_trace &&
      util::trace::ShouldSample(options_.trace_sample_rate,
                                static_cast<uint64_t>(query_id))) {
    trace =
        std::make_shared<util::trace::Trace>(query_id, options_.clock);
  }
  // Collects the finished trace on every exit path. Declared before the
  // ScopedTrace and the spans so it runs after they have all closed.
  struct Collect {
    util::trace::TraceCollector& collector;
    std::shared_ptr<util::trace::Trace> trace;
    ~Collect() {
      if (trace) collector.Collect(std::move(trace));
    }
  } collect{traces_, trace};
  // Only install a scope for a trace we created — installing a null one
  // would clear the router's ambient trace for the whole sub-serve.
  std::optional<util::trace::ScopedTrace> scoped;
  if (trace) scoped.emplace(trace.get());
  // Stage profiling mirrors the trace adoption: an ambient scope (the
  // router's) wins, otherwise this engine's own profiler records under the
  // local query id.
  std::optional<obs::ScopedProfile> profile;
  if (obs::ActiveProfiler() == nullptr) profile.emplace(&profiler_, query_id);
  util::trace::Span serve_span("serve");
  serve_span.Annotate("slot", static_cast<int64_t>(request.slot));
  serve_span.Annotate("queried", static_cast<int64_t>(queried.size()));

  const int budget = ledger_.Reserve(query_id);
  if (budget <= 0) {
    serve_span.Annotate("outcome", "budget_denied");
    return counters_.Reject(util::Status::FailedPrecondition(
        "campaign budget exhausted: " + ledger_.Report()));
  }
  // Admission control's first shed rung: a capped query probes fewer roads.
  // The ledger reservation stays at the full grant; the unspent remainder
  // flows back when the query settles.
  const int spend_budget =
      request.budget_cap > 0 ? std::min(budget, request.budget_cap) : budget;
  serve_span.Annotate("budget", static_cast<int64_t>(spend_budget));

  QueryResponse response;
  response.query_id = query_id;
  response.granted_budget = budget;

  // Step 1 — OCS over the roads workers currently cover; a road with fewer
  // workers than its answer quota aggregates fewer answers. When OCS can
  // only gain within C hops of the query, the candidates are the covered
  // roads of the query's C-hop ball — one BFS of the ball, no pass over the
  // map; otherwise (the dense paper world) every covered road.
  obs::StageTimer ocs_stage(obs::Stage::kOcsSelect);
  std::vector<graph::RoadId> worker_roads;
  if (system_.BallScopedSelection()) {
    const std::vector<graph::RoadId> ball = graph::RoadsWithinHops(
        system_.graph(), queried, system_.config().correlation_hop_radius);
    response.work.ball_roads = static_cast<int64_t>(ball.size());
    worker_roads = registry_.CoveredAmong(ball);
  } else {
    response.work.ball_roads = system_.graph().num_roads();
    worker_roads = registry_.CoveredRoads();
  }
  response.work.candidates_scored = static_cast<int64_t>(worker_roads.size());
  util::Result<ocs::OcsSolution> selection = [&] {
    util::trace::Span ocs_span("ocs");
    ocs_span.Annotate("worker_roads",
                      static_cast<int64_t>(worker_roads.size()));
    util::Result<ocs::OcsSolution> solved = system_.SelectRoads(
        request.slot, queried, worker_roads, costs_, spend_budget,
        request.selector);
    if (solved.ok()) {
      ocs_span.Annotate("selected",
                        static_cast<int64_t>(solved->roads.size()));
      ocs_span.Annotate("objective", solved->objective);
      ocs_span.Annotate("cost", static_cast<int64_t>(solved->total_cost));
    }
    return solved;
  }();
  if (!selection.ok()) {
    serve_span.Annotate("outcome", "failed_ocs");
    return FailQuery(query_id, budget, 0, selection.status());
  }
  ocs_stage.Stop();

  // Step 2 — crowdsourcing round: assign concrete workers to the selected
  // roads, then collect; both read the registry's index (the selected
  // roads' buckets and the hired ids), never the whole population. Legacy
  // path: every assigned worker reports once, synchronously. Fault-tolerant
  // path: the dispatch controller drives the round under deadlines,
  // retry/backoff, straggler reassignment and report rejection; roads whose
  // probes all fail come back degraded, not as errors. The simulator's RNG
  // is stateful, so either way this phase runs one query at a time. The
  // stage's wall time includes the wait for that lock; its CPU time not.
  obs::StageTimer crowd_stage(obs::Stage::kCrowdDispatch);
  for (graph::RoadId road : selection->roads) {
    response.work.workers_read += registry_.CountOn(road);
  }
  const crowd::WorkerIndex& workers = registry_.index();
  crowd::DispatchStats dispatch_stats;
  util::Result<crowd::CrowdRound> round = [&] {
    std::lock_guard<std::mutex> lock(crowd_mutex_);
    util::trace::Span crowd_span("crowd");
    util::Result<crowd::AssignmentPlan> plan = [&] {
      util::trace::Span assign_span("crowd.assign");
      util::Result<crowd::AssignmentPlan> assigned =
          crowd::AssignTasks(selection->roads, costs_, workers);
      if (assigned.ok()) {
        assign_span.Annotate(
            "assignments",
            static_cast<int64_t>(assigned->assignments.size()));
      }
      return assigned;
    }();
    if (!plan.ok()) return util::Result<crowd::CrowdRound>(plan.status());
    if (!options_.fault_tolerant_dispatch) {
      response.underfilled_roads = plan->underfilled_roads;
      return crowd_sim_.ProbeWithAssignments(*plan, workers, world,
                                             request.slot);
    }
    crowd::DispatchController controller(options_.dispatch,
                                         options_.clock);
    util::Result<crowd::DispatchRound> dispatched = controller.Run(
        *plan, workers, costs_, options_.fault_plan,
        [&](const crowd::Worker& worker, graph::RoadId road) {
          return crowd_sim_.GenerateAnswer(worker, road, world,
                                           request.slot);
        });
    if (!dispatched.ok()) {
      return util::Result<crowd::CrowdRound>(dispatched.status());
    }
    response.underfilled_roads = std::move(dispatched->underfilled_roads);
    response.degraded_roads = std::move(dispatched->degraded_roads);
    response.degraded_reasons = std::move(dispatched->degraded_reasons);
    response.dispatch_span_ms = dispatched->span_ms;
    dispatch_stats = dispatched->stats;
    crowd_span.Annotate("degraded",
                        static_cast<int64_t>(response.degraded_roads.size()));
    return util::Result<crowd::CrowdRound>(std::move(dispatched->round));
  }();
  if (!round.ok()) {
    serve_span.Annotate("outcome", "failed_crowd");
    return FailQuery(query_id, budget, 0, round.status());
  }
  crowd_stage.Stop();
  response.paid = round->total_paid;

  // Step 3 — GSP over the roads that actually produced answers, read at
  // the queried roads only: the propagation touches the probes' H-ball.
  obs::StageTimer gsp_stage(obs::Stage::kGspSweep);
  std::vector<double> probed;
  probed.reserve(round->probes.size());
  for (const crowd::ProbeResult& p : round->probes) {
    response.probed_roads.push_back(p.road);
    probed.push_back(p.probed_kmh);
  }
  util::Result<gsp::GspReadout> estimate = [&] {
    util::trace::Span gsp_span("gsp");
    gsp_span.Annotate("probed",
                      static_cast<int64_t>(response.probed_roads.size()));
    util::trace::Span propagate_span("gsp.propagate");
    util::Result<gsp::GspReadout> propagated = propagator_.PropagateAt(
        request.slot, response.probed_roads, probed, request.queried);
    if (propagated.ok()) {
      propagate_span.Annotate("sweeps",
                              static_cast<int64_t>(propagated->sweeps));
    }
    return propagated;
  }();
  if (!estimate.ok()) {
    serve_span.Annotate("outcome", "failed_gsp");
    return FailQuery(query_id, budget, response.paid, estimate.status());
  }
  gsp_stage.Stop();
  response.gsp_sweeps = estimate->sweeps;
  response.work.gsp_roads_relaxed = estimate->relaxed;
  response.queried_speeds = std::move(estimate->speeds);

  // Degradation ladder (fault-tolerant path): a queried road whose probes
  // all failed answers with its RTF periodic mean mu_i^t instead of a
  // GSP value propagated from probes it never had, and every queried road
  // reports a variance — widened to the prior for degraded roads.
  if (options_.fault_tolerant_dispatch) {
    util::trace::Span degrade_span("degrade");
    degrade_span.Annotate(
        "degraded", static_cast<int64_t>(response.degraded_roads.size()));
    if (!response.degraded_roads.empty()) {
      const std::vector<double> fallback = system_.PeriodicMeans(
          request.slot, response.degraded_roads);
      for (size_t i = 0; i < request.queried.size(); ++i) {
        const auto it = std::lower_bound(response.degraded_roads.begin(),
                                         response.degraded_roads.end(),
                                         request.queried[i]);
        if (it != response.degraded_roads.end() &&
            *it == request.queried[i]) {
          response.queried_speeds[i] = fallback[static_cast<size_t>(
              it - response.degraded_roads.begin())];
        }
      }
    }
    util::Result<std::vector<double>> variances =
        gsp::DegradedAwareVariances(system_.model(), request.slot,
                                    request.queried, response.probed_roads,
                                    response.degraded_roads,
                                    options_.degraded_variance_inflation);
    if (!variances.ok()) {
      degrade_span.End();
      serve_span.Annotate("outcome", "failed_degrade");
      return FailQuery(query_id, budget, response.paid, variances.status());
    }
    response.queried_variances = std::move(*variances);
  }

  const util::Status settled = [&] {
    util::trace::Span settle_span("settle");
    return ledger_.Settle(query_id, budget, response.paid);
  }();
  if (!settled.ok()) {
    serve_span.Annotate("outcome", "failed_settle");
    return counters_.Fail(settled);
  }
  counters_.Served(response, serve_timer.ElapsedMillis());
  if (options_.fault_tolerant_dispatch) {
    crowd_retries_->Increment(dispatch_stats.retries);
    crowd_reassignments_->Increment(dispatch_stats.reassignments);
    crowd_deadline_misses_->Increment(dispatch_stats.deadline_misses);
    reports_late_->Increment(dispatch_stats.late_reports);
    reports_duplicate_->Increment(dispatch_stats.duplicate_reports);
    reports_outlier_->Increment(dispatch_stats.outlier_reports);
  }
  serve_span.Annotate("paid", static_cast<int64_t>(response.paid));
  serve_span.Annotate("outcome", "served");
  serve_span.End();
  if (trace) response.trace_summary = util::trace::Summarize(*trace);
  return response;
}

util::Result<QueryResponse> QueryEngine::ServePeriodicFallback(
    const QueryRequest& request, const traffic::DayMatrix& world) {
  util::Timer serve_timer;
  const ServeGate::Admission admission(gate_);
  if (!admission) {
    return counters_.Reject(util::Status::FailedPrecondition(
        "engine draining: no new queries admitted"));
  }
  const util::Status valid = ValidateQuery(request, world.num_slots(),
                                           system_.graph().num_roads());
  if (!valid.ok()) return counters_.Reject(valid);

  const int64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  QueryResponse response;
  response.query_id = query_id;

  // The bottom rung of the degradation ladder, entered from the front: the
  // whole query answers from the RTF periodic mean mu_i^t with variances
  // widened over the prior marginal — no budget, no crowd, no GSP. The
  // degraded set is the (deduplicated, sorted) query itself.
  response.degraded_roads = request.queried;
  std::sort(response.degraded_roads.begin(), response.degraded_roads.end());
  response.degraded_roads.erase(std::unique(response.degraded_roads.begin(),
                                            response.degraded_roads.end()),
                                response.degraded_roads.end());
  response.degraded_reasons.assign(response.degraded_roads.size(),
                                   crowd::DegradeReason::kLoadShed);

  const std::vector<double> fallback =
      system_.PeriodicMeans(request.slot, request.queried);
  response.queried_speeds = fallback;
  util::Result<std::vector<double>> variances = gsp::DegradedAwareVariances(
      system_.model(), request.slot, request.queried, /*sampled_roads=*/{},
      response.degraded_roads, options_.degraded_variance_inflation);
  if (!variances.ok()) return counters_.Fail(variances.status());
  response.queried_variances = std::move(*variances);

  counters_.Shed(response, serve_timer.ElapsedMillis());
  return response;
}

EngineStats QueryEngine::stats() const {
  EngineStats snapshot;
  counters_.Fill(snapshot);
  snapshot.crowd_retries = crowd_retries_->value();
  snapshot.crowd_reassignments = crowd_reassignments_->value();
  snapshot.crowd_deadline_misses = crowd_deadline_misses_->value();
  snapshot.reports_late = reports_late_->value();
  snapshot.reports_duplicate = reports_duplicate_->value();
  snapshot.reports_outlier = reports_outlier_->value();
  snapshot.gamma_cache = system_.CorrelationCacheStats();
  return snapshot;
}

}  // namespace crowdrtse::server
