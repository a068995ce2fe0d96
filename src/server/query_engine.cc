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
namespace {

int PoolSizeOrDefault(int requested) { return requested > 0 ? requested : 4; }

}  // namespace

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
      propagators_(system.model(), system.config().gsp,
                   PoolSizeOrDefault(options.propagator_pool_size)),
      traces_(util::trace::TraceCollector::Options{
          options.trace_ring_size, options.trace_slow_log_size}),
      profiler_(&metrics_,
                obs::StageProfiler::Options{options.profile_sample_rate}) {
  RegisterInstruments();
}

void QueryEngine::RegisterInstruments() {
  queries_served_ = &metrics_.GetCounter(
      "crowdrtse_queries_served_total", "queries answered successfully");
  queries_rejected_ = &metrics_.GetCounter(
      "crowdrtse_queries_rejected_total",
      "queries refused up front (bad request or campaign budget dry)");
  queries_failed_ = &metrics_.GetCounter(
      "crowdrtse_queries_failed_total",
      "queries that died mid-pipeline after their budget grant");
  paid_units_ = &metrics_.GetCounter("crowdrtse_paid_units_total",
                                      "answer-units paid to the crowd");
  roads_degraded_ = &metrics_.GetCounter(
      "crowdrtse_roads_degraded_total",
      "selected roads that fell down the degradation ladder");
  degraded_deadline_ = &metrics_.GetCounter(
      "crowdrtse_degraded_deadline_total",
      "roads degraded because every attempt dropped out or timed out");
  degraded_outlier_ = &metrics_.GetCounter(
      "crowdrtse_degraded_outlier_total",
      "roads degraded because all answers were rejected as implausible");
  degraded_unstaffed_ = &metrics_.GetCounter(
      "crowdrtse_degraded_unstaffed_total",
      "roads degraded because no worker was there to ask");
  degraded_load_shed_ = &metrics_.GetCounter(
      "crowdrtse_degraded_load_shed_total",
      "roads answered from the periodic fallback by admission shedding");
  queries_shed_ = &metrics_.GetCounter(
      "crowdrtse_queries_shed_total",
      "queries answered entirely from the periodic fallback");
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
  ocs_latency_ = &metrics_.GetHistogram("crowdrtse_ocs_latency_ms",
                                         "OCS road-selection phase latency");
  crowd_latency_ = &metrics_.GetHistogram(
      "crowdrtse_crowd_latency_ms", "crowdsourcing round wall latency");
  gsp_latency_ = &metrics_.GetHistogram("crowdrtse_gsp_latency_ms",
                                         "GSP propagation phase latency");
  serve_latency_ = &metrics_.GetHistogram(
      "crowdrtse_serve_latency_ms", "end-to-end Serve latency (served only)");

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
      "crowdrtse_gsp_leases_in_flight",
      "propagator-pool leases currently held by GSP phases", [this] {
        return static_cast<int64_t>(propagators_.size() -
                                    propagators_.available());
      });
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

bool QueryEngine::EnterServe() {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  if (draining_.load(std::memory_order_acquire)) return false;
  ++serves_in_flight_;
  return true;
}

void QueryEngine::ExitServe() {
  std::lock_guard<std::mutex> lock(drain_mutex_);
  if (--serves_in_flight_ == 0) drain_cv_.notify_all();
}

void QueryEngine::Drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  draining_.store(true, std::memory_order_release);
  drain_cv_.wait(lock, [this] { return serves_in_flight_ == 0; });
}

util::Status QueryEngine::ValidateRequest(
    const QueryRequest& request, const traffic::DayMatrix& world) const {
  if (request.queried.empty()) {
    return util::Status::InvalidArgument("query has no roads");
  }
  // One bound governs the slot: the world being served. (Previously this
  // also folded in the static kSlotsPerDay check with a message that hid
  // the actual limit — confusing for worlds with fewer slots.)
  if (request.slot < 0 || request.slot >= world.num_slots()) {
    return util::Status::InvalidArgument(
        "slot out of range: " + std::to_string(request.slot) +
        " not in [0, " + std::to_string(world.num_slots()) + ")");
  }
  const int num_roads = system_.graph().num_roads();
  for (graph::RoadId r : request.queried) {
    if (r < 0 || r >= num_roads) {
      return util::Status::InvalidArgument(
          "queried road out of range: " + std::to_string(r) + " not in [0, " +
          std::to_string(num_roads) + ")");
    }
  }
  return util::Status::Ok();
}

util::Status QueryEngine::RejectQuery(const util::Status& status) {
  queries_rejected_->Increment();
  return status;
}

util::Status QueryEngine::FailQuery(int64_t query_id, int granted, int paid,
                                    const util::Status& status) {
  // The crowd (if it ran) was really paid: that spend must not vanish from
  // the campaign accounting just because a later phase failed.
  (void)ledger_.Settle(query_id, granted, paid);
  queries_failed_->Increment();
  paid_units_->Increment(paid);
  return status;
}

util::Result<QueryResponse> QueryEngine::Serve(
    const QueryRequest& request, const traffic::DayMatrix& world) {
  util::Timer serve_timer;
  if (!EnterServe()) {
    return RejectQuery(util::Status::FailedPrecondition(
        "engine draining: no new queries admitted"));
  }
  struct GateExit {
    QueryEngine* engine;
    ~GateExit() { engine->ExitServe(); }
  } gate_exit{this};
  // Validate the request up front — before any budget is granted and any
  // worker paid, so a malformed query cannot leak campaign spend.
  const util::Status valid = ValidateRequest(request, world);
  if (!valid.ok()) return RejectQuery(valid);
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
  // router's) wins, otherwise this engine's own profiler samples by local
  // query id (no-op scope when unsampled or the rate is 0).
  std::optional<obs::ScopedProfile> profile;
  if (obs::ActiveProfiler() == nullptr) profile.emplace(&profiler_, query_id);
  util::trace::Span serve_span("serve");
  serve_span.Annotate("slot", static_cast<int64_t>(request.slot));
  serve_span.Annotate("queried", static_cast<int64_t>(queried.size()));

  const int budget = ledger_.Reserve(query_id);
  if (budget <= 0) {
    serve_span.Annotate("outcome", "budget_denied");
    return RejectQuery(util::Status::FailedPrecondition(
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
  util::Timer timer;
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
    obs::StageTimer stage(obs::Stage::kOcsSelect);
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
  response.ocs_millis = timer.ElapsedMillis();
  ocs_latency_->Record(response.ocs_millis);

  // Step 2 — crowdsourcing round: assign concrete workers to the selected
  // roads, then collect; both read the registry's index (the selected
  // roads' buckets and the hired ids), never the whole population. Legacy
  // path: every assigned worker reports once, synchronously. Fault-tolerant
  // path: the dispatch controller drives the round under deadlines,
  // retry/backoff, straggler reassignment and report rejection; roads whose
  // probes all fail come back degraded, not as errors. The simulator's RNG
  // is stateful, so either way this phase runs one query at a time.
  timer.Reset();
  for (graph::RoadId road : selection->roads) {
    response.work.workers_read += registry_.CountOn(road);
  }
  const crowd::WorkerIndex& workers = registry_.index();
  crowd::DispatchStats dispatch_stats;
  util::Result<crowd::CrowdRound> round = [&] {
    std::lock_guard<std::mutex> lock(crowd_mutex_);
    util::trace::Span crowd_span("crowd");
    obs::StageTimer stage(obs::Stage::kCrowdDispatch);
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
  response.crowd_millis = timer.ElapsedMillis();
  crowd_latency_->Record(response.crowd_millis);
  response.paid = round->total_paid;

  // Step 3 — GSP over the roads that actually produced answers, read at
  // the queried roads only: the propagation touches the probes' H-ball.
  // Leasing a propagator bounds how many GSP phases run at once.
  timer.Reset();
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
    gsp::PropagatorPool::Lease propagator = [&] {
      util::trace::Span acquire_span("gsp.acquire");
      acquire_span.Annotate("available",
                            static_cast<int64_t>(propagators_.available()));
      return propagators_.Acquire();
    }();
    util::trace::Span propagate_span("gsp.propagate");
    obs::StageTimer stage(obs::Stage::kGspSweep);
    util::Result<gsp::GspReadout> propagated = propagator->PropagateAt(
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
  response.gsp_millis = timer.ElapsedMillis();
  gsp_latency_->Record(response.gsp_millis);
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
    queries_failed_->Increment();
    return settled;
  }
  serve_latency_->Record(serve_timer.ElapsedMillis());
  queries_served_->Increment();
  paid_units_->Increment(response.paid);
  if (options_.fault_tolerant_dispatch) {
    roads_degraded_->Increment(
        static_cast<int64_t>(response.degraded_roads.size()));
    for (crowd::DegradeReason reason : response.degraded_reasons) {
      switch (reason) {
        case crowd::DegradeReason::kDeadline:
          degraded_deadline_->Increment();
          break;
        case crowd::DegradeReason::kOutlier:
          degraded_outlier_->Increment();
          break;
        case crowd::DegradeReason::kUnstaffed:
          degraded_unstaffed_->Increment();
          break;
        case crowd::DegradeReason::kLoadShed:
          // Dispatch never produces this reason; shed accounting happens in
          // ServePeriodicFallback.
          degraded_load_shed_->Increment();
          break;
      }
    }
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
  if (!EnterServe()) {
    return RejectQuery(util::Status::FailedPrecondition(
        "engine draining: no new queries admitted"));
  }
  struct GateExit {
    QueryEngine* engine;
    ~GateExit() { engine->ExitServe(); }
  } gate_exit{this};
  const util::Status valid = ValidateRequest(request, world);
  if (!valid.ok()) return RejectQuery(valid);

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
  if (!variances.ok()) {
    queries_failed_->Increment();
    return variances.status();
  }
  response.queried_variances = std::move(*variances);

  serve_latency_->Record(serve_timer.ElapsedMillis());
  queries_served_->Increment();
  queries_shed_->Increment();
  roads_degraded_->Increment(
      static_cast<int64_t>(response.degraded_roads.size()));
  degraded_load_shed_->Increment(
      static_cast<int64_t>(response.degraded_roads.size()));
  return response;
}

EngineStats QueryEngine::stats() const {
  EngineStats snapshot;
  snapshot.queries_served = queries_served_->value();
  snapshot.queries_rejected = queries_rejected_->value();
  snapshot.queries_failed = queries_failed_->value();
  snapshot.total_paid = paid_units_->value();
  snapshot.roads_degraded = roads_degraded_->value();
  snapshot.degraded_deadline = degraded_deadline_->value();
  snapshot.degraded_outlier = degraded_outlier_->value();
  snapshot.degraded_unstaffed = degraded_unstaffed_->value();
  snapshot.degraded_load_shed = degraded_load_shed_->value();
  snapshot.queries_shed = queries_shed_->value();
  snapshot.crowd_retries = crowd_retries_->value();
  snapshot.crowd_reassignments = crowd_reassignments_->value();
  snapshot.crowd_deadline_misses = crowd_deadline_misses_->value();
  snapshot.reports_late = reports_late_->value();
  snapshot.reports_duplicate = reports_duplicate_->value();
  snapshot.reports_outlier = reports_outlier_->value();
  snapshot.ocs_latency = ocs_latency_->Snapshot();
  snapshot.crowd_latency = crowd_latency_->Snapshot();
  snapshot.gsp_latency = gsp_latency_->Snapshot();
  snapshot.serve_latency = serve_latency_->Snapshot();
  snapshot.gamma_cache = system_.CorrelationCacheStats();
  return snapshot;
}

}  // namespace crowdrtse::server
