#ifndef CROWDRTSE_SERVER_QUERY_ENGINE_H_
#define CROWDRTSE_SERVER_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/crowd_rtse.h"
#include "crowd/dispatch_controller.h"
#include "crowd/fault_plan.h"
#include "gsp/propagator_pool.h"
#include "obs/stage_profiler.h"
#include "server/budget_ledger.h"
#include "server/engine.h"
#include "server/worker_registry.h"
#include "traffic/history_store.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace crowdrtse::server {

/// The online half of CrowdRTSE as a service (paper Fig. 1): receives
/// queries, consults the worker registry for the current R^w, lets the
/// ledger grant a budget, runs OCS -> crowdsourcing -> GSP, settles the
/// payment and answers. The ground-truth DayMatrix stands in for the real
/// world the crowd measures (see DESIGN.md §2 substitutions).
///
/// Thread-safety: Serve may be called from any number of threads
/// concurrently. Query ids are allocated atomically, the ledger reserves
/// budget atomically, stats/metrics are internally synchronized, the GSP
/// phase leases a propagator from a fixed pool (which bounds how many GSP
/// phases run at once; see gsp/propagator_pool.h), and the crowd-simulation
/// phase is serialized on an internal mutex (the simulator's RNG is
/// stateful; a real crowd is asynchronous anyway). Lazy CCD refinement is
/// safe under concurrent serving: CrowdRtse serializes it internally,
/// confines its writes to the slot being refined, and computes Gamma_R
/// from a snapshot, so cold slots need no pre-warming. One caveat remains
/// the caller's responsibility: WorkerRegistry::AdvanceSlot must not run
/// while queries are in flight (quiesce between slots).
class QueryEngine : public Engine {
 public:
  /// Engine behaviour knobs.
  struct Options {
    /// Number of SpeedPropagator instances available to concurrent GSP
    /// phases (also the GSP concurrency limit). <= 0 means 4.
    int propagator_pool_size = 0;
    /// Fault-tolerant crowd dispatch (deadline -> retry -> reassign ->
    /// degrade; DESIGN.md §5c). When false the legacy single-shot
    /// assignment path runs: every assigned worker answers, no deadlines,
    /// no degradation.
    bool fault_tolerant_dispatch = false;
    /// Deadline / retry / backoff / rejection knobs of the dispatch state
    /// machine.
    crowd::DispatchOptions dispatch;
    /// Fault injection over the simulated crowd (fault-free by default;
    /// tests and chaos drills configure drops/delays/duplicates/corruption
    /// here, fully seeded).
    crowd::FaultPlan fault_plan;
    /// Time source for deadlines and backoff waits. nullptr = wall clock;
    /// tests inject a util::SimClock so faulted rounds cost zero wall time
    /// and replay bit-identically. Must outlive the engine.
    util::Clock* clock = nullptr;
    /// How much a degraded road's reported variance widens over its prior
    /// marginal sigma_i^2 (>= 1).
    double degraded_variance_inflation = 4.0;
    /// Fraction of queries traced — a deterministic hash of the query id,
    /// so the same id samples identically everywhere. 0 (default) disables
    /// tracing: Serve takes one thread-local read per would-be span and
    /// allocates nothing. 1 traces every query.
    double trace_sample_rate = 0.0;
    /// Finished traces kept for Chrome export (the ring) and in the
    /// slow-query log (top-N by serve latency).
    int trace_ring_size = 256;
    int trace_slow_log_size = 16;
  };

  /// All dependencies are borrowed and must outlive the engine.
  QueryEngine(core::CrowdRtse& system, WorkerRegistry& registry,
              BudgetLedger& ledger, const crowd::CostModel& costs,
              crowd::CrowdSimulator& crowd_sim);
  QueryEngine(core::CrowdRtse& system, WorkerRegistry& registry,
              BudgetLedger& ledger, const crowd::CostModel& costs,
              crowd::CrowdSimulator& crowd_sim, Options options);

  ~QueryEngine() override;

  /// Serves one query against `world` (today's real speeds). Rejects with
  /// InvalidArgument on a malformed request (no roads, out-of-range slot
  /// or road ids) and FailedPrecondition when the campaign budget is
  /// exhausted or the engine is draining — both before any budget is
  /// granted or worker paid.
  util::Result<QueryResponse> Serve(const QueryRequest& request,
                                    const traffic::DayMatrix& world) override;

  /// Answers `request` entirely from the RTF periodic means mu_i^t with
  /// prior-widened variances — the bottom rung of the degradation ladder,
  /// which admission control uses to shed load without dropping queries.
  /// No budget is granted, no worker is asked, no OCS/dispatch/GSP pass
  /// runs; every queried road comes back in degraded_roads with reason
  /// kLoadShed. Validation matches Serve. Counted as served (and shed).
  util::Result<QueryResponse> ServePeriodicFallback(
      const QueryRequest& request, const traffic::DayMatrix& world) override;

  /// Stops admitting new queries (they reject with FailedPrecondition
  /// "draining") and blocks until every in-flight Serve has returned, so
  /// the engine — and everything it borrows: the Gamma_R cache's compute
  /// threads, propagator leases, the crowd simulator — is quiescent.
  /// Idempotent; the destructor calls it, making teardown while serving
  /// threads wind down safe instead of a race against the thread pools.
  void Drain() override;

  /// True once Drain() has been called.
  bool draining() const override { return gate_.draining(); }

  /// Consistent snapshot of the rolling statistics (a thin view over the
  /// metrics registry).
  EngineStats stats() const override;

  /// The engine's named instruments — counters, gauges (gamma-cache bytes,
  /// outstanding reservations, GSP leases in flight), the serve-latency
  /// histogram and the per-stage wall/CPU histograms. Render with
  /// RenderPrometheus() / RenderJson().
  const util::metrics::MetricsRegistry& metrics() const override {
    return metrics_;
  }

  /// Finished traces of sampled queries: the export ring
  /// (ChromeTraceJson()) and the slow-query log (SlowQueryReport()).
  const util::trace::TraceCollector& traces() const override {
    return traces_;
  }

  /// Swaps the fault-injection plan mid-run (scenario fault waves /
  /// liar-cohort events). Takes effect on the next Serve; must not race
  /// with in-flight queries — quiesce first, like AdvanceSlot.
  void SetFaultPlan(const crowd::FaultPlan& plan) {
    options_.fault_plan = plan;
  }

 private:
  /// Creates the dispatch counters and the callback gauges.
  void RegisterInstruments();
  /// Closes the books on a query that died mid-pipeline: settles whatever
  /// the crowd was actually paid (so real spend never leaks from the
  /// campaign accounting) and counts the failure. Returns `status`.
  util::Status FailQuery(int64_t query_id, int granted, int paid,
                         const util::Status& status);

  core::CrowdRtse& system_;
  WorkerRegistry& registry_;
  BudgetLedger& ledger_;
  const crowd::CostModel& costs_;
  crowd::CrowdSimulator& crowd_sim_;
  Options options_;
  gsp::PropagatorPool propagators_;

  std::atomic<int64_t> next_query_id_{1};
  /// Serializes the stateful crowd simulator (see class comment).
  std::mutex crowd_mutex_;

  ServeGate gate_;

  /// All rolling statistics live as named instruments in the registry
  /// (wait-free counters/histograms; callback gauges read live component
  /// state at render time). The pointers below are the hot-path handles —
  /// they stay valid for the registry's lifetime, so Serve never re-looks
  /// anything up by name.
  util::metrics::MetricsRegistry metrics_;
  util::trace::TraceCollector traces_;
  /// Per-stage wall/CPU attribution into metrics_ (ambient scope: when a
  /// sharded router already installed its own, Serve adopts it).
  obs::StageProfiler profiler_;
  ServeCounters counters_;
  /// Dispatch fault/retry accounting (fault-tolerant path only).
  util::metrics::Counter* crowd_retries_ = nullptr;
  util::metrics::Counter* crowd_reassignments_ = nullptr;
  util::metrics::Counter* crowd_deadline_misses_ = nullptr;
  util::metrics::Counter* reports_late_ = nullptr;
  util::metrics::Counter* reports_duplicate_ = nullptr;
  util::metrics::Counter* reports_outlier_ = nullptr;
};

}  // namespace crowdrtse::server

#endif  // CROWDRTSE_SERVER_QUERY_ENGINE_H_
