#ifndef CROWDRTSE_SERVER_ENGINE_H_
#define CROWDRTSE_SERVER_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/crowd_rtse.h"
#include "crowd/dispatch_controller.h"
#include "rtf/correlation_cache.h"
#include "traffic/history_store.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace crowdrtse::server {

/// One realtime traffic-speed query as submitted by a client.
struct QueryRequest {
  int slot = 0;                           // 5-minute slot of day
  std::vector<graph::RoadId> queried;     // R^q
  core::SelectorKind selector = core::SelectorKind::kLazyHybridGreedy;
  /// When > 0, caps this query's budget below the ledger's per-query cap —
  /// admission control's first shed rung (fewer probed roads under load).
  /// The ledger still reserves its normal grant; the unspent remainder
  /// flows back at settle time.
  int budget_cap = 0;
};

/// Deterministic work counts of one served query, one per serve step.
/// They depend only on the world, the worker population and the request —
/// never on timing, load or cache state — so a gate on them cannot trip on
/// host noise. They count these steps only: work a step does outside them
/// is not seen. On a sharded engine they sum over the query's shard groups.
struct ServeWork {
  /// Roads the candidate listing visited: the query's C-hop ball on the
  /// ball-scoped path, every road of the (shard's) map otherwise.
  int64_t ball_roads = 0;
  /// Worker-index entries on the selected roads' buckets: the most a crowd
  /// round reads (assignment hires from their fronts, dispatch pools the
  /// rest as replacements).
  int64_t workers_read = 0;
  /// Worker-covered roads handed to OCS to score.
  int64_t candidates_scored = 0;
  /// GSP road updates: relax-order length x sweeps.
  int64_t gsp_roads_relaxed = 0;

  int64_t Total() const {
    return ball_roads + workers_read + candidates_scored + gsp_roads_relaxed;
  }
  ServeWork& operator+=(const ServeWork& other) {
    ball_roads += other.ball_roads;
    workers_read += other.workers_read;
    candidates_scored += other.candidates_scored;
    gsp_roads_relaxed += other.gsp_roads_relaxed;
    return *this;
  }
};

/// What the engine returns: the estimate for every queried road plus full
/// provenance (which roads were probed, what was paid, how much work each
/// step did). Per-stage timings live in the engine's stage histograms.
struct QueryResponse {
  int64_t query_id = 0;
  std::vector<double> queried_speeds;     // aligned with request.queried
  std::vector<graph::RoadId> probed_roads;
  /// OCS-selected roads that produced fewer answers than their quota but
  /// at least one (their probe is noisier, still usable). Disjoint from
  /// degraded_roads.
  std::vector<graph::RoadId> underfilled_roads;
  /// Fault-tolerant dispatch only: OCS-selected roads whose probes all
  /// failed (deadline/outlier/unstaffed). They fell down the degradation
  /// ladder to their RTF periodic mean mu_i^t, with widened uncertainty.
  std::vector<graph::RoadId> degraded_roads;
  /// Why each road in `degraded_roads` degraded, aligned with it — the
  /// same per-road verdicts the dispatch trace records, so responses and
  /// traces always agree.
  std::vector<crowd::DegradeReason> degraded_reasons;
  /// Fault-tolerant dispatch only: per-queried-road variance, aligned with
  /// `queried_speeds`. Probed roads report 0, propagated roads the GSP
  /// local conditional variance, degraded roads their prior marginal
  /// widened by Options::degraded_variance_inflation.
  std::vector<double> queried_variances;
  int granted_budget = 0;
  int paid = 0;
  /// Fault-tolerant dispatch only: the crowd round's dispatch-to-resolution
  /// span on the engine clock (ms); bounded by
  /// DispatchOptions::MaxRoundSpanMs() whatever the fault plan injects.
  double dispatch_span_ms = 0.0;
  int gsp_sweeps = 0;
  /// Work counts of this query (zero for a periodic-fallback answer).
  ServeWork work;
  /// Compact span summary of this query's trace; empty when the query was
  /// not sampled (Options::trace_sample_rate).
  util::trace::TraceSummary trace_summary;
};

/// One shard's slice of the rolling statistics (ShardedEngine only): which
/// shard, how much it served, and how big its Gamma_R cache footprint is.
struct ShardStats {
  int shard = 0;
  int64_t queries_served = 0;
  int64_t queries_rejected = 0;
  int64_t queries_failed = 0;
  int64_t roads_degraded = 0;
  int64_t gamma_cache_bytes = 0;
};

/// Point-in-time snapshot of the rolling service statistics. Every query
/// lands in exactly one of the three outcome counters:
///   served    — answered successfully;
///   rejected  — refused up front (invalid request or campaign budget dry)
///               before any money moved;
///   failed    — died mid-pipeline after its budget grant (its actual crowd
///               spend, possibly zero, is still settled with the ledger).
struct EngineStats {
  int64_t queries_served = 0;
  int64_t queries_rejected = 0;
  int64_t queries_failed = 0;
  int64_t total_paid = 0;
  /// End-to-end Serve latency of successfully served queries.
  util::metrics::LatencySnapshot serve_latency;
  /// Degradation-ladder accounting (fault-tolerant dispatch only). Every
  /// degraded road lands in exactly one per-reason counter.
  int64_t roads_degraded = 0;
  int64_t degraded_deadline = 0;   // all attempts dropped out / timed out
  int64_t degraded_outlier = 0;    // answers arrived, all implausible
  int64_t degraded_unstaffed = 0;  // no worker on the road to ask
  int64_t degraded_load_shed = 0;  // answered from the periodic fallback
  /// Queries answered entirely from the periodic-mean fallback
  /// (ServePeriodicFallback) — admission control shed them before any
  /// budget was granted or worker asked. Counted inside queries_served.
  int64_t queries_shed = 0;
  /// Dispatch fault/retry counters summed over all served queries.
  int64_t crowd_retries = 0;
  int64_t crowd_reassignments = 0;
  int64_t crowd_deadline_misses = 0;
  int64_t reports_late = 0;
  int64_t reports_duplicate = 0;
  int64_t reports_outlier = 0;
  /// Gamma_R correlation-cache state: hit/miss/coalesce/eviction counters,
  /// resident footprint, and the cold-slot compute-latency distribution.
  rtf::CorrelationCache::StatsSnapshot gamma_cache;
  /// Per-shard breakdown, one entry per shard in ascending shard order.
  /// Empty for an unsharded engine; a ShardedEngine fills it from its
  /// sub-engines' registries. The totals above always cover all shards.
  std::vector<ShardStats> shards;

  std::string Report() const;
};

/// Checks a request's shape before any budget moves: at least one road,
/// the slot within [0, num_slots), every road within [0, num_roads).
util::Status ValidateQuery(const QueryRequest& request, int num_slots,
                           int num_roads);

/// The outcome instruments every engine registers once in its registry:
/// served / rejected / failed / shed queries, paid units, degraded roads
/// (total and per DegradeReason) and end-to-end serve latency. It fills
/// the matching EngineStats fields, so both engines count and report a
/// query the same way.
class ServeCounters {
 public:
  explicit ServeCounters(util::metrics::MetricsRegistry& registry);

  /// Counts a query refused before any budget moved; returns `status`.
  util::Status Reject(util::Status status);
  /// Counts a query that died after its grant; `paid` is what the crowd
  /// was really paid for it. Returns `status`.
  util::Status Fail(util::Status status, int64_t paid = 0);
  /// Counts an answered query: its payment, its degraded roads by reason,
  /// and its serve latency.
  void Served(const QueryResponse& response, double serve_millis);
  /// Served(), plus the whole-query shed count of a periodic-fallback
  /// answer.
  void Shed(const QueryResponse& response, double serve_millis);

  /// Copies the counts and the serve-latency snapshot into `stats`.
  void Fill(EngineStats& stats) const;

 private:
  util::metrics::Counter* served_;
  util::metrics::Counter* rejected_;
  util::metrics::Counter* failed_;
  util::metrics::Counter* paid_units_;
  util::metrics::Counter* shed_;
  util::metrics::Counter* roads_degraded_;
  util::metrics::Counter* degraded_deadline_;
  util::metrics::Counter* degraded_outlier_;
  util::metrics::Counter* degraded_unstaffed_;
  util::metrics::Counter* degraded_load_shed_;
  util::metrics::LatencyHistogram* serve_latency_;
};

/// The drain gate: admits serves until Drain(), then refuses them and
/// waits for the admitted ones to finish.
class ServeGate {
 public:
  /// One admitted serve, released when it goes out of scope. Converts to
  /// false when the gate was already draining (nothing to release).
  class Admission {
   public:
    explicit Admission(ServeGate& gate)
        : gate_(gate), admitted_(gate.Enter()) {}
    ~Admission() {
      if (admitted_) gate_.Exit();
    }
    Admission(const Admission&) = delete;
    Admission& operator=(const Admission&) = delete;
    explicit operator bool() const { return admitted_; }

   private:
    ServeGate& gate_;
    bool admitted_;
  };

  /// Refuses new admissions and blocks until every admitted serve has been
  /// released. Idempotent.
  void Drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  bool Enter();
  void Exit();

  std::atomic<bool> draining_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  int64_t in_flight_ = 0;
};

/// The serving surface the front-end binds to. QueryEngine implements it
/// over one world-wide model; ShardedEngine implements it over K
/// partitioned engines behind a cross-shard router. Everything the
/// Frontend and the benches touch — serving, draining, stats, metrics,
/// traces — goes through this interface, so swapping in a sharded engine
/// changes no caller code.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Serves one query against `world` (today's real speeds).
  virtual util::Result<QueryResponse> Serve(
      const QueryRequest& request, const traffic::DayMatrix& world) = 0;

  /// Answers `request` entirely from the RTF periodic means mu_i^t — the
  /// bottom rung of the degradation ladder (no budget, no crowd, no GSP).
  virtual util::Result<QueryResponse> ServePeriodicFallback(
      const QueryRequest& request, const traffic::DayMatrix& world) = 0;

  /// Stops admitting new queries and blocks until every in-flight Serve
  /// has returned. Idempotent.
  virtual void Drain() = 0;

  /// True once Drain() has been called.
  virtual bool draining() const = 0;

  /// Consistent snapshot of the rolling statistics.
  virtual EngineStats stats() const = 0;

  /// The engine's named instruments, renderable as Prometheus text or
  /// JSON. A sharded engine exposes per-shard series via {shard="k"}
  /// labels on top of the aggregate names.
  virtual const util::metrics::MetricsRegistry& metrics() const = 0;

  /// Finished traces of sampled queries.
  virtual const util::trace::TraceCollector& traces() const = 0;
};

}  // namespace crowdrtse::server

#endif  // CROWDRTSE_SERVER_ENGINE_H_
