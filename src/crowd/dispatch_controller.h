#ifndef CROWDRTSE_CROWD_DISPATCH_CONTROLLER_H_
#define CROWDRTSE_CROWD_DISPATCH_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "crowd/crowd_simulator.h"
#include "crowd/fault_plan.h"
#include "crowd/task_assignment.h"
#include "crowd/worker.h"
#include "util/clock.h"
#include "util/status.h"

namespace crowdrtse::crowd {

/// Knobs of the fault-tolerant dispatch state machine
/// (deadline -> retry -> reassign -> degrade; DESIGN.md §5c).
struct DispatchOptions {
  /// Per-attempt answer deadline (ms). An attempt that has not produced an
  /// accepted report by then is written off and retried.
  double deadline_ms = 50.0;
  /// Total attempts per task, initial dispatch included.
  int max_attempts = 3;
  /// Jittered exponential backoff between attempts: retry k (1-based)
  /// waits min(cap, base * 2^(k-1)) * U[1 - jitter, 1 + jitter] ms after
  /// the failed attempt resolves.
  double backoff_base_ms = 10.0;
  double backoff_cap_ms = 200.0;
  double backoff_jitter = 0.0;
  /// Healthy worker answer latency, drawn uniformly per attempt (ms).
  double min_response_ms = 5.0;
  double max_response_ms = 20.0;
  /// On a missed deadline, prefer a fresh worker on the same road over
  /// re-asking the straggler.
  bool reassign_stragglers = true;
  /// Plausibility window: reports outside are rejected as outliers before
  /// they can reach aggregation.
  double min_plausible_kmh = 0.5;
  double max_plausible_kmh = 150.0;
  /// Second-stage statistical rejection before aggregation (see
  /// crowd::FilterReports): per road, answers farther than this many robust
  /// standard deviations from the median are discarded. <= 0 disables.
  double mad_sigmas = 4.0;
  /// How accepted answers fuse into one probed speed per road.
  AggregationPolicy aggregation = AggregationPolicy::kTrimmedMean;
  /// Seed of the controller's deterministic latency/jitter draws (pure
  /// hashes, like FaultPlan — dispatch order never shifts them).
  uint64_t seed = 0xd15c0u;

  /// Worst-case wall/sim time from dispatch to the last task resolving:
  /// max_attempts deadlines plus every backoff at full jitter. The serving
  /// layer's crowd-phase latency budget.
  double MaxRoundSpanMs() const;
};

/// One dispatch in the round's deterministic timeline (times are
/// microseconds relative to round start). Tests assert retry counts and the
/// exact backoff schedule from this log.
struct DispatchAttempt {
  graph::RoadId road = graph::kInvalidRoad;
  WorkerId worker = -1;
  int task = 0;     // index into the round's task list
  int attempt = 0;  // 1-based
  int64_t dispatched_us = 0;
  bool reassigned = false;  // retry moved to a different worker
  FaultKind fault = FaultKind::kNone;
};

/// Aggregate fault/retry counters of one round.
struct DispatchStats {
  int tasks = 0;               // assignments dispatched (quota-sized)
  int answered = 0;            // tasks resolved by an accepted report
  int exhausted = 0;           // tasks that ran out of attempts
  int retries = 0;             // re-dispatches after a failed attempt
  int reassignments = 0;       // retries that moved to a fresh worker
  int deadline_misses = 0;     // attempts written off at their deadline
  int late_reports = 0;        // reports that arrived past their deadline
  int duplicate_reports = 0;   // dropped: task already answered
  int outlier_reports = 0;     // dropped: outside the plausibility window
};

/// Why a road ended the round with zero usable answers. The first three
/// reasons come out of the dispatch state machine; kLoadShed is assigned one
/// level up, by the serving layer, when admission control answers a query
/// from the periodic-mean fallback without running a crowd round at all
/// (degrade-before-drop — the same ladder rung, entered from the front).
enum class DegradeReason {
  kUnstaffed,  // no worker was on the road to begin with
  kDeadline,   // every attempt dropped out or missed its deadline
  kOutlier,    // answers arrived but all were rejected as implausible
  kLoadShed,   // admission control shed the query to the periodic fallback
};

const char* DegradeReasonName(DegradeReason reason);

/// Everything one fault-tolerant crowdsourcing round produced.
struct DispatchRound {
  /// Aggregated probes over roads with >= 1 accepted answer; total_paid
  /// counts accepted answers only (unanswered tasks are never paid).
  CrowdRound round;
  /// Roads that collected some but fewer than quota answers. Disjoint from
  /// degraded_roads by construction: a road is either underfilled (usable)
  /// or degraded (unusable), never both.
  std::vector<graph::RoadId> underfilled_roads;
  /// Roads with zero accepted answers — the degradation ladder's input.
  std::vector<graph::RoadId> degraded_roads;
  std::vector<DegradeReason> degraded_reasons;  // aligned with degraded_roads
  DispatchStats stats;
  std::vector<DispatchAttempt> attempts;
  /// Sim/wall time from dispatch to the last task resolving (ms). Bounded
  /// by DispatchOptions::MaxRoundSpanMs() — the crowd phase cannot stall a
  /// query past its budget no matter what the fault plan does.
  double span_ms = 0.0;
};

/// Runs one crowdsourcing round under deadlines, bounded jittered-backoff
/// retries, straggler reassignment, and duplicate/outlier rejection. Time
/// comes from the injected Clock (WallClock in prod, SimClock in tests);
/// faults come from the injected FaultPlan (fault-free by default).
///
/// The controller is an event-driven simulator of the platform side of the
/// round: it knows when each report would arrive (worker latency plus any
/// injected fault) and sleeps the clock forward between events, so on a
/// SimClock a round costs zero wall time and replays bit-identically.
/// Stateless across runs and const — safe to share between threads as long
/// as the answer callback is (the serving layer already serializes its
/// stateful CrowdSimulator).
class DispatchController {
 public:
  /// Produces the (bias/noise-applied) report of `worker` for her road —
  /// typically CrowdSimulator::GenerateAnswer against today's truth.
  using AnswerFn =
      std::function<SpeedAnswer(const Worker& worker, graph::RoadId road)>;

  DispatchController(const DispatchOptions& options, util::Clock* clock);

  const DispatchOptions& options() const { return options_; }

  /// Dispatches `plan` and drives it to resolution. `index` covers the
  /// available population: hired workers resolve by id, and replacement
  /// workers for reassignment come from the selected roads' buckets. Roads
  /// in the plan with zero accepted answers come back degraded, never as an
  /// error — the round itself only fails on malformed input.
  util::Result<DispatchRound> Run(const AssignmentPlan& plan,
                                  const WorkerIndex& index,
                                  const CostModel& costs,
                                  const FaultPlan& faults,
                                  const AnswerFn& answer) const;

  /// Run over a plain population, indexed over the cost model's roads.
  util::Result<DispatchRound> Run(const AssignmentPlan& plan,
                                  const std::vector<Worker>& workers,
                                  const CostModel& costs,
                                  const FaultPlan& faults,
                                  const AnswerFn& answer) const;

 private:
  DispatchOptions options_;
  util::Clock* clock_;  // never null
};

}  // namespace crowdrtse::crowd

#endif  // CROWDRTSE_CROWD_DISPATCH_CONTROLLER_H_
