#ifndef CROWDRTSE_OBS_STAGE_PROFILER_H_
#define CROWDRTSE_OBS_STAGE_PROFILER_H_

#include <cstdint>

#include "util/metrics.h"

namespace crowdrtse::obs {

/// The serve-pipeline stages the profiler attributes time to.
enum class Stage : int {
  kOcsSelect = 0,     // OCS marginal-gain road selection
  kCrowdDispatch = 1, // crowd probe dispatch (incl. fault-tolerant retries)
  kGammaCompute = 2,  // Gamma_R correlation-table compute on a cache miss
  kGspSweep = 3,      // GSP coordinate-sweep propagation
  kMerge = 4,         // cross-shard response merge in the router
};
inline constexpr int kNumStages = 5;

/// Stable dotted stage name ("ocs.select"), used as the `stage` label on
/// the exported histograms.
const char* StageName(Stage stage);

/// Thread-CPU time (CLOCK_THREAD_CPUTIME_ID) in nanoseconds; 0 on
/// platforms without a per-thread CPU clock (CPU attribution then reads 0,
/// wall attribution still works).
int64_t ThreadCpuNanos();

/// Per-stage wall/CPU profiler. One instance per engine, writing labeled
/// histograms into that engine's MetricsRegistry:
///
///   crowdrtse_stage_wall_ms{stage="ocs.select"}  (+ _cpu_ms)
///
/// Every query that runs a stage records it: wall time on steady_clock,
/// CPU time on the thread's CPU clock. Each sample carries the query id as
/// the bucket's exemplar, so a p99 bucket in /metrics links straight to a
/// trace id that landed there (`/trace/<id>` shows the stitched span tree
/// when that query was traced).
class StageProfiler {
 public:
  explicit StageProfiler(util::metrics::MetricsRegistry* registry);

  StageProfiler(const StageProfiler&) = delete;
  StageProfiler& operator=(const StageProfiler&) = delete;

  /// Records one stage sample (called by StageTimer). `query_id` becomes
  /// the exemplar on the wall histogram's bucket.
  void RecordStage(Stage stage, int64_t query_id, double wall_ms,
                   double cpu_ms);

 private:
  util::metrics::LatencyHistogram* wall_[kNumStages];
  util::metrics::LatencyHistogram* cpu_[kNumStages];
};

/// The profiler the calling thread's current query records into (set by
/// ScopedProfile); nullptr outside any scope.
StageProfiler* ActiveProfiler();
/// Query id of the active profile scope, 0 when none.
int64_t ActiveProfileQueryId();

/// Installs a per-query profiling scope on the calling thread — the stage
/// timers below find it through TLS, so deep pipeline layers (gamma cache,
/// GSP) need no profiler plumbing. The sharded router installs its scope
/// around sub-serves so all stages of a cross-shard query aggregate under
/// the router's query id; QueryEngine only installs its own when no
/// ambient scope exists.
class ScopedProfile {
 public:
  ScopedProfile(StageProfiler* profiler, int64_t query_id);
  ~ScopedProfile();

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

 private:
  StageProfiler* previous_profiler_;
  int64_t previous_query_;
};

/// RAII wall+CPU stage timer: two steady_clock and two thread-CPU clock
/// reads per stage. Outside any ScopedProfile it records nothing and costs
/// one thread-local read. Stop() records early.
class StageTimer {
 public:
  explicit StageTimer(Stage stage);
  ~StageTimer() { Stop(); }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void Stop();

 private:
  StageProfiler* profiler_;
  int64_t query_id_ = 0;
  Stage stage_;
  int64_t wall_start_ns_ = 0;
  int64_t cpu_start_ns_ = 0;
};

}  // namespace crowdrtse::obs

#endif  // CROWDRTSE_OBS_STAGE_PROFILER_H_
