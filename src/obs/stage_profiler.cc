#include "obs/stage_profiler.h"

#include <chrono>
#include <string>

#if defined(__linux__) || defined(__APPLE__)
#include <time.h>
#define CROWDRTSE_HAS_THREAD_CPUTIME 1
#endif

namespace crowdrtse::obs {
namespace {

thread_local StageProfiler* t_profiler = nullptr;
thread_local int64_t t_profile_query = 0;

int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kOcsSelect:
      return "ocs.select";
    case Stage::kCrowdDispatch:
      return "crowd.dispatch";
    case Stage::kGammaCompute:
      return "gamma.compute";
    case Stage::kGspSweep:
      return "gsp.sweep";
    case Stage::kMerge:
      return "merge";
  }
  return "unknown";
}

int64_t ThreadCpuNanos() {
#ifdef CROWDRTSE_HAS_THREAD_CPUTIME
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
  return 0;
#endif
}

StageProfiler::StageProfiler(util::metrics::MetricsRegistry* registry) {
  for (int i = 0; i < kNumStages; ++i) {
    const std::string label =
        std::string("{stage=\"") + StageName(static_cast<Stage>(i)) + "\"}";
    wall_[i] = &registry->GetHistogram(
        "crowdrtse_stage_wall_ms" + label,
        "Wall time per serve-pipeline stage (exemplar = query id)");
    cpu_[i] = &registry->GetHistogram(
        "crowdrtse_stage_cpu_ms" + label,
        "Thread-CPU time per serve-pipeline stage");
  }
}

void StageProfiler::RecordStage(Stage stage, int64_t query_id, double wall_ms,
                                double cpu_ms) {
  const int i = static_cast<int>(stage);
  wall_[i]->RecordWithExemplar(wall_ms, query_id);
  cpu_[i]->Record(cpu_ms);
}

StageProfiler* ActiveProfiler() { return t_profiler; }

int64_t ActiveProfileQueryId() { return t_profile_query; }

ScopedProfile::ScopedProfile(StageProfiler* profiler, int64_t query_id)
    : previous_profiler_(t_profiler), previous_query_(t_profile_query) {
  t_profiler = profiler;
  t_profile_query = query_id;
}

ScopedProfile::~ScopedProfile() {
  t_profiler = previous_profiler_;
  t_profile_query = previous_query_;
}

StageTimer::StageTimer(Stage stage)
    : profiler_(t_profiler), stage_(stage) {
  if (profiler_ == nullptr) return;
  query_id_ = t_profile_query;
  wall_start_ns_ = WallNanos();
  cpu_start_ns_ = ThreadCpuNanos();
}

void StageTimer::Stop() {
  if (profiler_ == nullptr) return;
  const double wall_ms = (WallNanos() - wall_start_ns_) * 1e-6;
  const double cpu_ms = (ThreadCpuNanos() - cpu_start_ns_) * 1e-6;
  profiler_->RecordStage(stage_, query_id_, wall_ms, cpu_ms);
  profiler_ = nullptr;
}

}  // namespace crowdrtse::obs
