#include "obs/stage_profiler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/metrics.h"

namespace crowdrtse::obs {
namespace {

using util::metrics::MetricsRegistry;

TEST(StageProfilerTest, StageNamesAreStable) {
  EXPECT_STREQ(StageName(Stage::kOcsSelect), "ocs.select");
  EXPECT_STREQ(StageName(Stage::kCrowdDispatch), "crowd.dispatch");
  EXPECT_STREQ(StageName(Stage::kGammaCompute), "gamma.compute");
  EXPECT_STREQ(StageName(Stage::kGspSweep), "gsp.sweep");
  EXPECT_STREQ(StageName(Stage::kMerge), "merge");
}

TEST(StageProfilerTest, TimerIsNoopWithoutActiveScope) {
  ASSERT_EQ(ActiveProfiler(), nullptr);
  {
    StageTimer timer(Stage::kGspSweep);
  }  // must not crash and must record nothing anywhere
  EXPECT_EQ(ActiveProfileQueryId(), 0);
}

TEST(StageProfilerTest, ScopedProfileInstallsAndRestores) {
  MetricsRegistry registry;
  StageProfiler profiler(&registry);
  EXPECT_EQ(ActiveProfiler(), nullptr);
  {
    ScopedProfile outer(&profiler, 7);
    EXPECT_EQ(ActiveProfiler(), &profiler);
    EXPECT_EQ(ActiveProfileQueryId(), 7);
    {
      ScopedProfile inner(&profiler, 9);
      EXPECT_EQ(ActiveProfileQueryId(), 9);
    }
    EXPECT_EQ(ActiveProfileQueryId(), 7);
  }
  EXPECT_EQ(ActiveProfiler(), nullptr);
  EXPECT_EQ(ActiveProfileQueryId(), 0);
}

TEST(StageProfilerTest, TimerRecordsLabeledHistogramsWithExemplar) {
  MetricsRegistry registry;
  StageProfiler profiler(&registry);
  {
    ScopedProfile scope(&profiler, 42);
    StageTimer timer(Stage::kOcsSelect);
    timer.Stop();
    StageTimer gsp(Stage::kGspSweep);
  }
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("crowdrtse_stage_wall_ms_count{stage=\"ocs.select\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("crowdrtse_stage_cpu_ms_count{stage=\"ocs.select\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("crowdrtse_stage_wall_ms_count{stage=\"gsp.sweep\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("crowdrtse_stage_wall_ms_bucket{stage=\"ocs.select\",le="),
            std::string::npos);
  // The profiled query id rides along as the wall bucket's exemplar.
  EXPECT_NE(text.find("trace_id=\"42\""), std::string::npos) << text;
}

TEST(StageProfilerTest, StopIsIdempotent) {
  MetricsRegistry registry;
  StageProfiler profiler(&registry);
  ScopedProfile scope(&profiler, 5);
  StageTimer timer(Stage::kMerge);
  timer.Stop();
  timer.Stop();  // second stop must not double-record
  const std::string text = registry.RenderPrometheus();
  const std::string count_line = "crowdrtse_stage_wall_ms_count{stage=\"merge\"}";
  const size_t at = text.find(count_line);
  ASSERT_NE(at, std::string::npos) << text;
  const size_t eol = text.find('\n', at);
  const std::string value =
      text.substr(at + count_line.size() + 1, eol - at - count_line.size() - 1);
  EXPECT_EQ(value, "1") << text;
}

}  // namespace
}  // namespace crowdrtse::obs
