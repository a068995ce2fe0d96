#include "util/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace crowdrtse::util::metrics {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(LatencyHistogramTest, EmptySnapshotIsAllZero) {
  LatencyHistogram histogram;
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.mean_ms, 0.0);
  EXPECT_EQ(snap.p50_ms, 0.0);
  EXPECT_EQ(snap.p99_ms, 0.0);
  EXPECT_EQ(snap.max_ms, 0.0);
}

TEST(LatencyHistogramTest, CountSumAndMaxAreExact) {
  LatencyHistogram histogram;
  histogram.Record(1.0);
  histogram.Record(2.0);
  histogram.Record(9.0);
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_NEAR(snap.sum_ms, 12.0, 1e-6);
  EXPECT_NEAR(snap.mean_ms, 4.0, 1e-6);
  EXPECT_NEAR(snap.max_ms, 9.0, 1e-6);
}

TEST(LatencyHistogramTest, PercentilesLandWithinABucket) {
  LatencyHistogram histogram;
  // 100 samples spread 1..100 ms. Exact p50 = 50, p95 = 95, p99 = 99;
  // bucket interpolation is accurate to within one geometric bucket
  // (ratio 1.6), so allow that relative slack.
  for (int i = 1; i <= 100; ++i) {
    histogram.Record(static_cast<double>(i));
  }
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_GT(snap.p50_ms, 50.0 / 1.7);
  EXPECT_LT(snap.p50_ms, 50.0 * 1.7);
  EXPECT_GT(snap.p95_ms, 95.0 / 1.7);
  EXPECT_LT(snap.p95_ms, 95.0 * 1.7);
  EXPECT_GT(snap.p99_ms, 99.0 / 1.7);
  EXPECT_LE(snap.p99_ms, snap.max_ms + 1e-9);
  // Order must hold regardless of interpolation.
  EXPECT_LE(snap.p50_ms, snap.p95_ms);
  EXPECT_LE(snap.p95_ms, snap.p99_ms);
  EXPECT_LE(snap.p99_ms, snap.max_ms);
}

TEST(LatencyHistogramTest, NegativeAndHugeSamplesClampIntoRange) {
  LatencyHistogram histogram;
  histogram.Record(-5.0);   // clamps to 0
  histogram.Record(1e12);   // lands in the overflow bucket
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 2);
  EXPECT_NEAR(snap.max_ms, 1e12, 1e6);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(0.5 + 0.1 * static_cast<double>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_GE(snap.max_ms, 0.5);
}

TEST(LatencySnapshotTest, ToStringMentionsPercentiles) {
  LatencyHistogram histogram;
  histogram.Record(2.0);
  const std::string text = histogram.Snapshot().ToString();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  EXPECT_NE(text.find("n=1"), std::string::npos);
}

TEST(LatencyHistogramTest, BucketBoundsAreMonotonic) {
  for (int i = 1; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_GT(LatencyHistogram::BucketUpperBound(i),
              LatencyHistogram::BucketUpperBound(i - 1));
  }
}

TEST(LatencyHistogramTest, SampleBelowFirstBoundLandsInFirstBucket) {
  LatencyHistogram histogram;
  histogram.Record(0.0);
  histogram.Record(LatencyHistogram::BucketUpperBound(0) / 2.0);
  const auto counts = histogram.BucketCounts();
  EXPECT_EQ(counts[0], 2);
  for (int i = 1; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(counts[static_cast<size_t>(i)], 0);
  }
}

TEST(LatencyHistogramTest, OverflowSamplesLandInLastBucket) {
  LatencyHistogram histogram;
  const double beyond =
      LatencyHistogram::BucketUpperBound(LatencyHistogram::kNumBuckets - 1) *
      10.0;
  histogram.Record(beyond);
  histogram.Record(std::numeric_limits<double>::infinity());
  const auto counts = histogram.BucketCounts();
  EXPECT_EQ(counts[LatencyHistogram::kNumBuckets - 1], 2);
  // Infinity clamps to the max representable sample; sum and max stay
  // finite so one bad input cannot poison the aggregates.
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_TRUE(std::isfinite(snap.sum_ms));
  EXPECT_TRUE(std::isfinite(snap.max_ms));
}

TEST(LatencyHistogramTest, NanAndNegativeClampToZero) {
  LatencyHistogram histogram;
  histogram.Record(std::numeric_limits<double>::quiet_NaN());
  histogram.Record(-std::numeric_limits<double>::infinity());
  histogram.Record(-1.0);
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_EQ(snap.sum_ms, 0.0);
  EXPECT_EQ(snap.max_ms, 0.0);
  EXPECT_FALSE(std::isnan(snap.mean_ms));
  const auto counts = histogram.BucketCounts();
  EXPECT_EQ(counts[0], 3);
}

TEST(LatencyHistogramTest, PercentileAtBucketBoundary) {
  LatencyHistogram histogram;
  // Every sample sits exactly on one bucket's upper bound. Bucketing is
  // strictly-greater, so the samples own the *next* bucket and every
  // percentile must land inside [bound, next bound] — and never above the
  // recorded max (which itself rounds to integer microseconds).
  const double bound = LatencyHistogram::BucketUpperBound(10);
  for (int i = 0; i < 100; ++i) histogram.Record(bound);
  const auto counts = histogram.BucketCounts();
  EXPECT_EQ(counts[11], 100);  // the bucket whose range is (bound10, bound11]
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_NEAR(snap.max_ms, bound, 1e-3);  // microsecond rounding
  EXPECT_GE(snap.p50_ms, bound);
  EXPECT_LE(snap.p50_ms, LatencyHistogram::BucketUpperBound(11));
  EXPECT_LE(snap.p50_ms, snap.max_ms + 1e-12);
  EXPECT_LE(snap.p99_ms, snap.max_ms + 1e-12);
  EXPECT_LE(snap.p50_ms, snap.p95_ms);
  EXPECT_LE(snap.p95_ms, snap.p99_ms);
}

TEST(LatencyHistogramTest, SingleSamplePercentilesNeverExceedMax) {
  LatencyHistogram histogram;
  histogram.Record(3.0);
  const LatencySnapshot snap = histogram.Snapshot();
  EXPECT_LE(snap.p50_ms, snap.max_ms + 1e-12);
  EXPECT_LE(snap.p95_ms, snap.max_ms + 1e-12);
  EXPECT_LE(snap.p99_ms, snap.max_ms + 1e-12);
}

TEST(LatencySnapshotTest, ToJsonCarriesEveryField) {
  LatencyHistogram histogram;
  histogram.Record(2.0);
  const std::string json = histogram.Snapshot().ToJson();
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sum_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"mean_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_ms\":"), std::string::npos);
}

TEST(GaugeTest, SetAndAddRoundTrip) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
}

TEST(MetricsRegistryTest, InstrumentsAreCreateOnFirstUseAndStable) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("requests_total", "requests");
  counter.Increment(5);
  // Second lookup returns the same instrument.
  EXPECT_EQ(&registry.GetCounter("requests_total"), &counter);
  EXPECT_EQ(registry.GetCounter("requests_total").value(), 5);
  Gauge& gauge = registry.GetGauge("in_flight");
  gauge.Set(2);
  EXPECT_EQ(&registry.GetGauge("in_flight"), &gauge);
  LatencyHistogram& histogram = registry.GetHistogram("latency_ms");
  EXPECT_EQ(&registry.GetHistogram("latency_ms"), &histogram);
}

TEST(MetricsRegistryDeathTest, KindMismatchIsAProgrammingError) {
  MetricsRegistry registry;
  registry.GetCounter("shared_name");
  EXPECT_DEATH(registry.GetGauge("shared_name"), "check failed");
  EXPECT_DEATH(registry.GetHistogram("shared_name"), "check failed");
}

TEST(MetricsRegistryTest, RenderPrometheusShape) {
  MetricsRegistry registry;
  registry.GetCounter("b_total", "a counter").Increment(3);
  registry.GetGauge("a_gauge", "a gauge").Set(-2);
  registry.GetHistogram("c_latency_ms").Record(1.0);
  int64_t live = 17;
  registry.RegisterCallbackGauge("d_live", "reads on demand",
                                 [&live] { return live; });
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP b_total a counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE b_total counter\nb_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE a_gauge gauge\na_gauge -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE c_latency_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("c_latency_ms_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("c_latency_ms_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("d_live 17\n"), std::string::npos);
  // Name order: a_gauge < b_total < c_latency_ms < d_live.
  EXPECT_LT(text.find("a_gauge"), text.find("b_total"));
  EXPECT_LT(text.find("b_total"), text.find("c_latency_ms"));
  // Callback gauges read live state at render time.
  live = 99;
  EXPECT_NE(registry.RenderPrometheus().find("d_live 99\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  LatencyHistogram& histogram = registry.GetHistogram("h_ms");
  histogram.Record(0.01);
  histogram.Record(1.0);
  histogram.Record(100.0);
  const std::string text = registry.RenderPrometheus();
  // Walk the bucket lines in order; cumulative counts never decrease and
  // the +Inf bucket equals the total count.
  int64_t previous = 0;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("h_ms_bucket{le=\"", pos)) != std::string::npos) {
    const size_t value_at = text.find("} ", pos) + 2;
    const int64_t cumulative = std::stoll(text.substr(value_at));
    EXPECT_GE(cumulative, previous);
    previous = cumulative;
    ++buckets_seen;
    pos = value_at;
  }
  EXPECT_EQ(buckets_seen, LatencyHistogram::kNumBuckets);
  EXPECT_EQ(previous, 3);
}

TEST(MetricsRegistryTest, RenderJsonIsOneFlatObject) {
  MetricsRegistry registry;
  registry.GetCounter("served_total").Increment(7);
  registry.GetGauge("leases").Set(3);
  registry.GetHistogram("lat_ms").Record(2.0);
  registry.RegisterCallbackGauge("bytes", "", [] { return int64_t{4096}; });
  const std::string json = registry.RenderJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"served_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"leases\":3"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"lat_ms\":{\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentLookupsAndIncrementsAreSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("contended_total").Increment();
        registry.GetHistogram("contended_ms").Record(0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("contended_total").value(),
            kThreads * kPerThread);
  EXPECT_EQ(registry.GetHistogram("contended_ms").count(),
            kThreads * kPerThread);
}


TEST(MetricsRegistryTest, LabeledSeriesShareOneFamilyHeader) {
  MetricsRegistry registry;
  registry.RegisterCallbackGauge("shard_queries{shard=\"0\"}",
                                 "per-shard served", [] { return 4; });
  registry.RegisterCallbackGauge("shard_queries{shard=\"1\"}",
                                 "per-shard served", [] { return 6; });
  registry.GetCounter("shard_queries_other_total", "unrelated").Increment();
  const std::string prom = registry.RenderPrometheus();
  // Every labeled series renders with its label block...
  EXPECT_NE(prom.find("shard_queries{shard=\"0\"} 4"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("shard_queries{shard=\"1\"} 6"), std::string::npos);
  // ...but HELP/TYPE appear once per family, keyed by the bare base name.
  size_t type_count = 0;
  const std::string header = "# TYPE shard_queries gauge";
  for (size_t pos = prom.find(header); pos != std::string::npos;
       pos = prom.find(header, pos + 1)) {
    ++type_count;
  }
  EXPECT_EQ(type_count, 1u);
  size_t help_count = 0;
  const std::string help = "# HELP shard_queries per-shard served";
  for (size_t pos = prom.find(help); pos != std::string::npos;
       pos = prom.find(help, pos + 1)) {
    ++help_count;
  }
  EXPECT_EQ(help_count, 1u);
  // The lexically-adjacent unlabeled family keeps its own header.
  EXPECT_NE(prom.find("# TYPE shard_queries_other_total counter"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ExemplarRendersOnTheSampleBucket) {
  MetricsRegistry registry;
  LatencyHistogram& hist = registry.GetHistogram("serve_ms", "serve time");
  hist.RecordWithExemplar(2.5, 4242);
  hist.Record(2.5);  // exemplar-less sample on the same bucket keeps 4242
  const std::string prom = registry.RenderPrometheus();
  const size_t at = prom.find("trace_id=\"4242\"");
  ASSERT_NE(at, std::string::npos) << prom;
  // The exemplar rides a bucket line of this histogram, OpenMetrics style:
  // `serve_ms_bucket{le="..."} N # {trace_id="4242"} <value>`.
  const size_t line_start = prom.rfind('\n', at) + 1;
  EXPECT_EQ(prom.compare(line_start, 15, "serve_ms_bucket"), 0) << prom;
  EXPECT_NE(prom.find(" # {trace_id=\"4242\"} ", line_start),
            std::string::npos);
}

TEST(MetricsRegistryTest, ExemplarZeroIdMeansNone) {
  MetricsRegistry registry;
  registry.GetHistogram("quiet_ms").RecordWithExemplar(1.0, 0);
  EXPECT_EQ(registry.RenderPrometheus().find("trace_id"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentShardLabeledGaugeRegistration) {
  // The sharded engine registers per-shard labeled gauges while serving
  // threads render /metrics: registration, lookup, mutation and render must
  // be free of data races (CI re-runs this suite under TSan).
  MetricsRegistry registry;
  constexpr int kShards = 8;
  constexpr int kRounds = 200;
  std::atomic<int> registrants_done{0};
  std::thread renderer([&] {
    // A render holds the registry mutex throughout, so back-to-back renders
    // can starve the registrants (badly so under TSan on a loaded host):
    // yield between renders, and stop once every registrant has finished.
    while (registrants_done.load() < kShards) {
      // May render empty before the first registration lands; the point is
      // that rendering concurrently with registration is race-free.
      (void)registry.RenderPrometheus();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.emplace_back([&registry, &registrants_done, s] {
      const std::string name =
          "shard_inflight{shard=\"" + std::to_string(s) + "\"}";
      for (int i = 0; i < kRounds; ++i) {
        registry.GetGauge(name, "in-flight per shard").Add(1);
        registry
            .GetHistogram("shard_serve_ms{shard=\"" + std::to_string(s) +
                          "\"}")
            .RecordWithExemplar(0.5 * s + 0.1, 100 + s);
      }
      registrants_done.fetch_add(1);
    });
  }
  for (std::thread& t : shards) t.join();
  renderer.join();
  const std::string prom = registry.RenderPrometheus();
  for (int s = 0; s < kShards; ++s) {
    EXPECT_NE(prom.find("shard_inflight{shard=\"" + std::to_string(s) +
                        "\"} " + std::to_string(kRounds)),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("shard_serve_ms_count{shard=\"" + std::to_string(s) +
                        "\"} " + std::to_string(kRounds)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace crowdrtse::util::metrics
