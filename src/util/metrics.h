#ifndef CROWDRTSE_UTIL_METRICS_H_
#define CROWDRTSE_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>

namespace crowdrtse::util::metrics {

/// Monotonically increasing event counter. Increment is wait-free; reads
/// are approximate under concurrent writers (a snapshot of a moment, which
/// is all a service dashboard needs).
class Counter {
 public:
  Counter() = default;

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t amount = 1) {
    value_.fetch_add(amount, std::memory_order_relaxed);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A value that can go up and down (pool leases in flight, resident cache
/// bytes). Wait-free like Counter.
class Gauge {
 public:
  Gauge() = default;

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time summary of a LatencyHistogram. Percentiles are estimated
/// by linear interpolation inside the owning bucket, so they are exact to
/// within one bucket width (buckets grow geometrically, ~26% relative
/// error bound — the standard fixed-bucket tradeoff).
struct LatencySnapshot {
  int64_t count = 0;
  double sum_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;

  /// Renders "n=12 mean=1.23ms p50=1.10ms p95=2.50ms p99=3.00ms max=3.10ms".
  std::string ToString() const;
  /// JSON object {"count":…,"sum_ms":…,…} — the registry's histogram
  /// rendering in RenderJson().
  std::string ToJson() const;
};

/// Fixed-bucket latency histogram with wait-free recording. Bucket upper
/// bounds grow geometrically from 1 microsecond to ~100 seconds, which
/// covers everything the serving path can produce; slower samples land in
/// a final overflow bucket. Record() is a single atomic increment plus two
/// relaxed accumulations, so it is safe (and cheap) to call from every
/// serving thread concurrently; Snapshot() may run concurrently with
/// writers and observes some consistent-enough recent state.
class LatencyHistogram {
 public:
  static constexpr int kNumBuckets = 48;

  LatencyHistogram() = default;

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// One stored exemplar per bucket: the id of a query/trace whose sample
  /// landed there, and that sample's value. id 0 means none recorded.
  struct Exemplar {
    int64_t id = 0;
    double value_ms = 0.0;
  };

  /// Records one sample, in milliseconds. Negative and NaN samples clamp
  /// to zero; +infinity lands in the overflow bucket.
  void Record(double millis) { RecordWithExemplar(millis, 0); }

  /// Records one sample and (when `exemplar_id` is nonzero) attaches it as
  /// the sample's bucket exemplar — last writer wins, so each bucket links
  /// to a recent representative query. How the stage profiler makes a p99
  /// bucket point at a trace id worth opening in /trace/<id>.
  void RecordWithExemplar(double millis, int64_t exemplar_id);

  /// The current exemplar of bucket `i` ({0, 0} when none). Under
  /// concurrent writers the id and value may come from two different
  /// samples of the bucket; both are real samples, which is all an
  /// exemplar promises.
  Exemplar BucketExemplar(int i) const;

  LatencySnapshot Snapshot() const;

  int64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Upper bound (ms) of bucket `i`; the last bucket is unbounded.
  static double BucketUpperBound(int i);

  /// Per-bucket counts (approximate under concurrent writers) — what the
  /// Prometheus exposition renders as the cumulative `le` series.
  std::array<int64_t, kNumBuckets> BucketCounts() const;

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  // Sum and max are tracked in integer microseconds so the accumulation
  // stays a portable fetch_add / CAS on int64.
  std::atomic<int64_t> sum_micros_{0};
  std::atomic<int64_t> max_micros_{0};
  // Per-bucket exemplar (id + sample micros), each an independent relaxed
  // atomic — racy pairing is acceptable by the Exemplar contract above.
  std::array<std::atomic<int64_t>, kNumBuckets> exemplar_id_{};
  std::array<std::atomic<int64_t>, kNumBuckets> exemplar_micros_{};
};

/// Central named registry of counters, gauges, and latency histograms —
/// the machine-readable face of the serving pipeline. Instruments are
/// created on first lookup and live as long as the registry; the returned
/// references stay valid and are safe to hit from any thread (lookups take
/// a mutex; keep the reference rather than re-looking-up on hot paths).
///
/// Exposition: RenderPrometheus() emits Prometheus text format (counters/
/// gauges as-is, histograms as cumulative `le` bucket series with _sum and
/// _count, in milliseconds); RenderJson() emits one flat JSON object. Both
/// walk the instruments in name order, so output is stable. A labeled
/// histogram name ('x{stage="a"}') renders as proper series — the label
/// set merges into each bucket line's label block (x_bucket{stage="a",
/// le="..."}) — and bucket lines carry OpenMetrics-style exemplar
/// suffixes (' # {trace_id="N"} <value>') when one was recorded.
class MetricsRegistry {
 public:
  /// A gauge whose value is read on demand at render time — how the
  /// registry surfaces state owned elsewhere (gamma-cache resident bytes,
  /// ledger outstanding reservations, pool leases in flight).
  using Callback = std::function<int64_t()>;

  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Instrument lookups: create-on-first-use, by unique name. Registering
  /// the same name as a different instrument kind is a programming error
  /// (CROWDRTSE_CHECK).
  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  LatencyHistogram& GetHistogram(const std::string& name,
                                 const std::string& help = "");
  /// Replaces any previous callback registered under `name`.
  void RegisterCallbackGauge(const std::string& name,
                             const std::string& help, Callback callback);

  /// Prometheus text exposition format.
  std::string RenderPrometheus() const;
  /// One flat JSON object: {"name": value, ..., "hist": {...}}.
  std::string RenderJson() const;

 private:
  struct Instrument {
    std::string help;
    std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                 std::unique_ptr<LatencyHistogram>, Callback>
        value;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace crowdrtse::util::metrics

#endif  // CROWDRTSE_UTIL_METRICS_H_
