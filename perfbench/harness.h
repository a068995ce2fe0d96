#ifndef CROWDRTSE_PERFBENCH_HARNESS_H_
#define CROWDRTSE_PERFBENCH_HARNESS_H_

// Shared plumbing of the serving benchmark: flags, sample statistics, the
// result line, correctness checks that end the run, and the process
// measurements (peak RSS, nproc) every workload reports.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "server/engine.h"
#include "traffic/history_store.h"

namespace crowdrtse::perfbench {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`; exits with code
/// 2 on anything else.
Flags ParseFlags(int argc, char** argv);

/// Ends the run with exit code 1 (no result line) when `ok` is false. Used
/// for every correctness check: a wrong answer is never reported as a
/// measurement.
void Require(bool ok, const std::string& what);

/// Raw samples with exact order statistics (no histogram bucketing, so a
/// percentile reads the same whatever the bucket layout).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Mean() const;
  /// Linear-interpolated percentile, p in [0, 100]. 0 when empty.
  double Percentile(double p) const;
  /// The highest percentile of the fixed ladder {95, 90, 75, 50} with at
  /// least 10 of `count` samples above it. The ladder stops at p95: on a
  /// shared virtual machine the slowest 1 % of millisecond-scale queries
  /// time the hypervisor's steal, not the program (README.md).
  static double TailPercentileFor(size_t count);
  /// The parts the reported tail cuts the samples into: as many as leave
  /// at least kMinTailPartSamples in each, at most kMaxTailParts, at
  /// least 1.
  static size_t TailPartsFor(size_t count);
  /// The reported tail: the samples, in the order they were added, cut
  /// into `parts` consecutive parts of (nearly) equal count; each part's
  /// tail is its TailPercentileFor percentile; returns the median of the
  /// parts' tails. A burst of other tenants' load that covers fewer than
  /// half the parts does not move it (README.md).
  double MedianPartTail(size_t parts) const;

 private:
  std::vector<double> values_;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: outcome counts plus the metrics of the mode it ran
/// in (end-to-end with tracing off, per-layer with tracing on).
class Report {
 public:
  /// Records metric `name` (one of EndToEndMetrics / PerLayerMetrics,
  /// whose unit it takes).
  void Set(const std::string& name, double value);
  int64_t attempted = 0;
  int64_t served = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
  /// Prints a human-readable table, then the JSON result as the last line.
  void Emit() const;
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Load shape of the run, printed as one `load_shape {...}` line so a
/// reader can tell what machine and concurrency produced the numbers.
struct LoadShape {
  int generator_threads = 0;
  int connections = 0;
  int client_threads = 0;
  int server_threads = 0;
  int fanout_threads = 0;
  int gamma_threads = 0;
  double offered_qps = 0.0;  // 0 for closed-loop workloads
  double generator_late_ms_p99 = 0.0;
  /// Refuses to run (exit 2) when generator threads, client threads or
  /// connections exceed the machine's cores.
  void CheckFitsMachine() const;
  void Print() const;
};

int NumCores();
/// VmHWM of this process, in MiB.
double PeakRssMb();
/// Seconds since process start (steady clock, first call anchors at
/// static-initialisation time).
double SecondsSinceStart();

/// Median of a handful of values (set-up repetitions).
double Median(std::vector<double> values);

/// Mean absolute percentage error accumulator over (estimate, truth)
/// pairs.
class Mape {
 public:
  void Add(double estimate, double truth);
  double Percent() const;
  void Merge(const Mape& other);

 private:
  double sum_ = 0.0;
  int64_t count_ = 0;
};

/// What a timed window measured, whatever drove it.
struct WindowResult {
  double start_s = 0.0;  // SecondsSinceStart() when the window opened
  int64_t attempts = 0;
  int64_t served = 0;
  int64_t paid = 0;  // sum of payments of the serves that answered
  double wall_s = 0.0;
  Samples latency_ms;  // one sample per answered query
  Mape mape;
};

/// The set-up phase of a run: the time from process start to the first
/// set-up, each set-up's own seconds, and when the last one ended. The
/// previous stack's teardown runs between set-ups, outside every repeat.
struct SetUpTimes {
  double before_s = 0.0;
  std::vector<double> repeats_s;
  double done_s = 0.0;  // SecondsSinceStart() after the last set-up
};

/// Runs `set_up` kSetupRepeats times (once when tracing: setup_s is not
/// reported then), calling `tear_down` untimed before each repeat after
/// the first.
SetUpTimes RepeatSetUp(const Flags& flags,
                       const std::function<void()>& tear_down,
                       const std::function<void()>& set_up);

/// Sets every end-to-end metric from a window, over all of its samples;
/// latency_tail_ms is the median of the tails of the window's
/// consecutive parts (Samples::MedianPartTail), which the workloads fill in
/// time order: by completion on the socket, wave by wave in the closed
/// loops. setup_s is process start to the first timed query with the
/// repeated set-up counted once, at its median: before_s + median(repeats_s) +
/// (window.start_s - done_s). `full_service` counts the queries answered
/// by the full pipeline, `received` every query sent.
void SetEndToEnd(Report& report, const SetUpTimes& setup,
                 const WindowResult& window, int64_t full_service,
                 int64_t received);

/// Requires one finite speed per queried road and adds each to `mape`
/// against the held-out truth.
void CheckAnswer(const server::QueryRequest& request,
                 const std::vector<double>& speeds,
                 const traffic::DayMatrix& truth, Mape& mape);

/// The metric names (and units) every workload reports with tracing off
/// and on; main checks a run's report against them.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Number of set-ups a timed run performs; setup_s counts their median.
constexpr int kSetupRepeats = 3;
/// Bounds on how latency_tail_ms cuts a window (Samples::TailPartsFor):
/// 100 samples keep a part's tail at p90 or above.
constexpr size_t kMinTailPartSamples = 100;
constexpr size_t kMaxTailParts = 8;

}  // namespace crowdrtse::perfbench

#endif  // CROWDRTSE_PERFBENCH_HARNESS_H_
