#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace crowdrtse::perfbench {
namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "serving_bench: %s\nusage: serving_bench --workload NAME "
               "--seed N --seconds S --trace 0|1\n",
               problem.c_str());
  std::exit(2);
}

/// JSON number with all its digits; non-finite values are a bug upstream.
std::string JsonNumber(double value) {
  Require(std::isfinite(value), "metric value is not finite");
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

}  // namespace

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      flags.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(flags.seconds > 0.0)) {
        Usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      flags.trace = value == "1";
    } else {
      Usage("unknown flag " + arg);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return flags;
}

void Require(bool ok, const std::string& what) {
  if (ok) return;
  std::fflush(stdout);
  std::fprintf(stderr, "serving_bench: CHECK FAILED: %s\n", what.c_str());
  std::fflush(stderr);
  // Serving threads may still be parked inside the library; _Exit ends the
  // process without running destructors that would wait on them.
  std::_Exit(1);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::TailPercentileFor(size_t count) {
  for (double p : {95.0, 90.0, 75.0}) {
    if (static_cast<double>(count) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

size_t Samples::TailPartsFor(size_t count) {
  return std::clamp<size_t>(count / kMinTailPartSamples, 1, kMaxTailParts);
}

double Samples::MedianPartTail(size_t parts) const {
  std::vector<double> tails;
  for (size_t i = 0; i < parts; ++i) {
    Samples part;
    part.values_.assign(values_.begin() + i * values_.size() / parts,
                        values_.begin() + (i + 1) * values_.size() / parts);
    tails.push_back(part.Percentile(TailPercentileFor(part.size())));
  }
  return Median(tails);
}

void Report::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const auto& [known, unit] : *list) {
      if (known == name) {
        metrics_.push_back({name, value, unit});
        return;
      }
    }
  }
  Require(false, "unknown metric " + name);
}

void Report::Emit() const {
  std::printf("outcomes: attempted %lld, served %lld, rejected %lld, "
              "failed %lld\n",
              static_cast<long long>(attempted),
              static_cast<long long>(served),
              static_cast<long long>(rejected),
              static_cast<long long>(failed));
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed + rejected) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " +
            JsonNumber(metrics_[i].value) + ", \"unit\": \"" +
            metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void LoadShape::CheckFitsMachine() const {
  const int cores = NumCores();
  if (generator_threads > cores || connections > cores ||
      client_threads > cores) {
    std::fprintf(stderr,
                 "serving_bench: refusing to run: %d generator threads, %d "
                 "client threads, %d connections on %d cores\n",
                 generator_threads, client_threads, connections, cores);
    std::exit(2);
  }
}

void LoadShape::Print() const {
  std::printf(
      "load_shape {\"nproc\": %d, \"generator_threads\": %d, "
      "\"client_threads\": %d, \"connections\": %d, \"server_threads\": %d, "
      "\"fanout_threads\": %d, \"gamma_threads\": %d, \"offered_qps\": %.1f, "
      "\"generator_late_ms_p99\": %.3f}\n",
      NumCores(), generator_threads, client_threads, connections,
      server_threads, fanout_threads, gamma_threads, offered_qps,
      generator_late_ms_p99);
}

int NumCores() {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<int>(online)
                    : static_cast<int>(std::thread::hardware_concurrency());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Require(false, "VmHWM missing from /proc/self/status");
  return 0.0;
}

double SecondsSinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double Median(std::vector<double> values) {
  Require(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Mape::Add(double estimate, double truth) {
  Require(std::isfinite(estimate), "non-finite speed estimate");
  Require(truth > 0.0, "non-positive ground-truth speed");
  sum_ += std::fabs(estimate - truth) / truth;
  ++count_;
}

double Mape::Percent() const {
  return count_ == 0 ? 0.0 : 100.0 * sum_ / static_cast<double>(count_);
}

void Mape::Merge(const Mape& other) {
  sum_ += other.sum_;
  count_ += other.count_;
}

void CheckAnswer(const server::QueryRequest& request,
                 const std::vector<double>& speeds,
                 const traffic::DayMatrix& truth, Mape& mape) {
  Require(speeds.size() == request.queried.size(),
          "answer sized to its request");
  for (size_t i = 0; i < speeds.size(); ++i) {
    mape.Add(speeds[i], truth.At(request.slot, request.queried[i]));
  }
}

SetUpTimes RepeatSetUp(const Flags& flags,
                       const std::function<void()>& tear_down,
                       const std::function<void()>& set_up) {
  SetUpTimes times;
  times.before_s = SecondsSinceStart();
  const int repeats = flags.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) tear_down();
    const double start = SecondsSinceStart();
    set_up();
    times.repeats_s.push_back(SecondsSinceStart() - start);
  }
  times.done_s = SecondsSinceStart();
  std::printf("set-up: %.3f s before, per repeat:", times.before_s);
  for (double s : times.repeats_s) std::printf(" %.3f", s);
  std::printf("\n");
  return times;
}

void SetEndToEnd(Report& report, const SetUpTimes& setup,
                 const WindowResult& window, int64_t full_service,
                 int64_t received) {
  Require(window.served > 0 && window.wall_s > 0.0,
          "the window served queries");
  Require(window.start_s >= setup.done_s, "the window opens after set-up");
  const size_t samples = window.latency_ms.size();
  const size_t parts = Samples::TailPartsFor(samples);
  std::printf("window: %.3f s, %zu latency samples, tail = median of %zu "
              "consecutive parts' p%g (%zu samples each), %.3f s from "
              "set-up to the first timed query\n",
              window.wall_s, samples, parts,
              Samples::TailPercentileFor(samples / parts), samples / parts,
              window.start_s - setup.done_s);
  std::printf("whole-window latency (not reported): p95 %.3f ms, "
              "p99 %.3f ms\n",
              window.latency_ms.Percentile(95.0),
              window.latency_ms.Percentile(99.0));

  report.Set("setup_s", setup.before_s + Median(setup.repeats_s) +
                            (window.start_s - setup.done_s));
  report.Set("answered_qps",
             static_cast<double>(window.served) / window.wall_s);
  report.Set("latency_p50_ms", window.latency_ms.Percentile(50.0));
  report.Set("latency_tail_ms", window.latency_ms.MedianPartTail(parts));
  report.Set("mape_pct", window.mape.Percent());
  report.Set("paid_per_query", static_cast<double>(window.paid) /
                                   static_cast<double>(window.served));
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("full_service_share", static_cast<double>(full_service) /
                                       static_cast<double>(received));
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"answered_qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"mape_pct", "%"},
      {"paid_per_query", "units"},
      {"peak_rss_mb", "MiB"},
      {"full_service_share", "share"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"registry.covered_ms", "ms"},
      {"registry.covered_roads", "count"},
      {"registry.workers_scanned", "count"},
      {"registry.advance_ms", "ms"},
      {"crowd.assign_ms", "ms"},
      {"crowd.probe_ms", "ms"},
      {"crowd.dispatch_ms", "ms"},
      {"crowd.retries_per_query", "count"},
      {"crowd.degraded_per_query", "count"},
      {"ocs.select_ms", "ms"},
      {"ocs.candidates", "count"},
      {"ocs.selected", "count"},
      {"gsp.propagate_ms", "ms"},
      {"gsp.sweeps", "count"},
      {"gsp.roads_reached", "count"},
      {"gamma.warm_ms_per_slot", "ms"},
      {"gamma.lookup_ms", "ms"},
      {"gamma.misses_in_window", "count"},
      {"gamma.resident_mb", "MiB"},
      {"ledger.settle_ms", "ms"},
      {"router.cross_shard_share", "share"},
      {"router.groups_per_query", "count"},
      {"router.serve_single_ms", "ms"},
      {"router.serve_cross_ms", "ms"},
      {"partition.build_s", "s"},
      {"partition.edge_cut", "count"},
      {"frontend.overhead_ms", "ms"},
      {"frontend.peak_queue_depth", "count"},
      {"frontend.coalesce_join_share", "share"},
      {"loadgen.late_ms_p99", "ms"},
      {"engine.serve_ms", "ms"},
      {"engine.unattributed_share", "share"},
  };
  return kMetrics;
}

}  // namespace crowdrtse::perfbench
