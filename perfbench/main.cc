// serving_bench: runs one workload for --seconds and prints its metrics,
// the JSON result last. See README.md for the workloads, the metrics and
// how to read them.

#include <cstdio>
#include <string>

#include "harness.h"
#include "util/logging.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace crowdrtse::perfbench;
  const Flags flags = ParseFlags(argc, argv);
  // The coalescer logs every fan-out at Info; keep stderr for problems.
  crowdrtse::util::SetLogLevel(crowdrtse::util::LogLevel::kWarning);
  std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
              flags.workload.c_str(),
              static_cast<unsigned long long>(flags.seed), flags.seconds,
              flags.trace ? 1 : 0);
  Report report;
  if (flags.workload == "metro_local") {
    report = RunMetroLocal(flags);
  } else if (flags.workload == "city607_storm") {
    report = RunCity607Storm(flags);
  } else if (flags.workload == "metro_sharded_socket") {
    report = RunMetroShardedSocket(flags);
  } else {
    std::fprintf(stderr, "serving_bench: unknown workload %s\n",
                 flags.workload.c_str());
    return 2;
  }
  // A traced run prints every per-layer metric; layers off this workload's
  // path read 0 and are listed, so a missing measurement is never silent.
  const auto& expected = flags.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string off_path;
  for (const auto& [name, unit] : expected) {
    bool present = false;
    for (const Metric& m : report.metrics()) present |= m.name == name;
    if (present) continue;
    Require(flags.trace, "end-to-end metric " + name + " not measured");
    report.Set(name, 0.0);
    off_path += " " + name;
  }
  if (!off_path.empty()) {
    std::printf("not on this workload's path (reported as 0):%s\n",
                off_path.c_str());
  }
  Require(report.metrics().size() == expected.size(),
          "report holds exactly the metrics of its mode");
  report.Emit();
  return 0;
}
