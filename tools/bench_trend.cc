// Performance-trend gate (CI): compares a fresh reduced-sweep bench run
// against the committed baseline JSON and fails on regression.
//
// Raw ns_per_op and QPS numbers are machine-speed dependent — a CI runner
// is not the machine the baselines were recorded on — so the gate compares
// only the RATIO metrics the bench artifacts carry (speedups and scaling
// factors, which divide the machine speed out) plus hard invariants that
// must hold on any machine:
//   microkernels  gsp_speedup_reference_to_auto        (band, default 50%)
//                 gamma_refresh_speedup_full_to_incremental (band, 50%)
//                 every baseline kernel still present in the fresh run
//   scale         qps_ratio_1_to_max                   (band, default 50%)
//                 failed == 0 at every sweep point; served > 0
//                 work per query, largest map / smallest map, at every
//                 shard count: <= 1.5 (absolute; the fresh run only)
// A band of t means the fresh ratio must stay >= baseline * (1 - t); the
// upper side is unchecked — getting faster is not a regression. The work
// gate needs no band: work counts are exact (bench_scale's "work" rows),
// so it cannot trip on host noise. It sees only the counted steps (the
// candidate ball, or the whole map when the serve path lists every covered
// road; the index entries on the selected roads; the candidates handed to
// OCS; GSP's relax-order updates): it fails when one of those grows with
// the city. A map-sized pass that no counter sees, such as a dense fill
// inside a helper, leaves the counts as they are; only the QPS band and
// the serving benchmark's latency show it.
//
// Usage: bench_trend --baseline=PATH --fresh=PATH --kind=micro|scale
//                    [--tolerance=0.5]
// Exits nonzero after printing every violated band, so the perf-trend CI
// job reports the full diagnosis in one run.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "net/json.h"
#include "util/status.h"

namespace crowdrtse::tools {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("FAIL: %s\n", what.c_str());
  ++g_failures;
}

util::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::InvalidArgument("cannot read " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One banded ratio comparison: fresh must reach baseline * (1 - tol).
void CheckRatio(const net::json::Value& baseline, const net::json::Value& fresh,
                const std::string& key, double tolerance) {
  const net::json::Value* base = baseline.Find(key);
  const net::json::Value* now = fresh.Find(key);
  Check(base != nullptr, "baseline lacks metric " + key);
  Check(now != nullptr, "fresh run lacks metric " + key);
  if (base == nullptr || now == nullptr) return;
  const double floor = base->AsDouble() * (1.0 - tolerance);
  const bool ok = now->AsDouble() >= floor;
  std::printf("%-44s baseline %8.2f  fresh %8.2f  floor %8.2f  %s\n",
              key.c_str(), base->AsDouble(), now->AsDouble(), floor,
              ok ? "ok" : "REGRESSED");
  Check(ok, key + " regressed below the tolerance band");
}

/// Every kernel the baseline measured must still exist in the fresh run —
/// a dropped kernel would silently shrink coverage, not show as a ratio.
void CheckMicrokernels(const net::json::Value& baseline,
                       const net::json::Value& fresh, double tolerance) {
  CheckRatio(baseline, fresh, "gsp_speedup_reference_to_auto", tolerance);
  CheckRatio(baseline, fresh, "gamma_refresh_speedup_full_to_incremental",
             tolerance);

  const net::json::Value* base_kernels = baseline.Find("kernels");
  const net::json::Value* fresh_kernels = fresh.Find("kernels");
  Check(base_kernels != nullptr, "baseline lacks a kernels array");
  Check(fresh_kernels != nullptr, "fresh run lacks a kernels array");
  if (base_kernels == nullptr || fresh_kernels == nullptr) return;
  std::set<std::string> seen;
  for (const auto& k : fresh_kernels->AsArray()) {
    const net::json::Value* name = k.Find("kernel");
    const net::json::Value* ns = k.Find("ns_per_op");
    if (name != nullptr) seen.insert(name->AsString());
    Check(ns != nullptr && ns->AsDouble() > 0.0,
          "fresh kernel has a non-positive ns_per_op");
  }
  for (const auto& k : base_kernels->AsArray()) {
    const net::json::Value* name = k.Find("kernel");
    if (name == nullptr) continue;
    Check(seen.count(name->AsString()) == 1,
          "kernel '" + name->AsString() + "' vanished from the fresh run");
  }
}

/// Per-query work may grow at most this much from the smallest to the
/// largest map bench_scale measured (8k -> 60k roads: 7.5x the city).
constexpr double kMaxWorkGrowth = 1.5;

/// For every shard count in the fresh run's "work" rows: work per query on
/// the largest map / on the smallest map <= kMaxWorkGrowth.
void CheckWorkGrowth(const net::json::Value& fresh) {
  const net::json::Value* work = fresh.Find("work");
  Check(work != nullptr, "fresh run lacks a work array");
  if (work == nullptr) return;
  struct Extremes {
    double min_roads = 0.0, min_work = 0.0, max_roads = 0.0, max_work = 0.0;
  };
  std::map<int64_t, Extremes> by_shards;
  for (const auto& row : work->AsArray()) {
    const net::json::Value* shards = row.Find("shards");
    const net::json::Value* roads = row.Find("roads");
    const net::json::Value* per_query = row.Find("work_per_query");
    Check(shards != nullptr && roads != nullptr && per_query != nullptr,
          "work row lacks shards, roads or work_per_query");
    if (shards == nullptr || roads == nullptr || per_query == nullptr) {
      continue;
    }
    const int64_t k = static_cast<int64_t>(shards->AsDouble());
    const auto [it, fresh_k] = by_shards.try_emplace(k);
    Extremes& e = it->second;
    if (fresh_k || roads->AsDouble() < e.min_roads) {
      e.min_roads = roads->AsDouble();
      e.min_work = per_query->AsDouble();
    }
    if (fresh_k || roads->AsDouble() > e.max_roads) {
      e.max_roads = roads->AsDouble();
      e.max_work = per_query->AsDouble();
    }
  }
  Check(!by_shards.empty(), "fresh work array is empty");
  for (const auto& [k, e] : by_shards) {
    const std::string at = "shards=" + std::to_string(k);
    Check(e.max_roads > e.min_roads,
          "work rows at " + at + " cover only one map size");
    Check(e.min_work > 0.0, "work rows at " + at + " report no work");
    if (!(e.max_roads > e.min_roads) || !(e.min_work > 0.0)) continue;
    const double growth = e.max_work / e.min_work;
    const bool ok = growth <= kMaxWorkGrowth;
    std::printf("work per query %s: %.0f roads %8.1f  %.0f roads %8.1f  "
                "growth %.3f (max %.2f)  %s\n",
                at.c_str(), e.min_roads, e.min_work, e.max_roads, e.max_work,
                growth, kMaxWorkGrowth, ok ? "ok" : "GREW");
    Check(ok, "work per query at " + at + " grew with the city");
  }
}

void CheckScale(const net::json::Value& baseline, const net::json::Value& fresh,
                double tolerance) {
  CheckRatio(baseline, fresh, "qps_ratio_1_to_max", tolerance);
  CheckWorkGrowth(fresh);

  const net::json::Value* sweep = fresh.Find("sweep");
  Check(sweep != nullptr, "fresh run lacks a sweep array");
  if (sweep == nullptr) return;
  Check(!sweep->AsArray().empty(), "fresh sweep is empty");
  for (const auto& point : sweep->AsArray()) {
    const net::json::Value* shards = point.Find("shards");
    const net::json::Value* failed = point.Find("failed");
    const net::json::Value* served = point.Find("served");
    const std::string at =
        shards != nullptr
            ? std::to_string(static_cast<int64_t>(shards->AsDouble()))
            : "?";
    Check(failed != nullptr && failed->AsDouble() == 0.0,
          "sweep point shards=" + at + " has failed queries");
    Check(served != nullptr && served->AsDouble() > 0.0,
          "sweep point shards=" + at + " served nothing");
  }
}

int Run(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  std::string kind;
  double tolerance = 0.5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--fresh=", 0) == 0) {
      fresh_path = arg.substr(8);
    } else if (arg.rfind("--kind=", 0) == 0) {
      kind = arg.substr(7);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::strtod(arg.c_str() + 12, nullptr);
    } else {
      std::printf("unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (baseline_path.empty() || fresh_path.empty() ||
      (kind != "micro" && kind != "scale")) {
    std::printf(
        "usage: bench_trend --baseline=PATH --fresh=PATH"
        " --kind=micro|scale [--tolerance=0.5]\n");
    return 2;
  }
  if (tolerance <= 0.0 || tolerance >= 1.0) {
    std::printf("tolerance must be in (0, 1), got %f\n", tolerance);
    return 2;
  }

  const auto baseline_text = ReadFile(baseline_path);
  const auto fresh_text = ReadFile(fresh_path);
  Check(baseline_text.ok(), "baseline: " + baseline_text.status().message());
  Check(fresh_text.ok(), "fresh: " + fresh_text.status().message());
  if (g_failures > 0) return 1;

  const auto baseline = net::json::Parse(*baseline_text);
  const auto fresh = net::json::Parse(*fresh_text);
  Check(baseline.ok(), "baseline is not valid JSON: " + baseline_path);
  Check(fresh.ok(), "fresh run is not valid JSON: " + fresh_path);
  if (g_failures > 0) return 1;

  std::printf("bench trend %s: %s vs %s (tolerance %.0f%%)\n", kind.c_str(),
              fresh_path.c_str(), baseline_path.c_str(), tolerance * 100.0);
  if (kind == "micro") {
    CheckMicrokernels(*baseline, *fresh, tolerance);
  } else {
    CheckScale(*baseline, *fresh, tolerance);
  }

  if (g_failures > 0) {
    std::printf("bench trend FAILED: %d violations\n", g_failures);
    return 1;
  }
  std::printf("bench trend OK\n");
  return 0;
}

}  // namespace
}  // namespace crowdrtse::tools

int main(int argc, char** argv) {
  return crowdrtse::tools::Run(argc, argv);
}
