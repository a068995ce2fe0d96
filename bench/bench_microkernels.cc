// Micro-benchmarks of the hot kernels, A/B-ing the mechanical-sympathy
// rewrites against their golden baselines on one metro-scale network:
//
//   - GSP Eq. (18) sweeps: the reference accessor kernel vs the four-lane
//     unrolled production kernel (both compute the same fixpoint; see
//     gsp::GspKernel).
//   - Gamma_R maintenance: full sparse-closure rebuild vs the incremental
//     RefreshedRows patch after a few edge correlations change.
//   - Graph primitives: the epoch-stamped StampedBfs (a full unbounded
//     walk from the sampled roads) and the flat-weight DijkstraInto.
//   - OCS: OcsProblem::Create (which gathers the query's Gamma_R block)
//     plus LazyHybridGreedy, on the bench's sparse Gamma_R for a fixed
//     20-road query over its C-hop ball, budget 30 and cost 2 per road.
//
// Every timed kernel lands in the JSON artifact as {kernel, ns_per_op,
// roads}; the artifact also records the two headline speedups (GSP
// reference -> unrolled, under the historical key
// gsp_speedup_reference_to_auto, and Gamma_R full -> incremental) which
// --strict (default) gates at >= 3x.
//
// Flags: --roads=N --reps=R --sweeps=S --hop_radius=C --json_out=PATH
//        --quick --no-strict
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crowd/cost_model.h"
#include "graph/bfs.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gsp/propagation.h"
#include "ocs/greedy_selectors.h"
#include "rtf/correlation_table.h"
#include "rtf/rtf_model.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crowdrtse::bench {
namespace {

struct Flags {
  int roads = 60000;
  int reps = 5;
  int sweeps = 8;       // fixed sweep count (epsilon = 0) for fair A/B
  int hop_radius = 3;   // sparse Gamma_R closure radius
  std::string json_out = "BENCH_microkernels.json";
  bool strict = true;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_flag = [&arg](const char* name, int* value) {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *value = std::atoi(arg.c_str() + prefix.size());
        return true;
      }
      return false;
    };
    if (int_flag("--roads", &flags.roads)) continue;
    if (int_flag("--reps", &flags.reps)) continue;
    if (int_flag("--sweeps", &flags.sweeps)) continue;
    if (int_flag("--hop_radius", &flags.hop_radius)) continue;
    if (arg.rfind("--json_out=", 0) == 0) {
      flags.json_out = arg.substr(11);
      continue;
    }
    if (arg == "--quick") {
      // Reduced sweep for the CI perf-smoke job: small enough to finish in
      // seconds, same code paths. Quick numbers are not gated.
      flags.roads = 8000;
      flags.reps = 2;
      flags.sweeps = 4;
      flags.strict = false;
      continue;
    }
    if (arg == "--no-strict") {
      flags.strict = false;
      continue;
    }
    std::printf("unknown flag: %s\n", arg.c_str());
    std::exit(2);
  }
  return flags;
}

/// Deterministic single-slot RTF over the metro grid: a west-east mean
/// gradient, mildly varying sigmas and edge correlations in [0.6, 0.95].
/// No training — the benchmarks measure kernels, not estimation.
rtf::RtfModel SyntheticModel(
    const graph::Graph& graph,
    const std::vector<std::pair<double, double>>& positions) {
  rtf::RtfModel model(graph, /*num_slots=*/1);
  for (graph::RoadId r = 0; r < graph.num_roads(); ++r) {
    const double x = positions[static_cast<size_t>(r)].first;
    model.SetMu(0, r, 30.0 + 40.0 * x);
    model.SetSigma(0, r, 4.0 + 2.0 * ((r % 7) / 7.0));
  }
  for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
    model.SetRho(0, e, 0.6 + 0.35 * ((e % 11) / 11.0));
  }
  return model;
}

struct KernelResult {
  std::string kernel;
  double ns_per_op = 0.0;
  int roads = 0;
};

double g_sink = 0.0;  // defeats dead-code elimination of benched results

template <typename Fn>
double MeasureNsPerOp(int reps, Fn&& fn) {
  fn();  // warm up caches and the per-thread arenas
  util::Timer timer;
  for (int i = 0; i < reps; ++i) fn();
  return timer.ElapsedSeconds() * 1e9 / std::max(1, reps);
}

/// Median of max(3, reps) individually timed calls after one warm-up (the
/// upper median for an even count), for kernels slow enough that a
/// handful of reps is all a run can afford: one slow rep on a shared host
/// cannot move it.
template <typename Fn>
double MedianNsPerOp(int reps, Fn&& fn) {
  fn();
  std::vector<double> ns(static_cast<size_t>(std::max(3, reps)));
  for (double& sample : ns) {
    util::Timer timer;
    fn();
    sample = timer.ElapsedSeconds() * 1e9;
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}

const char* KernelName(gsp::GspKernel kernel) {
  switch (kernel) {
    case gsp::GspKernel::kReference: return "reference";
    case gsp::GspKernel::kUnrolled: return "unrolled";
  }
  return "?";
}

void DumpArtifact(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::printf("WARNING: could not write %s\n", path.c_str());
    return;
  }
  std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

void Run(const Flags& flags) {
  std::printf("=== bench_microkernels: %d roads, %d reps, %d sweeps, "
              "C=%d ===\n",
              flags.roads, flags.reps, flags.sweeps, flags.hop_radius);

  graph::MetroNetworkOptions metro;
  metro.num_roads = flags.roads;
  std::vector<std::pair<double, double>> positions;
  util::Timer gen_timer;
  const auto graph = graph::MetroNetwork(metro, &positions);
  CROWDRTSE_CHECK(graph.ok());
  const int n = graph->num_roads();
  const rtf::RtfModel model = SyntheticModel(*graph, positions);
  std::printf("metro network: %d roads, %d edges (%.2fs)\n", n,
              graph->num_edges(), gen_timer.ElapsedSeconds());

  // Sparse probes, one per 64 roads, pinned near the periodic mean.
  std::vector<graph::RoadId> sampled;
  std::vector<double> probed;
  for (graph::RoadId r = 0; r < n; r += 64) {
    sampled.push_back(r);
    probed.push_back(model.Mu(0, r) + 3.0 * (((r / 64) % 5) - 2));
  }

  std::vector<KernelResult> results;
  const auto record = [&results, n](std::string name, double ns) {
    std::printf("  %-28s %14.0f ns/op\n", name.c_str(), ns);
    results.push_back({std::move(name), ns, n});
  };

  // --- GSP sweep kernels. A vanishing epsilon pins both kernels to
  // exactly `sweeps` full sweeps, so ns/op compares identical work.
  double gsp_reference_ns = 0.0;
  double gsp_unrolled_ns = 0.0;
  for (const gsp::GspKernel kernel :
       {gsp::GspKernel::kReference, gsp::GspKernel::kUnrolled}) {
    gsp::GspOptions options;
    options.epsilon = 1e-300;  // never converges early: fixed sweep count
    options.max_sweeps = flags.sweeps;
    options.kernel = kernel;
    const gsp::SpeedPropagator propagator(model, options);
    const double ns = MeasureNsPerOp(flags.reps, [&] {
      const auto result = propagator.Propagate(0, sampled, probed);
      CROWDRTSE_CHECK(result.ok());
      g_sink += result->speeds[1];
    });
    record(std::string("gsp_propagate_") + KernelName(kernel), ns);
    if (kernel == gsp::GspKernel::kReference) gsp_reference_ns = ns;
    if (kernel == gsp::GspKernel::kUnrolled) gsp_unrolled_ns = ns;
  }

  // --- Gamma_R: full sparse rebuild vs incremental row refresh after a
  // CCD-style perturbation of 8 edge correlations. Both serial, same rows,
  // each the median of its reps.
  const auto full = rtf::CorrelationTable::Compute(
      model, 0, rtf::PathWeightMode::kNegLog, nullptr, flags.hop_radius);
  CROWDRTSE_CHECK(full.ok());
  rtf::RtfModel refined = model;
  std::vector<graph::EdgeId> changed_edges;
  for (int k = 0; k < 8; ++k) {
    const graph::EdgeId e =
        static_cast<graph::EdgeId>((static_cast<int64_t>(k) * 7919) %
                                   graph->num_edges());
    refined.SetRho(0, e, 0.5 + 0.04 * k);
    changed_edges.push_back(e);
  }
  std::vector<double> edge_rho(static_cast<size_t>(graph->num_edges()));
  for (graph::EdgeId e = 0; e < graph->num_edges(); ++e) {
    edge_rho[static_cast<size_t>(e)] = refined.Rho(0, e);
  }
  const std::vector<graph::RoadId> affected =
      rtf::AffectedCorrelationRows(*graph, changed_edges, flags.hop_radius);
  std::printf("  gamma refresh: %zu changed edges -> %zu affected rows "
              "of %d\n", changed_edges.size(), affected.size(), n);

  const double gamma_full_ns = MedianNsPerOp(flags.reps, [&] {
    const auto rebuilt = rtf::CorrelationTable::Compute(
        refined, 0, rtf::PathWeightMode::kNegLog, nullptr,
        flags.hop_radius);
    CROWDRTSE_CHECK(rebuilt.ok());
    g_sink += rebuilt->Corr(0, 0);
  });
  record("gamma_full_rebuild", gamma_full_ns);

  const double gamma_incremental_ns = MedianNsPerOp(flags.reps, [&] {
    const auto patched =
        full->RefreshedRows(*graph, edge_rho, affected, nullptr);
    CROWDRTSE_CHECK(patched.ok());
    g_sink += patched->Corr(0, 0);
  });
  record("gamma_incremental_refresh", gamma_incremental_ns);

  // --- Graph primitives.
  {
    graph::StampedBfs bfs;
    const double ns = MeasureNsPerOp(flags.reps, [&] {
      bfs.Run(*graph, sampled);
      g_sink += static_cast<double>(bfs.num_levels());
    });
    record("bfs_flat", ns);
  }
  {
    const std::vector<double> unit_weights(
        static_cast<size_t>(graph->num_edges()), 1.0);
    graph::DijkstraWorkspace workspace;
    const double ns = MeasureNsPerOp(flags.reps, [&] {
      graph::DijkstraInto(*graph, 0, unit_weights, workspace);
      g_sink += workspace.distance[static_cast<size_t>(n - 1)];
    });
    record("dijkstra_flat", ns);
  }

  // --- OCS selection as the serve path runs it on a sparse Gamma_R: 20
  // queried roads spread over the city, their C-hop ball as candidates.
  {
    std::vector<graph::RoadId> queried;
    for (int k = 0; k < 20; ++k) queried.push_back(k * (n / 20) + n / 40);
    const std::vector<graph::RoadId> candidates =
        graph::RoadsWithinHops(*graph, queried, flags.hop_radius);
    const std::vector<double> weights(queried.size(), 1.0);
    const crowd::CostModel costs = crowd::CostModel::Constant(n, 2);
    const double ns = MeasureNsPerOp(flags.reps * 20, [&] {
      const auto problem = ocs::OcsProblem::Create(
          *full, queried, weights, candidates, costs, /*budget=*/30,
          /*theta=*/0.92);
      CROWDRTSE_CHECK(problem.ok());
      g_sink += ocs::LazyHybridGreedy(*problem).objective;
    });
    std::printf("  ocs: %zu queried roads, %zu candidates\n", queried.size(),
                candidates.size());
    record("ocs_lazy_hybrid", ns);
  }

  const double gsp_speedup =
      gsp_unrolled_ns > 0.0 ? gsp_reference_ns / gsp_unrolled_ns : 0.0;
  const double gamma_speedup = gamma_incremental_ns > 0.0
                                   ? gamma_full_ns / gamma_incremental_ns
                                   : 0.0;
  std::printf("GSP propagation reference -> unrolled: %.2fx\n",
              gsp_speedup);
  std::printf("Gamma_R refresh full -> incremental: %.2fx\n", gamma_speedup);

  std::string json = "{\n";
  json += "  \"bench\": \"microkernels\",\n";
  json += "  \"roads\": " + std::to_string(n) + ",\n";
  json += "  \"edges\": " + std::to_string(graph->num_edges()) + ",\n";
  json += "  \"reps\": " + std::to_string(flags.reps) + ",\n";
  json += "  \"gsp_sweeps\": " + std::to_string(flags.sweeps) + ",\n";
  json += "  \"gamma_hop_radius\": " + std::to_string(flags.hop_radius) +
          ",\n";
  json += "  \"kernels\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    json += "    {\"kernel\": \"" + r.kernel + "\", \"ns_per_op\": " +
            util::FormatDouble(r.ns_per_op, 0) +
            ", \"roads\": " + std::to_string(r.roads) + "}";
    json += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"gsp_speedup_reference_to_auto\": " +
          util::FormatDouble(gsp_speedup, 2) + ",\n";
  json += "  \"gamma_refresh_speedup_full_to_incremental\": " +
          util::FormatDouble(gamma_speedup, 2) + "\n";
  json += "}\n";
  DumpArtifact(flags.json_out, json);

  if (flags.strict) {
    CROWDRTSE_CHECK(gsp_speedup >= 3.0);
    CROWDRTSE_CHECK(gamma_speedup >= 3.0);
    std::printf("strict speedup gate passed (GSP %.2fx, Gamma_R %.2fx, "
                "both >= 3x)\n", gsp_speedup, gamma_speedup);
  }
  if (g_sink == 12345.678) std::printf("%f\n", g_sink);  // keep g_sink live
}

}  // namespace
}  // namespace crowdrtse::bench

int main(int argc, char** argv) {
  crowdrtse::bench::Run(crowdrtse::bench::ParseFlags(argc, argv));
  return 0;
}
