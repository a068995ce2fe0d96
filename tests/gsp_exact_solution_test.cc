// Cross-validates GSP against direct numerical optimisation: the converged
// propagation must match the exact minimiser of the quadratic objective
// whose coordinate-wise minimiser is paper Eq. (18),
//
//   F(v) = sum_i (v_i - mu_i)^2 / sigma_i^2
//        + sum_{(i,j) in E} ((v_i - v_j) - mu_ij)^2 / sigma_ij^2
//
// with the sampled roads' variables pinned to the probed values. The
// stationarity system A v = b is assembled explicitly and solved with
// conjugate gradients; GSP must agree on every connected road.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "gsp/propagation.h"
#include "math/linear_solver.h"
#include "rtf/moment_estimator.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace crowdrtse::gsp {
namespace {

rtf::RtfModel RandomModel(const graph::Graph& g, uint64_t seed) {
  util::Rng rng(seed);
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    model.SetMu(0, r, rng.UniformDouble(25.0, 75.0));
    model.SetSigma(0, r, rng.UniformDouble(0.8, 7.0));
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, rng.UniformDouble(0.3, 0.95));
  }
  return model;
}

/// Solves the pinned stationarity system exactly via CG and returns the
/// full speed vector (sampled roads at their pins).
std::vector<double> ExactConditionalOptimum(
    const rtf::RtfModel& model, const std::vector<graph::RoadId>& sampled,
    const std::vector<double>& pins) {
  const graph::Graph& g = model.graph();
  const int n = g.num_roads();
  std::vector<bool> pinned(static_cast<size_t>(n), false);
  std::vector<double> value(static_cast<size_t>(n), 0.0);
  for (size_t i = 0; i < sampled.size(); ++i) {
    pinned[static_cast<size_t>(sampled[i])] = true;
    value[static_cast<size_t>(sampled[i])] = pins[i];
  }
  // Index map for the free variables.
  std::map<graph::RoadId, size_t> index;
  std::vector<graph::RoadId> free_roads;
  for (graph::RoadId r = 0; r < n; ++r) {
    if (!pinned[static_cast<size_t>(r)]) {
      index[r] = free_roads.size();
      free_roads.push_back(r);
    }
  }
  const size_t m = free_roads.size();
  // Assemble A (dense; tests are small) and b from the stationarity of F:
  //   (1/sigma_i^2 + sum_j 1/u_ij) v_i - sum_{j free} v_j / u_ij
  //     = mu_i/sigma_i^2 + sum_j mu_ij/u_ij + sum_{j pinned} v_j / u_ij.
  math::DenseMatrix a(m, m, 0.0);
  std::vector<double> b(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    const graph::RoadId i = free_roads[k];
    const double sigma = model.Sigma(0, i);
    double diag = 1.0 / (sigma * sigma);
    b[k] = model.Mu(0, i) / (sigma * sigma);
    for (const graph::Adjacency& adj : g.Neighbors(i)) {
      const double inv_u = 1.0 / model.PairVariance(0, adj.edge);
      diag += inv_u;
      b[k] += model.PairMean(0, i, adj.neighbor) * inv_u;
      if (pinned[static_cast<size_t>(adj.neighbor)]) {
        b[k] += value[static_cast<size_t>(adj.neighbor)] * inv_u;
      } else {
        a.At(k, index.at(adj.neighbor)) -= inv_u;
      }
    }
    a.At(k, k) = diag;
  }
  const math::CgResult solved = math::ConjugateGradient(
      b, [&](const std::vector<double>& x) { return a.Multiply(x); },
      {2000, 1e-12});
  EXPECT_TRUE(solved.converged);
  for (size_t k = 0; k < m; ++k) {
    value[static_cast<size_t>(free_roads[k])] = solved.x[k];
  }
  return value;
}

class GspExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GspExactTest, MatchesDirectSolveOnRoadNetwork) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed);
  graph::RoadNetworkOptions net;
  net.num_roads = 60;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  const rtf::RtfModel model = RandomModel(g, seed + 100);

  std::vector<graph::RoadId> sampled;
  std::vector<double> pins;
  for (graph::RoadId r = 0; r < g.num_roads();
       r += 7 + static_cast<int>(seed % 3)) {
    sampled.push_back(r);
    pins.push_back(rng.UniformDouble(15.0, 85.0));
  }

  GspOptions options;
  options.epsilon = 1e-12;
  options.max_sweeps = 20000;
  const SpeedPropagator propagator(model, options);
  const auto gsp = propagator.Propagate(0, sampled, pins);
  ASSERT_TRUE(gsp.ok());
  ASSERT_TRUE(gsp->converged);

  const std::vector<double> exact =
      ExactConditionalOptimum(model, sampled, pins);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    if (gsp->hops[static_cast<size_t>(r)] < 0) continue;  // unreachable
    EXPECT_NEAR(gsp->speeds[static_cast<size_t>(r)],
                exact[static_cast<size_t>(r)], 1e-6)
        << "road " << r << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GspExactTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GspExactTest, GridWithSingleProbe) {
  const graph::Graph g = *graph::GridNetwork(6, 6);
  const rtf::RtfModel model = RandomModel(g, 9);
  GspOptions options;
  options.epsilon = 1e-12;
  options.max_sweeps = 50000;
  const SpeedPropagator propagator(model, options);
  const auto gsp = propagator.Propagate(0, {17}, {12.0});
  ASSERT_TRUE(gsp.ok());
  ASSERT_TRUE(gsp->converged);
  const std::vector<double> exact =
      ExactConditionalOptimum(model, {17}, {12.0});
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    EXPECT_NEAR(gsp->speeds[static_cast<size_t>(r)],
                exact[static_cast<size_t>(r)], 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Distance to the exact solve at the default epsilon. The production kernel
// over-relaxes (SOR) once its first omega estimate is in; kReference is the
// paper's plain Alg. 5. Both stop when no road moves by epsilon, so both
// stop short of the shared fixpoint, and where each stops depends on how far
// below epsilon its last step happens to land.
// ---------------------------------------------------------------------------

/// The pinned stationarity system of ExactConditionalOptimum at `slot`,
/// applied as a sparse operator (CSR over the free roads) so a 607-road
/// world solves in milliseconds.
std::vector<double> SparseExactOptimum(const rtf::RtfModel& model, int slot,
                                       const std::vector<graph::RoadId>& sampled,
                                       const std::vector<double>& pins) {
  const graph::Graph& g = model.graph();
  const size_t n = static_cast<size_t>(g.num_roads());
  std::vector<double> value(n, 0.0);
  std::vector<int> index(n, 0);
  for (size_t i = 0; i < sampled.size(); ++i) {
    value[static_cast<size_t>(sampled[i])] = pins[i];
    index[static_cast<size_t>(sampled[i])] = -1;
  }
  std::vector<graph::RoadId> free_roads;
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    if (index[static_cast<size_t>(r)] == -1) continue;
    index[static_cast<size_t>(r)] = static_cast<int>(free_roads.size());
    free_roads.push_back(r);
  }
  const size_t m = free_roads.size();
  std::vector<double> diag(m, 0.0);
  std::vector<double> b(m, 0.0);
  std::vector<size_t> offsets{0};
  std::vector<size_t> cols;
  std::vector<double> weights;
  for (size_t k = 0; k < m; ++k) {
    const graph::RoadId i = free_roads[k];
    const double sigma = model.Sigma(slot, i);
    diag[k] = 1.0 / (sigma * sigma);
    b[k] = model.Mu(slot, i) / (sigma * sigma);
    for (const graph::Adjacency& adj : g.Neighbors(i)) {
      const double inv_u = 1.0 / model.PairVariance(slot, adj.edge);
      diag[k] += inv_u;
      b[k] += model.PairMean(slot, i, adj.neighbor) * inv_u;
      const int j = index[static_cast<size_t>(adj.neighbor)];
      if (j < 0) {
        b[k] += value[static_cast<size_t>(adj.neighbor)] * inv_u;
      } else {
        cols.push_back(static_cast<size_t>(j));
        weights.push_back(inv_u);
      }
    }
    offsets.push_back(cols.size());
  }
  const math::CgResult solved = math::ConjugateGradient(
      b,
      [&](const std::vector<double>& x) {
        std::vector<double> y(m);
        for (size_t k = 0; k < m; ++k) {
          double sum = diag[k] * x[k];
          for (size_t e = offsets[k]; e < offsets[k + 1]; ++e) {
            sum -= weights[e] * x[cols[e]];
          }
          y[k] = sum;
        }
        return y;
      },
      {20000, 1e-13});
  EXPECT_TRUE(solved.converged);
  for (size_t k = 0; k < m; ++k) {
    value[static_cast<size_t>(free_roads[k])] = solved.x[k];
  }
  return value;
}

/// Max-norm distance between a propagated field and the exact solve.
double MaxDistance(const std::vector<double>& speeds,
                   const std::vector<double>& exact) {
  double distance = 0.0;
  for (size_t r = 0; r < speeds.size(); ++r) {
    distance = std::max(distance, std::fabs(speeds[r] - exact[r]));
  }
  return distance;
}

/// Production and reference distances to `exact` at the default epsilon,
/// and the road updates each ran (relax-order length x sweeps).
struct KernelDistances {
  double production = 0.0;
  double reference = 0.0;
  int64_t production_relaxed = 0;
  int64_t reference_relaxed = 0;
};

KernelDistances DistancesAtDefaultEpsilon(
    const rtf::RtfModel& model, int slot,
    const std::vector<graph::RoadId>& sampled,
    const std::vector<double>& pins, const std::vector<double>& exact) {
  KernelDistances out;
  for (const GspKernel kernel : {GspKernel::kUnrolled, GspKernel::kReference}) {
    GspOptions options;
    options.kernel = kernel;
    const SpeedPropagator propagator(model, options);
    const auto field = propagator.Propagate(slot, sampled, pins);
    EXPECT_TRUE(field.ok());
    const double distance = MaxDistance(field->speeds, exact);
    const int64_t relaxed =
        field->sweeps * std::count_if(field->hops.begin(), field->hops.end(),
                                      [](int hops) { return hops > 0; });
    if (kernel == GspKernel::kUnrolled) {
      out.production = distance;
      out.production_relaxed = relaxed;
    } else {
      out.reference = distance;
      out.reference_relaxed = relaxed;
    }
  }
  return out;
}

TEST(GspExactTest, OverRelaxedStopsWithinEpsilonOnEveryTestGraph) {
  // The graphs, models and probes of MatchesDirectSolveOnRoadNetwork and
  // GridWithSingleProbe, at the default epsilon 1e-4. On each graph the
  // over-relaxed field stops no farther from the exact solve than the
  // reference's or within epsilon of it; summed over the graphs it stops
  // closer. (The reference stops farther than epsilon on some graphs. On
  // one, the over-relaxed field stops two sweeps earlier with its last step
  // at 0.93 epsilon, 1 % farther than a reference whose last step fell to
  // 0.61 epsilon, while it is the closer of the two at every equal sweep
  // count.)
  const double epsilon = GspOptions{}.epsilon;
  double production_sum = 0.0;
  double reference_sum = 0.0;
  const auto check = [&](const KernelDistances& d, const std::string& what) {
    EXPECT_LE(d.production, std::max(d.reference, epsilon)) << what;
    production_sum += d.production;
    reference_sum += d.reference;
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    graph::RoadNetworkOptions net;
    net.num_roads = 60;
    const graph::Graph g = *graph::RoadNetwork(net, rng);
    const rtf::RtfModel model = RandomModel(g, seed + 100);
    std::vector<graph::RoadId> sampled;
    std::vector<double> pins;
    for (graph::RoadId r = 0; r < g.num_roads();
         r += 7 + static_cast<int>(seed % 3)) {
      sampled.push_back(r);
      pins.push_back(rng.UniformDouble(15.0, 85.0));
    }
    check(DistancesAtDefaultEpsilon(
              model, 0, sampled, pins,
              ExactConditionalOptimum(model, sampled, pins)),
          "seed " + std::to_string(seed));
  }
  const graph::Graph grid = *graph::GridNetwork(6, 6);
  const rtf::RtfModel model = RandomModel(grid, 9);
  check(DistancesAtDefaultEpsilon(
            model, 0, {17}, {12.0},
            ExactConditionalOptimum(model, {17}, {12.0})),
        "grid");
  EXPECT_LE(production_sum, reference_sum);
}

TEST(GspExactTest, OverRelaxedHalvesWorkAndStopsCloserOnPaperWorld) {
  // The paper's 607-road world with a moment-fitted RTF; 300 queries of 15
  // probes at random slots, probed at the held-out day's truth.
  util::Rng net_rng(42);
  graph::RoadNetworkOptions net;
  net.num_roads = 607;
  const graph::Graph g = *graph::RoadNetwork(net, net_rng);
  traffic::TrafficModelOptions traffic_options;
  traffic_options.num_days = 30;
  const traffic::TrafficSimulator sim(g, traffic_options, 43);
  const rtf::RtfModel model =
      *rtf::EstimateByMoments(g, sim.GenerateHistory(), {});
  const traffic::DayMatrix truth = sim.GenerateEvaluationDay();

  util::Rng rng(2018);
  double production_sum = 0.0;
  double reference_sum = 0.0;
  double production_max = 0.0;
  double reference_max = 0.0;
  int64_t production_relaxed = 0;
  int64_t reference_relaxed = 0;
  constexpr int kQueries = 300;
  for (int q = 0; q < kQueries; ++q) {
    const int slot = rng.UniformInt(0, traffic::kSlotsPerDay - 1);
    std::vector<graph::RoadId> sampled;
    std::vector<double> pins;
    for (int r : rng.SampleWithoutReplacement(g.num_roads(), 15)) {
      sampled.push_back(r);
      pins.push_back(truth.At(slot, r));
    }
    const KernelDistances d = DistancesAtDefaultEpsilon(
        model, slot, sampled, pins,
        SparseExactOptimum(model, slot, sampled, pins));
    production_sum += d.production;
    reference_sum += d.reference;
    production_max = std::max(production_max, d.production);
    reference_max = std::max(reference_max, d.reference);
    production_relaxed += d.production_relaxed;
    reference_relaxed += d.reference_relaxed;
  }
  EXPECT_LE(production_sum, reference_sum);
  EXPECT_LE(production_max, reference_max);
  EXPECT_LE(2 * production_relaxed, reference_relaxed);
  std::printf("mean distance %.3g -> %.3g, max %.3g -> %.3g, "
              "road updates %lld -> %lld\n",
              reference_sum / kQueries, production_sum / kQueries,
              reference_max, production_max,
              static_cast<long long>(reference_relaxed),
              static_cast<long long>(production_relaxed));
}

}  // namespace
}  // namespace crowdrtse::gsp
