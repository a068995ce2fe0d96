// Ablation studies for the design choices called out in DESIGN.md §5-6
// (not a paper figure; exercises the optional/extension features):
//   1. answer aggregation policy (mean / median / trimmed mean) under
//      outlier-contaminated crowd answers;
//   2. path-correlation reduction: exact -log(rho) vs the paper's literal
//      1/rho heuristic (Eq. 9) — objective quality of the resulting OCS;
//   3. greedy-vs-exact OCS gap on small instances (empirical approximation
//      ratio vs the (1 - 1/e)/2 guarantee);
//   4. variance-explained vs the paper's OCS objective.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/gsp_estimator.h"
#include "eval/table_printer.h"
#include "ocs/exact_solver.h"
#include "quality_harness.h"
#include "util/string_util.h"

namespace crowdrtse::bench {
namespace {

void AggregationAblation(const SemiSyntheticWorld& world) {
  std::printf("\n--- ablation 1: answer aggregation under outliers ---\n");
  const int slot = 99;
  const crowd::CostModel costs =
      crowd::CostModel::Constant(world.network.num_roads(), 7);
  std::vector<graph::RoadId> roads;
  for (graph::RoadId r = 0; r < world.network.num_roads(); r += 7) {
    roads.push_back(r);
  }
  eval::TablePrinter table(
      {"policy", "outlier=0.0", "outlier=0.1", "outlier=0.25"});
  for (auto policy :
       {crowd::AggregationPolicy::kMean, crowd::AggregationPolicy::kMedian,
        crowd::AggregationPolicy::kTrimmedMean}) {
    std::vector<double> row;
    for (double outlier_rate : {0.0, 0.1, 0.25}) {
      crowd::CrowdSimOptions options;
      options.aggregation = policy;
      options.outlier_rate = outlier_rate;
      crowd::CrowdSimulator sim(options, util::Rng(5));
      auto round = sim.Probe(roads, costs, world.truth, slot);
      CROWDRTSE_CHECK(round.ok());
      double mape = 0.0;
      for (const auto& p : round->probes) {
        mape += eval::AbsolutePercentageError(p.probed_kmh,
                                              world.truth.At(slot, p.road));
      }
      row.push_back(mape / static_cast<double>(round->probes.size()));
    }
    table.AddNumericRow(crowd::AggregationPolicyName(policy), row, 4);
  }
  table.Print();
  std::printf("(cells: MAPE of the aggregated probe vs ground truth)\n");
}

void PathWeightAblation(const SemiSyntheticWorld& world) {
  std::printf(
      "\n--- ablation 2: -log(rho) (exact) vs 1/rho (paper Eq. 9) ---\n");
  const int slot = 99;
  const auto exact_table = rtf::CorrelationTable::Compute(
      world.model, slot, rtf::PathWeightMode::kNegLog);
  const auto paper_table = rtf::CorrelationTable::Compute(
      world.model, slot, rtf::PathWeightMode::kReciprocal);
  CROWDRTSE_CHECK(exact_table.ok() && paper_table.ok());
  // How often does the heuristic find a weaker path?
  int weaker = 0;
  int total = 0;
  double worst_gap = 0.0;
  for (graph::RoadId i = 0; i < world.network.num_roads(); i += 13) {
    for (graph::RoadId j = 0; j < world.network.num_roads(); j += 13) {
      if (i == j) continue;
      const double exact = exact_table->Corr(i, j);
      const double paper = paper_table->Corr(i, j);
      ++total;
      if (paper < exact - 1e-12) {
        ++weaker;
        worst_gap = std::max(worst_gap, exact - paper);
      }
    }
  }
  std::printf(
      "sampled pairs: %d; heuristic strictly weaker on %d (%.2f%%); worst "
      "absolute gap %.4f\n",
      total, weaker, 100.0 * weaker / std::max(1, total), worst_gap);
}

void GreedyVsExactAblation() {
  std::printf(
      "\n--- ablation 3: empirical Hybrid-Greedy approximation ratio ---\n");
  const double bound = (1.0 - 1.0 / 2.718281828) / 2.0;
  double worst = 1.0;
  double sum = 0.0;
  int count = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    graph::RoadNetworkOptions net;
    net.num_roads = 18;
    const graph::Graph g = *graph::RoadNetwork(net, rng);
    std::vector<double> rho(static_cast<size_t>(g.num_edges()));
    for (double& r : rho) r = rng.UniformDouble(0.3, 0.95);
    const auto table = rtf::CorrelationTable::FromEdgeCorrelations(g, rho);
    CROWDRTSE_CHECK(table.ok());
    const auto costs =
        crowd::CostModel::UniformRandom(18, 1, 4, rng);
    CROWDRTSE_CHECK(costs.ok());
    std::vector<graph::RoadId> queried;
    std::vector<double> weights;
    for (int i = 0; i < 6; ++i) {
      queried.push_back(i * 3);
      weights.push_back(rng.UniformDouble(0.5, 4.0));
    }
    std::vector<graph::RoadId> candidates;
    for (int i = 0; i < 18; ++i) candidates.push_back(i);
    const auto problem = ocs::OcsProblem::Create(
        *table, queried, weights, candidates, *costs, 7, 0.95);
    CROWDRTSE_CHECK(problem.ok());
    const auto exact = ocs::ExactSolve(*problem);
    CROWDRTSE_CHECK(exact.ok());
    if (exact->objective <= 0.0) continue;
    const double ratio =
        ocs::HybridGreedy(*problem).objective / exact->objective;
    worst = std::min(worst, ratio);
    sum += ratio;
    ++count;
  }
  std::printf(
      "instances: %d; mean ratio %.4f; worst ratio %.4f; theoretical bound "
      "%.4f\n",
      count, sum / count, worst, bound);
}

void VarianceObjectiveAblation(const SemiSyntheticWorld& world) {
  // Extension: select crowdsourced roads by expected *variance explained*
  // instead of the paper's sigma-weighted correlation — weights sigma_q^2
  // and squared path correlations (corr^2 of a max-product path is the
  // max-product of squared edge rhos, so the same machinery applies).
  std::printf(
      "\n--- ablation 4: variance-explained vs paper OCS objective ---\n");
  const int slot = 99;
  const auto corr_table = rtf::CorrelationTable::Compute(world.model, slot);
  CROWDRTSE_CHECK(corr_table.ok());
  std::vector<double> rho_sq(static_cast<size_t>(world.model.num_edges()));
  for (graph::EdgeId e = 0; e < world.model.num_edges(); ++e) {
    const double rho = world.model.Rho(slot, e);
    rho_sq[static_cast<size_t>(e)] = rho * rho;
  }
  const auto var_table = rtf::CorrelationTable::FromEdgeCorrelations(
      world.network, rho_sq);
  CROWDRTSE_CHECK(var_table.ok());

  const auto queried = MakeQuery(world, 40, 5);
  std::vector<double> sigma_weights;
  std::vector<double> variance_weights;
  for (graph::RoadId r : queried) {
    const double sigma = world.model.Sigma(slot, r);
    sigma_weights.push_back(sigma);
    variance_weights.push_back(sigma * sigma);
  }
  const crowd::CostModel costs =
      crowd::CostModel::Constant(world.network.num_roads(), 2);
  const core::GspEstimator gsp(world.model, {});

  eval::TablePrinter t({"objective", "K=20", "K=40", "K=80"});
  for (const bool use_variance : {false, true}) {
    std::vector<double> row;
    for (int budget : {20, 40, 80}) {
      auto problem = ocs::OcsProblem::Create(
          use_variance ? *var_table : *corr_table, queried,
          use_variance ? variance_weights : sigma_weights,
          world.all_roads, costs, budget, 0.92);
      CROWDRTSE_CHECK(problem.ok());
      const ocs::OcsSolution selection = ocs::HybridGreedy(*problem);
      crowd::CrowdSimulator sim({}, util::Rng(31));
      auto round = sim.Probe(selection.roads, costs, world.truth, slot);
      CROWDRTSE_CHECK(round.ok());
      std::vector<double> probed;
      for (const auto& p : round->probes) probed.push_back(p.probed_kmh);
      auto estimates = gsp.Estimate(slot, selection.roads, probed);
      CROWDRTSE_CHECK(estimates.ok());
      row.push_back(eval::ComputeQuality(*estimates,
                                         world.truth.SlotSpeeds(slot),
                                         queried)
                        ->mape);
    }
    t.AddNumericRow(use_variance ? "sigma^2 * corr^2" : "sigma * corr",
                    row, 4);
  }
  t.Print();
  std::printf("(cells: GSP MAPE over the queried roads)\n");
}

void Run() {
  std::printf("=== Ablation benches (design-choice studies) ===\n");
  WorldOptions options;
  options.num_roads = 300;  // ablations do not need the full 607 roads
  options.num_days = 15;
  const SemiSyntheticWorld world = BuildWorld(options);
  AggregationAblation(world);
  PathWeightAblation(world);
  GreedyVsExactAblation();
  VarianceObjectiveAblation(world);
}

}  // namespace
}  // namespace crowdrtse::bench

int main() {
  crowdrtse::bench::Run();
  return 0;
}
