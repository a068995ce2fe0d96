// Sensitivity studies (extension experiments beyond the paper's §VII):
// how robust is the GSP-vs-baselines ranking when the world gets harder?
//   1. crowd answer noise  — sweep the workers' reading noise;
//   2. accidental variance — sweep the incident rate of the ground truth;
//   3. history length      — sweep the number of offline training days.
// Runs on a 300-road world to keep the sweep affordable; shapes, not
// absolute numbers, are the output.
#include <cstdio>
#include <vector>

#include "core/gsp_estimator.h"
#include "eval/table_printer.h"
#include "quality_harness.h"
#include "util/string_util.h"

namespace crowdrtse::bench {
namespace {

constexpr int kBudget = 40;
constexpr int kQuerySize = 40;
constexpr int kSlot = 99;

/// One evaluation: select with Hybrid, probe with the given noise, run the
/// estimator, return MAPE over the queried roads.
double EvaluateOnce(const SemiSyntheticWorld& world,
                    const baselines::RealtimeEstimator& estimator,
                    const rtf::CorrelationTable& table,
                    const std::vector<graph::RoadId>& queried,
                    double probe_noise_kmh, uint64_t seed) {
  const crowd::CostModel costs =
      crowd::CostModel::Constant(world.network.num_roads(), 2);
  const ocs::OcsProblem problem = MakeProblem(
      world, table, queried, world.all_roads, costs, kSlot, kBudget, 0.92);
  const ocs::OcsSolution selection = ocs::HybridGreedy(problem);
  crowd::CrowdSimOptions sim_options;
  sim_options.min_noise_kmh = probe_noise_kmh;
  sim_options.max_noise_kmh = probe_noise_kmh;
  crowd::CrowdSimulator sim(sim_options, util::Rng(seed));
  auto round = sim.Probe(selection.roads, costs, world.truth, kSlot);
  CROWDRTSE_CHECK(round.ok());
  std::vector<double> probed;
  for (const auto& p : round->probes) probed.push_back(p.probed_kmh);
  auto estimates =
      estimator.EstimateTargets(kSlot, selection.roads, probed, queried);
  CROWDRTSE_CHECK(estimates.ok());
  const auto quality = eval::ComputeQuality(
      *estimates, world.truth.SlotSpeeds(kSlot), queried);
  return quality->mape;
}

void NoiseSweep(const SemiSyntheticWorld& world,
                const rtf::CorrelationTable& table,
                const std::vector<graph::RoadId>& queried) {
  std::printf("\n--- sensitivity 1: crowd answer noise (GSP vs Per) ---\n");
  const core::GspEstimator gsp(world.model, {});
  const baselines::PeriodicEstimator per(world.model);
  eval::TablePrinter t({"noise km/h", "GSP MAPE", "Per MAPE"});
  for (double noise : {0.5, 2.0, 5.0, 10.0, 20.0}) {
    t.AddNumericRow(
        util::FormatDouble(noise, 1),
        {EvaluateOnce(world, gsp, table, queried, noise, 1),
         EvaluateOnce(world, per, table, queried, noise, 1)},
        4);
  }
  t.Print();
  std::printf(
      "(expected: GSP degrades gracefully with probe noise and crosses "
      "Per only when probes become useless)\n");
}

void IncidentSweep() {
  std::printf(
      "\n--- sensitivity 2: incident rate of the ground truth ---\n");
  eval::TablePrinter t(
      {"incidents/road/day", "GSP MAPE", "Per MAPE", "Per/GSP"});
  for (double rate : {0.0, 0.1, 0.25, 0.5}) {
    WorldOptions options;
    options.num_roads = 300;
    options.num_days = 15;
    SemiSyntheticWorld world = BuildWorld(options);
    // Rebuild the ground truth with the requested incident rate.
    traffic::TrafficModelOptions traffic_options;
    traffic_options.num_days = 15;
    traffic_options.incident_rate_per_road_day = rate;
    traffic::TrafficSimulator sim(world.network, traffic_options,
                                  options.seed + 1);
    world.truth = sim.GenerateEvaluationDay();
    const auto table = rtf::CorrelationTable::Compute(world.model, kSlot);
    CROWDRTSE_CHECK(table.ok());
    const auto queried = MakeQuery(world, kQuerySize, 5);
    const core::GspEstimator gsp(world.model, {});
    const baselines::PeriodicEstimator per(world.model);
    const double gsp_mape =
        EvaluateOnce(world, gsp, *table, queried, 1.0, 2);
    const double per_mape =
        EvaluateOnce(world, per, *table, queried, 1.0, 2);
    t.AddNumericRow(util::FormatDouble(rate, 2),
                    {gsp_mape, per_mape, per_mape / gsp_mape}, 4);
  }
  t.Print();
  std::printf(
      "(expected: the GSP advantage widens as accidental variance grows — "
      "the paper's motivation #2)\n");
}

void HistoryLengthSweep() {
  std::printf("\n--- sensitivity 3: offline history length ---\n");
  eval::TablePrinter t({"days", "GSP MAPE", "LASSO-free Per MAPE"});
  for (int days : {3, 7, 15, 30}) {
    WorldOptions options;
    options.num_roads = 300;
    options.num_days = days;
    const SemiSyntheticWorld world = BuildWorld(options);
    const auto table = rtf::CorrelationTable::Compute(world.model, kSlot);
    CROWDRTSE_CHECK(table.ok());
    const auto queried = MakeQuery(world, kQuerySize, 5);
    const core::GspEstimator gsp(world.model, {});
    const baselines::PeriodicEstimator per(world.model);
    t.AddNumericRow(std::to_string(days),
                    {EvaluateOnce(world, gsp, *table, queried, 1.0, 3),
                     EvaluateOnce(world, per, *table, queried, 1.0, 3)},
                    4);
  }
  t.Print();
  std::printf("(expected: both improve with more days; GSP stays ahead)\n");
}

void Run() {
  std::printf("=== Sensitivity benches (extension experiments) ===\n");
  WorldOptions options;
  options.num_roads = 300;
  options.num_days = 15;
  const SemiSyntheticWorld world = BuildWorld(options);
  const auto table = rtf::CorrelationTable::Compute(world.model, kSlot);
  CROWDRTSE_CHECK(table.ok());
  const auto queried = MakeQuery(world, kQuerySize, 5);
  NoiseSweep(world, *table, queried);
  IncidentSweep();
  HistoryLengthSweep();
}

}  // namespace
}  // namespace crowdrtse::bench

int main() {
  crowdrtse::bench::Run();
  return 0;
}
