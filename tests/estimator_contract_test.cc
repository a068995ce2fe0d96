// Interface-contract tests run uniformly over every RealtimeEstimator
// implementation: probe echoing (except Per, which by definition ignores
// probes), physical output ranges, determinism, and input validation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "baselines/grmc.h"
#include "baselines/lasso.h"
#include "baselines/periodic_estimator.h"
#include "core/gsp_estimator.h"
#include "graph/generators.h"
#include "rtf/moment_estimator.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace crowdrtse {
namespace {

/// Shared world for all estimator instances.
struct World {
  World() {
    util::Rng rng(21);
    graph::RoadNetworkOptions net;
    net.num_roads = 50;
    graph = *graph::RoadNetwork(net, rng);
    traffic::TrafficModelOptions traffic_options;
    traffic_options.num_days = 8;
    simulator = std::make_unique<traffic::TrafficSimulator>(
        graph, traffic_options, 23);
    history = simulator->GenerateHistory();
    rtf::MomentEstimatorOptions moments;
    moments.slot_window = 1;
    model = std::make_unique<rtf::RtfModel>(
        *rtf::EstimateByMoments(graph, history, moments));
    truth = simulator->GenerateEvaluationDay();
  }

  graph::Graph graph;
  std::unique_ptr<traffic::TrafficSimulator> simulator;
  traffic::HistoryStore history;
  std::unique_ptr<rtf::RtfModel> model;
  traffic::DayMatrix truth;
};

World& GetWorld() {
  static World* world = new World();
  return *world;
}

std::unique_ptr<baselines::RealtimeEstimator> MakeEstimator(
    const std::string& name) {
  World& w = GetWorld();
  if (name == "GSP") {
    return std::make_unique<core::GspEstimator>(*w.model,
                                                gsp::GspOptions{});
  }
  if (name == "Per") {
    return std::make_unique<baselines::PeriodicEstimator>(*w.model);
  }
  if (name == "LASSO") {
    return std::make_unique<baselines::LassoEstimator>(
        w.graph, w.history, baselines::LassoEstimatorOptions{});
  }
  if (name == "GRMC") {
    baselines::GrmcOptions options;
    options.max_iterations = 8;
    return std::make_unique<baselines::GrmcEstimator>(w.graph, w.history,
                                                      options);
  }
  return nullptr;
}

class EstimatorContractTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(EstimatorContractTest, NameMatches) {
  const auto estimator = MakeEstimator(GetParam());
  ASSERT_NE(estimator, nullptr);
  EXPECT_EQ(estimator->name(), GetParam());
}

TEST_P(EstimatorContractTest, OutputCoversAllRoadsAndStaysPhysical) {
  World& w = GetWorld();
  const auto estimator = MakeEstimator(GetParam());
  const int slot = 99;
  std::vector<graph::RoadId> observed{0, 10, 20, 30, 40};
  std::vector<double> speeds;
  for (graph::RoadId r : observed) speeds.push_back(w.truth.At(slot, r));
  const auto est = estimator->Estimate(slot, observed, speeds);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  ASSERT_EQ(est->size(), static_cast<size_t>(w.graph.num_roads()));
  for (double v : *est) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 300.0);
  }
}

TEST_P(EstimatorContractTest, ProbesEchoedExceptPer) {
  World& w = GetWorld();
  const auto estimator = MakeEstimator(GetParam());
  const int slot = 150;
  const std::vector<graph::RoadId> observed{5, 25};
  const std::vector<double> speeds{33.5, 61.25};
  const auto est = estimator->Estimate(slot, observed, speeds);
  ASSERT_TRUE(est.ok());
  if (GetParam() == "Per") {
    EXPECT_DOUBLE_EQ((*est)[5], w.model->Mu(slot, 5));
  } else {
    EXPECT_DOUBLE_EQ((*est)[5], 33.5);
    EXPECT_DOUBLE_EQ((*est)[25], 61.25);
  }
}

TEST_P(EstimatorContractTest, DeterministicAcrossCalls) {
  const auto estimator = MakeEstimator(GetParam());
  const std::vector<graph::RoadId> observed{3, 13};
  const std::vector<double> speeds{44.0, 52.0};
  const auto a = estimator->Estimate(100, observed, speeds);
  const auto b = estimator->Estimate(100, observed, speeds);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ((*a)[i], (*b)[i]) << GetParam() << " index " << i;
  }
}

TEST_P(EstimatorContractTest, RejectsBadInputs) {
  const auto estimator = MakeEstimator(GetParam());
  EXPECT_FALSE(estimator->Estimate(-1, {}, {}).ok());
  EXPECT_FALSE(estimator->Estimate(99999, {}, {}).ok());
  EXPECT_FALSE(estimator->Estimate(0, {0, 1}, {1.0}).ok());
  EXPECT_FALSE(estimator->Estimate(0, {-5}, {1.0}).ok());
}

TEST_P(EstimatorContractTest, EstimateTargetsConsistentOnTargets) {
  World& w = GetWorld();
  const auto estimator = MakeEstimator(GetParam());
  const int slot = 99;
  const std::vector<graph::RoadId> observed{0, 10, 20};
  std::vector<double> speeds;
  for (graph::RoadId r : observed) speeds.push_back(w.truth.At(slot, r));
  const std::vector<graph::RoadId> targets{1, 11, 21, 31};
  const auto full = estimator->Estimate(slot, observed, speeds);
  const auto targeted =
      estimator->EstimateTargets(slot, observed, speeds, targets);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(targeted.ok());
  for (graph::RoadId r : targets) {
    EXPECT_NEAR((*targeted)[static_cast<size_t>(r)],
                (*full)[static_cast<size_t>(r)], 1e-9)
        << GetParam() << " road " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, EstimatorContractTest,
                         ::testing::Values("GSP", "Per", "LASSO", "GRMC"));

}  // namespace
}  // namespace crowdrtse
