#include "gsp/propagation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "rtf/moment_estimator.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"

namespace crowdrtse::gsp {
namespace {

/// Uniform model over a graph: mu, sigma, rho the same everywhere.
rtf::RtfModel UniformModel(const graph::Graph& g, double mu, double sigma,
                           double rho) {
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    model.SetMu(0, r, mu);
    model.SetSigma(0, r, sigma);
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, rho);
  }
  return model;
}

TEST(GspTest, NoSamplesReturnsPeriodicMeans) {
  const graph::Graph g = *graph::PathNetwork(5);
  rtf::RtfModel model = UniformModel(g, 50.0, 2.0, 0.8);
  model.SetMu(0, 3, 70.0);
  const SpeedPropagator propagator(model, {});
  const auto result = propagator.Propagate(0, {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->sweeps, 0);
  EXPECT_DOUBLE_EQ(result->speeds[3], 70.0);
  EXPECT_DOUBLE_EQ(result->speeds[0], 50.0);
}

TEST(GspTest, SampledRoadsKeepProbedValues) {
  const graph::Graph g = *graph::PathNetwork(5);
  const rtf::RtfModel model = UniformModel(g, 50.0, 2.0, 0.8);
  const SpeedPropagator propagator(model, {});
  const auto result = propagator.Propagate(0, {1, 3}, {20.0, 80.0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->speeds[1], 20.0);
  EXPECT_DOUBLE_EQ(result->speeds[3], 80.0);
}

TEST(GspTest, ProbeDeviationPropagatesAndDecays) {
  // All roads expect 50; probing road 0 at 20 must pull road 1 well below
  // 50, road 2 less so, road 3 even less: the influence decays with hops.
  const graph::Graph g = *graph::PathNetwork(6);
  const rtf::RtfModel model = UniformModel(g, 50.0, 5.0, 0.9);
  GspOptions options;
  options.epsilon = 1e-8;
  const SpeedPropagator propagator(model, options);
  const auto result = propagator.Propagate(0, {0}, {20.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  const auto& v = result->speeds;
  EXPECT_LT(v[1], 50.0);
  EXPECT_LT(v[1], v[2]);
  EXPECT_LT(v[2], v[3]);
  EXPECT_LT(v[3], v[4]);
  for (size_t i = 1; i < v.size(); ++i) {
    EXPECT_GT(v[i], 20.0 - 1e-9);
    EXPECT_LT(v[i], 50.0 + 1e-9);
  }
}

TEST(GspTest, ConvergedStateSatisfiesFixedPoint) {
  // Every non-sampled variable must satisfy Eq. (18) at convergence.
  util::Rng rng(3);
  graph::RoadNetworkOptions net;
  net.num_roads = 40;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    model.SetMu(0, r, rng.UniformDouble(30.0, 70.0));
    model.SetSigma(0, r, rng.UniformDouble(1.0, 6.0));
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, rng.UniformDouble(0.4, 0.95));
  }
  GspOptions options;
  options.epsilon = 1e-10;
  options.max_sweeps = 2000;
  const SpeedPropagator propagator(model, options);
  const std::vector<graph::RoadId> sampled{0, 10, 20};
  const std::vector<double> probed{25.0, 60.0, 45.0};
  const auto result = propagator.Propagate(0, sampled, probed);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    if (r == 0 || r == 10 || r == 20) continue;
    if (result->hops[static_cast<size_t>(r)] < 0) continue;
    const double fixed_point =
        propagator.UpdateValue(0, r, result->speeds);
    EXPECT_NEAR(result->speeds[static_cast<size_t>(r)], fixed_point, 1e-6);
  }
}

TEST(GspTest, UnreachableRoadsStayAtMu) {
  graph::GraphBuilder builder(4);
  builder.AddEdge(0, 1);  // component A
  builder.AddEdge(2, 3);  // component B
  const graph::Graph g = *builder.Build();
  rtf::RtfModel model = UniformModel(g, 50.0, 2.0, 0.9);
  model.SetMu(0, 3, 66.0);
  const SpeedPropagator propagator(model, {});
  const auto result = propagator.Propagate(0, {0}, {10.0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->speeds[3], 66.0);
  EXPECT_EQ(result->hops[3], -1);
  EXPECT_LT(result->speeds[1], 50.0);  // reached and pulled down
}

TEST(GspTest, StrongerCorrelationPullsHarder) {
  const graph::Graph g = *graph::PathNetwork(2);
  const rtf::RtfModel weak_model = UniformModel(g, 50.0, 5.0, 0.3);
  const rtf::RtfModel strong_model = UniformModel(g, 50.0, 5.0, 0.95);
  const SpeedPropagator weak(weak_model, {});
  const SpeedPropagator strong(strong_model, {});
  const auto weak_result = weak.Propagate(0, {0}, {20.0});
  const auto strong_result = strong.Propagate(0, {0}, {20.0});
  ASSERT_TRUE(weak_result.ok());
  ASSERT_TRUE(strong_result.ok());
  EXPECT_LT(strong_result->speeds[1], weak_result->speeds[1]);
}

TEST(GspTest, MuOffsetsRespectedInPropagation) {
  // Roads with different mu: probing road 0 exactly at its mean must leave
  // neighbours at their own means (residual is zero).
  const graph::Graph g = *graph::PathNetwork(3);
  rtf::RtfModel model = UniformModel(g, 0.0, 2.0, 0.8);
  model.SetMu(0, 0, 40.0);
  model.SetMu(0, 1, 55.0);
  model.SetMu(0, 2, 30.0);
  GspOptions options;
  options.epsilon = 1e-10;
  const SpeedPropagator propagator(model, options);
  const auto result = propagator.Propagate(0, {0}, {40.0});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->speeds[1], 55.0, 1e-6);
  EXPECT_NEAR(result->speeds[2], 30.0, 1e-6);
}

TEST(GspTest, HopsReportedCorrectly) {
  const graph::Graph g = *graph::PathNetwork(5);
  const rtf::RtfModel model = UniformModel(g, 50.0, 2.0, 0.8);
  const SpeedPropagator propagator(model, {});
  const auto result = propagator.Propagate(0, {2}, {50.0});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hops, (std::vector<int>{2, 1, 0, 1, 2}));
}

TEST(GspTest, Validation) {
  const graph::Graph g = *graph::PathNetwork(3);
  const rtf::RtfModel model = UniformModel(g, 50.0, 2.0, 0.8);
  const SpeedPropagator propagator(model, {});
  EXPECT_FALSE(propagator.Propagate(5, {0}, {1.0}).ok());
  EXPECT_FALSE(propagator.Propagate(0, {0, 1}, {1.0}).ok());
  EXPECT_FALSE(propagator.Propagate(0, {9}, {1.0}).ok());
  GspOptions bad;
  bad.epsilon = 0.0;
  const SpeedPropagator bad_propagator(model, bad);
  EXPECT_FALSE(bad_propagator.Propagate(0, {0}, {1.0}).ok());
}

TEST(GspTest, EstimationQualityBeatsPeriodicBaseline) {
  // End-to-end on simulated traffic: GSP with 20% of roads probed must
  // beat the pure periodic estimate on the remaining roads.
  util::Rng rng(11);
  graph::RoadNetworkOptions net;
  net.num_roads = 80;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  traffic::TrafficModelOptions traffic_options;
  traffic_options.num_days = 12;
  const traffic::TrafficSimulator sim(g, traffic_options, 5);
  const traffic::HistoryStore history = sim.GenerateHistory();
  rtf::MomentEstimatorOptions moment_options;
  moment_options.slot_window = 1;
  const rtf::RtfModel model = *rtf::EstimateByMoments(g, history,
                                                      moment_options);
  const traffic::DayMatrix truth = sim.GenerateEvaluationDay();
  const int slot = 100;
  std::vector<graph::RoadId> sampled;
  std::vector<double> probed;
  for (graph::RoadId r = 0; r < g.num_roads(); r += 5) {
    sampled.push_back(r);
    probed.push_back(truth.At(slot, r));
  }
  const SpeedPropagator propagator(model, {});
  const auto result = propagator.Propagate(slot, sampled, probed);
  ASSERT_TRUE(result.ok());
  double gsp_err = 0.0;
  double per_err = 0.0;
  int count = 0;
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    if (r % 5 == 0) continue;
    gsp_err += std::fabs(result->speeds[static_cast<size_t>(r)] -
                         truth.At(slot, r));
    per_err += std::fabs(model.Mu(slot, r) - truth.At(slot, r));
    ++count;
  }
  EXPECT_LT(gsp_err / count, per_err / count);
}


TEST(GspTest, LargeHopLimitMatchesUnlimitedBitwise) {
  const graph::Graph g = *graph::PathNetwork(6);
  const rtf::RtfModel model = UniformModel(g, 50.0, 5.0, 0.9);
  GspOptions unlimited;
  unlimited.epsilon = 1e-8;
  GspOptions capped = unlimited;
  capped.hop_limit = 100;  // deeper than the graph: no road is frozen
  const SpeedPropagator a(model, unlimited);
  const SpeedPropagator b(model, capped);
  const auto ra = a.Propagate(0, {0}, {20.0});
  const auto rb = b.Propagate(0, {0}, {20.0});
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->speeds.size(), rb->speeds.size());
  for (size_t i = 0; i < ra->speeds.size(); ++i) {
    EXPECT_EQ(ra->speeds[i], rb->speeds[i]) << "road " << i;
  }
  EXPECT_EQ(ra->sweeps, rb->sweeps);
}

TEST(GspTest, HopLimitFreezesRoadsBeyondTheHorizon) {
  const graph::Graph g = *graph::PathNetwork(8);
  const rtf::RtfModel model = UniformModel(g, 50.0, 5.0, 0.9);
  GspOptions options;
  options.epsilon = 1e-8;
  options.hop_limit = 2;
  const SpeedPropagator propagator(model, options);
  const auto result = propagator.Propagate(0, {0}, {20.0});
  ASSERT_TRUE(result.ok());
  // Roads within H=2 hops relax toward the probe; everything deeper stays
  // frozen at its periodic mean, exactly.
  EXPECT_LT(result->speeds[1], 50.0);
  EXPECT_LT(result->speeds[2], 50.0);
  for (graph::RoadId r = 3; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(result->speeds[r], 50.0) << "road " << r;
  }
}

TEST(GspTest, HopLimitLeavesRoadsBeyondItUnreachedAtMu) {
  util::Rng rng(5);
  graph::RoadNetworkOptions net;
  net.num_roads = 120;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    model.SetMu(0, r, rng.UniformDouble(30.0, 70.0));
    model.SetSigma(0, r, rng.UniformDouble(1.0, 6.0));
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, rng.UniformDouble(0.4, 0.95));
  }
  GspOptions options;
  options.hop_limit = 2;
  const SpeedPropagator propagator(model, options);
  const std::vector<graph::RoadId> sampled{7, 60};
  const auto result = propagator.Propagate(0, sampled, {25.0, 80.0});
  ASSERT_TRUE(result.ok());
  // hops[r] == h exactly for the roads within h hops but not h - 1.
  std::vector<int> expected(static_cast<size_t>(g.num_roads()), -1);
  for (int h = 2; h >= 0; --h) {
    for (graph::RoadId r : graph::RoadsWithinHops(g, sampled, h)) {
      expected[static_cast<size_t>(r)] = h;
    }
  }
  EXPECT_EQ(result->hops, expected);
  int beyond = 0;
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    if (result->hops[static_cast<size_t>(r)] != -1) continue;
    ++beyond;
    const double mu = model.Mu(0, r);
    const double got = result->speeds[static_cast<size_t>(r)];
    EXPECT_EQ(std::memcmp(&got, &mu, sizeof(double)), 0) << "road " << r;
  }
  EXPECT_GT(beyond, 0);
}

TEST(GspTest, ConcurrentCallsOnOneInstanceReachTheSameFixedPoint) {
  // SpeedPropagator is reentrant (per-thread workspaces): six clients
  // sharing one instance must each reproduce the sequential field bit for
  // bit.
  util::Rng rng(11);
  graph::RoadNetworkOptions net;
  net.num_roads = 120;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    model.SetMu(0, r, rng.UniformDouble(30.0, 70.0));
    model.SetSigma(0, r, rng.UniformDouble(1.0, 6.0));
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, rng.UniformDouble(0.4, 0.95));
  }
  std::vector<graph::RoadId> sampled;
  std::vector<double> probed;
  for (graph::RoadId r = 0; r < g.num_roads(); r += 8) {
    sampled.push_back(r);
    probed.push_back(rng.UniformDouble(20.0, 80.0));
  }
  GspOptions options;
  options.epsilon = 1e-8;
  options.max_sweeps = 2000;
  const SpeedPropagator propagator(model, options);
  const auto expected = propagator.Propagate(0, sampled, probed);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 6;
  std::vector<std::vector<double>> results(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int repeat = 0; repeat < 3; ++repeat) {
        const auto result = propagator.Propagate(0, sampled, probed);
        if (!result.ok()) {
          failures.fetch_add(1);
          return;
        }
        results[static_cast<size_t>(c)] = result->speeds;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const std::vector<double>& speeds : results) {
    EXPECT_EQ(speeds, expected->speeds);
  }
}

}  // namespace
}  // namespace crowdrtse::gsp
