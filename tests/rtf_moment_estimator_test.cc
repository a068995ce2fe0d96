#include "rtf/moment_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "graph/generators.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace crowdrtse::rtf {
namespace {

/// Builds a tiny deterministic history over a 2-road path:
/// road 0 alternates 40 +/- 2, road 1 = road 0 + 10 (perfectly correlated).
traffic::HistoryStore CorrelatedHistory(int num_days) {
  traffic::HistoryStore store(2, num_days, /*num_slots=*/4);
  for (int day = 0; day < num_days; ++day) {
    for (int slot = 0; slot < 4; ++slot) {
      const double base = 40.0 + (day % 2 == 0 ? 2.0 : -2.0);
      store.At(day, slot, 0) = base;
      store.At(day, slot, 1) = base + 10.0;
    }
  }
  return store;
}

TEST(MomentEstimatorTest, RecoversMeansAndPerfectCorrelation) {
  const graph::Graph g = *graph::PathNetwork(2);
  const traffic::HistoryStore history = CorrelatedHistory(10);
  MomentEstimatorOptions options;
  options.slot_window = 0;
  const auto model = EstimateByMoments(g, history, options);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->Mu(0, 0), 40.0, 1e-9);
  EXPECT_NEAR(model->Mu(0, 1), 50.0, 1e-9);
  // Alternating +/-2 -> sample stddev ~2.1 for 10 samples.
  EXPECT_NEAR(model->Sigma(0, 0), 2.0 * std::sqrt(10.0 / 9.0), 1e-9);
  // Perfect correlation clamps to the max allowed value.
  EXPECT_DOUBLE_EQ(model->Rho(0, 0), RtfModel::kMaxRho);
}

TEST(MomentEstimatorTest, AntiCorrelationClampsToMin) {
  const graph::Graph g = *graph::PathNetwork(2);
  traffic::HistoryStore store(2, 10, 2);
  for (int day = 0; day < 10; ++day) {
    for (int slot = 0; slot < 2; ++slot) {
      const double delta = (day % 2 == 0 ? 3.0 : -3.0);
      store.At(day, slot, 0) = 40.0 + delta;
      store.At(day, slot, 1) = 40.0 - delta;  // anti-correlated
    }
  }
  const auto model = EstimateByMoments(g, store, MomentEstimatorOptions{});
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->Rho(0, 0), RtfModel::kMinRho);
}

TEST(MomentEstimatorTest, SigmaFloorApplied) {
  const graph::Graph g = *graph::PathNetwork(2);
  traffic::HistoryStore store(2, 5, 2);  // all zeros -> zero variance
  for (int day = 0; day < 5; ++day) {
    for (int slot = 0; slot < 2; ++slot) {
      store.At(day, slot, 0) = 30.0;
      store.At(day, slot, 1) = 30.0;
    }
  }
  MomentEstimatorOptions options;
  options.min_sigma = 0.75;
  const auto model = EstimateByMoments(g, store, options);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->Sigma(0, 0), 0.75);
}

TEST(MomentEstimatorTest, SlotWindowPoolsNeighbours) {
  const graph::Graph g = *graph::PathNetwork(2);
  traffic::HistoryStore store(2, 4, 3);
  // Slot means differ: slot 0 -> 10, slot 1 -> 20, slot 2 -> 30.
  for (int day = 0; day < 4; ++day) {
    for (int slot = 0; slot < 3; ++slot) {
      store.At(day, slot, 0) = 10.0 * (slot + 1);
      store.At(day, slot, 1) = 10.0 * (slot + 1);
    }
  }
  MomentEstimatorOptions narrow;
  narrow.slot_window = 0;
  const auto m0 = EstimateByMoments(g, store, narrow);
  ASSERT_TRUE(m0.ok());
  EXPECT_NEAR(m0->Mu(1, 0), 20.0, 1e-9);
  MomentEstimatorOptions wide;
  wide.slot_window = 1;
  const auto m1 = EstimateByMoments(g, store, wide);
  ASSERT_TRUE(m1.ok());
  // Pooled over slots 0..2 -> mean 20, but slot 0 pools {2, 0, 1}(wrap).
  EXPECT_NEAR(m1->Mu(1, 0), 20.0, 1e-9);
  EXPECT_GT(m1->Sigma(1, 0), m0->Sigma(1, 0));  // pooling adds profile spread
}

TEST(MomentEstimatorTest, ValidationErrors) {
  const graph::Graph g = *graph::PathNetwork(2);
  traffic::HistoryStore wrong_roads(3, 5, 2);
  EXPECT_FALSE(EstimateByMoments(g, wrong_roads, {}).ok());
  traffic::HistoryStore one_day(2, 1, 2);
  EXPECT_FALSE(EstimateByMoments(g, one_day, {}).ok());
  traffic::HistoryStore ok_history(2, 5, 2);
  MomentEstimatorOptions bad;
  bad.slot_window = -1;
  EXPECT_FALSE(EstimateByMoments(g, ok_history, bad).ok());
}

TEST(MomentEstimatorTest, SimulatedTrafficRecoversProfile) {
  util::Rng rng(3);
  graph::RoadNetworkOptions net_options;
  net_options.num_roads = 40;
  const graph::Graph g = *graph::RoadNetwork(net_options, rng);
  traffic::TrafficModelOptions traffic_options;
  traffic_options.num_days = 20;
  traffic_options.incident_rate_per_road_day = 0.0;
  const traffic::TrafficSimulator sim(g, traffic_options, 17);
  const traffic::HistoryStore history = sim.GenerateHistory();
  MomentEstimatorOptions options;
  options.slot_window = 0;
  const auto model = EstimateByMoments(g, history, options);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Validate().ok());
  // mu should track the simulator's periodic profile within a few noise
  // scales, for a sample of roads and slots.
  for (graph::RoadId r = 0; r < 10; ++r) {
    for (int slot : {30, 99, 150, 216}) {
      EXPECT_NEAR(model->Mu(slot, r), sim.PeriodicSpeed(r, slot),
                  4.0 * sim.profiles()[static_cast<size_t>(r)].noise_scale)
          << "road " << r << " slot " << slot;
    }
  }
  // Edge correlations must skew positive (spatially diffused noise).
  double rho_sum = 0.0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    rho_sum += model->Rho(100, e);
  }
  EXPECT_GT(rho_sum / g.num_edges(), 0.25);
}

/// The estimator as a per-road, per-edge series loop: each road's pooled
/// (window, day) series through util::RunningStats and each edge's through
/// util::RunningCovariance. The row-streaming estimator must reproduce it
/// bit for bit.
RtfModel ReferenceEstimate(const graph::Graph& graph,
                           const traffic::HistoryStore& history,
                           const MomentEstimatorOptions& options) {
  const int num_slots = history.num_slots();
  RtfModel model(graph, num_slots);
  for (int slot = 0; slot < num_slots; ++slot) {
    for (graph::RoadId r = 0; r < graph.num_roads(); ++r) {
      util::RunningStats stats;
      for (int w = -options.slot_window; w <= options.slot_window; ++w) {
        const int s = (slot + w % num_slots + num_slots) % num_slots;
        for (int day = 0; day < history.num_days(); ++day) {
          stats.Add(history.At(day, s, r));
        }
      }
      model.SetMu(slot, r, stats.Mean());
      model.SetSigma(slot, r, std::max(stats.StdDev(), options.min_sigma));
    }
    for (graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
      const auto [i, j] = graph.EdgeEndpoints(e);
      util::RunningCovariance cov;
      for (int w = -options.slot_window; w <= options.slot_window; ++w) {
        const int s = (slot + w % num_slots + num_slots) % num_slots;
        for (int day = 0; day < history.num_days(); ++day) {
          cov.Add(history.At(day, s, i), history.At(day, s, j));
        }
      }
      model.SetRho(slot, e,
                   std::clamp(cov.Correlation(), RtfModel::kMinRho,
                              RtfModel::kMaxRho));
    }
  }
  model.ClampParameters();
  return model;
}

/// Random speeds with a shared per-(day, slot) swing, so most edges
/// correlate; road `flat` never varies (sigma floor) and the endpoints of
/// edge 0 mirror each other (rho clamp).
traffic::HistoryStore RandomHistory(const graph::Graph& graph, int num_days,
                                    int num_slots, graph::RoadId flat,
                                    util::Rng& rng) {
  const int n = graph.num_roads();
  traffic::HistoryStore store(n, num_days, num_slots);
  const auto [mirror_a, mirror_b] = graph.EdgeEndpoints(0);
  for (int day = 0; day < num_days; ++day) {
    for (int slot = 0; slot < num_slots; ++slot) {
      const double swing = rng.Normal(0.0, 8.0);
      for (graph::RoadId r = 0; r < n; ++r) {
        store.At(day, slot, r) =
            r == flat ? 42.0
                      : 30.0 + r % 7 + 3.0 * slot + swing + rng.Normal();
      }
      store.At(day, slot, mirror_b) = 100.0 - store.At(day, slot, mirror_a);
    }
  }
  return store;
}

void ExpectSameBits(const RtfModel& got, const RtfModel& want,
                    const std::string& label) {
  ASSERT_EQ(got.num_slots(), want.num_slots()) << label;
  const size_t road_bytes = static_cast<size_t>(got.num_roads()) * 8;
  const size_t edge_bytes = static_cast<size_t>(got.num_edges()) * 8;
  for (int slot = 0; slot < got.num_slots(); ++slot) {
    EXPECT_EQ(std::memcmp(got.MuSlot(slot), want.MuSlot(slot), road_bytes), 0)
        << label << ": mu differs in slot " << slot;
    EXPECT_EQ(
        std::memcmp(got.SigmaSlot(slot), want.SigmaSlot(slot), road_bytes), 0)
        << label << ": sigma differs in slot " << slot;
    EXPECT_EQ(std::memcmp(got.RhoSlot(slot), want.RhoSlot(slot), edge_bytes),
              0)
        << label << ": rho differs in slot " << slot;
  }
}

TEST(MomentEstimatorTest, MatchesPerRoadReferenceBitForBit) {
  struct Case {
    int num_roads;
    int num_days;
    int num_slots;
    int slot_window;
  };
  const Case cases[] = {
      {30, 5, 6, 0},  {45, 4, 6, 1}, {60, 3, 6, 2}, {25, 6, 7, 3},
      {35, 4, 3, 2},  // the window wraps onto repeated slots
      {40, 2, 5, 1},  // the fewest days the estimator accepts
  };
  uint64_t seed = 11;
  for (const Case& c : cases) {
    const std::string label =
        "roads " + std::to_string(c.num_roads) + " days " +
        std::to_string(c.num_days) + " slots " + std::to_string(c.num_slots) +
        " window " + std::to_string(c.slot_window);
    util::Rng rng(seed++);
    graph::RoadNetworkOptions net_options;
    net_options.num_roads = c.num_roads;
    const graph::Graph g = *graph::RoadNetwork(net_options, rng);
    const auto [mirror_a, mirror_b] = g.EdgeEndpoints(0);
    graph::RoadId flat = 0;
    while (flat == mirror_a || flat == mirror_b) ++flat;
    const traffic::HistoryStore history =
        RandomHistory(g, c.num_days, c.num_slots, flat, rng);
    MomentEstimatorOptions options;
    options.slot_window = c.slot_window;
    const RtfModel want = ReferenceEstimate(g, history, options);
    // The floor and the clamp are both exercised.
    ASSERT_EQ(want.Sigma(0, flat), options.min_sigma) << label;
    ASSERT_EQ(want.Rho(0, 0), RtfModel::kMinRho) << label;
    const util::Result<RtfModel> got = EstimateByMoments(g, history, options);
    ASSERT_TRUE(got.ok()) << label;
    ExpectSameBits(*got, want, label);
  }
}

}  // namespace
}  // namespace crowdrtse::rtf
