#include "gsp/uncertainty.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "graph/generators.h"
#include "util/rng.h"

namespace crowdrtse::gsp {
namespace {

rtf::RtfModel RandomModel(const graph::Graph& g, uint64_t seed) {
  util::Rng rng(seed);
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    model.SetMu(0, r, rng.UniformDouble(30.0, 70.0));
    model.SetSigma(0, r, rng.UniformDouble(1.0, 6.0));
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, rng.UniformDouble(0.3, 0.95));
  }
  return model;
}

TEST(UncertaintyTest, SampledRoadsHaveZeroVariance) {
  const graph::Graph g = *graph::PathNetwork(6);
  const rtf::RtfModel model = RandomModel(g, 1);
  const auto exact = ExactPosteriorVariances(model, 0, {2, 4});
  const auto local = LocalConditionalVariances(model, 0, {2, 4});
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(local.ok());
  EXPECT_DOUBLE_EQ((*exact)[2], 0.0);
  EXPECT_DOUBLE_EQ((*exact)[4], 0.0);
  EXPECT_DOUBLE_EQ((*local)[2], 0.0);
  EXPECT_DOUBLE_EQ((*local)[4], 0.0);
  for (graph::RoadId r : {0, 1, 3, 5}) {
    EXPECT_GT((*exact)[static_cast<size_t>(r)], 0.0);
  }
}

TEST(UncertaintyTest, LocalIsLowerBoundOnExact) {
  util::Rng rng(3);
  graph::RoadNetworkOptions net;
  net.num_roads = 50;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  const rtf::RtfModel model = RandomModel(g, 5);
  const auto exact = ExactPosteriorVariances(model, 0, {0, 25});
  const auto local = LocalConditionalVariances(model, 0, {0, 25});
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(local.ok());
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    EXPECT_LE((*local)[static_cast<size_t>(r)],
              (*exact)[static_cast<size_t>(r)] + 1e-12)
        << "road " << r;
  }
}

TEST(UncertaintyTest, MoreProbesNeverIncreaseVariance) {
  util::Rng rng(7);
  graph::RoadNetworkOptions net;
  net.num_roads = 40;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  const rtf::RtfModel model = RandomModel(g, 9);
  const auto sparse = ExactPosteriorVariances(model, 0, {0});
  const auto dense = ExactPosteriorVariances(model, 0, {0, 10, 20, 30});
  ASSERT_TRUE(sparse.ok());
  ASSERT_TRUE(dense.ok());
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    EXPECT_LE((*dense)[static_cast<size_t>(r)],
              (*sparse)[static_cast<size_t>(r)] + 1e-12);
  }
}

TEST(UncertaintyTest, VarianceGrowsWithDistanceFromProbe) {
  // On a uniform path probed at one end, confidence decays along the path.
  const graph::Graph g = *graph::PathNetwork(8);
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < 8; ++r) {
    model.SetMu(0, r, 50.0);
    model.SetSigma(0, r, 4.0);
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, 0.9);
  }
  const auto exact = ExactPosteriorVariances(model, 0, {0});
  ASSERT_TRUE(exact.ok());
  for (graph::RoadId r = 1; r < 7; ++r) {
    EXPECT_LT((*exact)[static_cast<size_t>(r)],
              (*exact)[static_cast<size_t>(r) + 1]);
  }
}

TEST(UncertaintyTest, NoSamplesGivesPriorMarginals) {
  const graph::Graph g = *graph::PathNetwork(4);
  const rtf::RtfModel model = RandomModel(g, 11);
  const auto exact = ExactPosteriorVariances(model, 0, {});
  ASSERT_TRUE(exact.ok());
  for (double v : *exact) EXPECT_GT(v, 0.0);
}

TEST(UncertaintyTest, EverythingSampledAllZero) {
  const graph::Graph g = *graph::PathNetwork(3);
  const rtf::RtfModel model = RandomModel(g, 13);
  const auto exact = ExactPosteriorVariances(model, 0, {0, 1, 2});
  ASSERT_TRUE(exact.ok());
  for (double v : *exact) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(UncertaintyTest, Validation) {
  const graph::Graph g = *graph::PathNetwork(3);
  const rtf::RtfModel model = RandomModel(g, 15);
  EXPECT_FALSE(ExactPosteriorVariances(model, 9, {}).ok());
  EXPECT_FALSE(ExactPosteriorVariances(model, 0, {7}).ok());
  EXPECT_FALSE(LocalConditionalVariances(model, -1, {}).ok());
}

/// Bitwise double equality.
bool Same(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(UncertaintyTest, DegradedAwareMatchesLocalIndexedByRoad) {
  util::Rng rng(17);
  graph::RoadNetworkOptions net;
  net.num_roads = 40;
  const graph::Graph g = *graph::RoadNetwork(net, rng);
  const rtf::RtfModel model = RandomModel(g, 19);
  const std::vector<graph::RoadId> sampled = {12, 3, 30, 3};
  // Road 30 is both sampled and degraded: the degraded prior wins.
  const std::vector<graph::RoadId> degraded = {30, 8};
  // Unsorted, with duplicates, covering sampled, degraded and free roads.
  const std::vector<graph::RoadId> roads = {5,  30, 3, 8, 39, 5, 0,
                                            12, 8,  1, 3, 21, 30};
  const auto local = LocalConditionalVariances(model, 0, sampled);
  ASSERT_TRUE(local.ok());
  for (double inflation : {1.0, 4.0}) {
    const auto got =
        DegradedAwareVariances(model, 0, roads, sampled, degraded, inflation);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), roads.size());
    for (size_t i = 0; i < roads.size(); ++i) {
      const graph::RoadId r = roads[i];
      double want = (*local)[static_cast<size_t>(r)];
      if (std::find(degraded.begin(), degraded.end(), r) != degraded.end()) {
        const double sigma = model.Sigma(0, r);
        want = inflation * sigma * sigma;
      }
      EXPECT_TRUE(Same((*got)[i], want))
          << "road " << r << " at " << i << ": " << (*got)[i] << " vs "
          << want;
    }
    EXPECT_TRUE(Same((*got)[2], 0.0));  // probed road 3
  }
  const auto none = DegradedAwareVariances(model, 0, {}, sampled, degraded, 2);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(UncertaintyTest, DegradedAwareValidationOrder) {
  const graph::Graph g = *graph::PathNetwork(4);
  const rtf::RtfModel model = RandomModel(g, 21);
  const auto message = [&](const std::vector<graph::RoadId>& roads,
                           const std::vector<graph::RoadId>& sampled,
                           const std::vector<graph::RoadId>& degraded,
                           double inflation, int slot = 0) {
    const auto result =
        DegradedAwareVariances(model, slot, roads, sampled, degraded,
                               inflation);
    EXPECT_FALSE(result.ok());
    return result.ok() ? std::string() : result.status().message();
  };
  // inflation, then slot, then degraded ids, then sampled ids, then the
  // reported roads.
  EXPECT_NE(message({9}, {9}, {9}, 0.5, 7).find("inflation"),
            std::string::npos);
  EXPECT_NE(message({9}, {9}, {9}, 1.0, 7).find("slot out of range"),
            std::string::npos);
  EXPECT_NE(message({9}, {8}, {-1}, 1.0).find("sampled road out of range: -1"),
            std::string::npos);
  EXPECT_NE(message({9}, {8}, {1}, 1.0).find("sampled road out of range: 8"),
            std::string::npos);
  EXPECT_NE(message({9}, {0}, {1}, 1.0).find("reported road out of range: 9"),
            std::string::npos);
  EXPECT_NE(message({-2}, {}, {}, 1.0).find("reported road out of range"),
            std::string::npos);
}

}  // namespace
}  // namespace crowdrtse::gsp
