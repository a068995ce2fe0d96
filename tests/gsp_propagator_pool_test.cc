#include "gsp/propagator_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

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
    model.SetRho(0, e, rng.UniformDouble(0.4, 0.95));
  }
  return model;
}

class PropagatorPoolTest : public ::testing::Test {
 protected:
  PropagatorPoolTest() {
    util::Rng rng(11);
    graph::RoadNetworkOptions net;
    net.num_roads = 120;
    graph_ = *graph::RoadNetwork(net, rng);
    model_.emplace(RandomModel(graph_, 4));
    for (graph::RoadId r = 0; r < graph_.num_roads(); r += 8) {
      sampled_.push_back(r);
      probed_.push_back(rng.UniformDouble(20.0, 80.0));
    }
  }

  graph::Graph graph_;
  std::optional<rtf::RtfModel> model_;
  std::vector<graph::RoadId> sampled_;
  std::vector<double> probed_;
};

TEST_F(PropagatorPoolTest, SizeClampsToAtLeastOne) {
  PropagatorPool pool(*model_, GspOptions{}, 0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_EQ(pool.available(), 1);
}

TEST_F(PropagatorPoolTest, LeaseTakesAndReturnsInstances) {
  PropagatorPool pool(*model_, GspOptions{}, 2);
  EXPECT_EQ(pool.available(), 2);
  {
    PropagatorPool::Lease a = pool.Acquire();
    EXPECT_EQ(pool.available(), 1);
    PropagatorPool::Lease b = pool.Acquire();
    EXPECT_EQ(pool.available(), 0);
  }
  EXPECT_EQ(pool.available(), 2);
}

TEST_F(PropagatorPoolTest, MovedLeaseReleasesOnce) {
  PropagatorPool pool(*model_, GspOptions{}, 1);
  {
    PropagatorPool::Lease a = pool.Acquire();
    PropagatorPool::Lease b = std::move(a);
    EXPECT_EQ(pool.available(), 0);
  }
  EXPECT_EQ(pool.available(), 1);
}

TEST_F(PropagatorPoolTest, LeasedPropagatorProducesRegularResults) {
  GspOptions options;
  options.epsilon = 1e-8;
  options.max_sweeps = 2000;
  const SpeedPropagator reference(*model_, options);
  const auto expected = reference.Propagate(0, sampled_, probed_);
  ASSERT_TRUE(expected.ok());

  PropagatorPool pool(*model_, options, 3);
  PropagatorPool::Lease lease = pool.Acquire();
  const auto actual = lease->Propagate(0, sampled_, probed_);
  ASSERT_TRUE(actual.ok());
  for (size_t i = 0; i < expected->speeds.size(); ++i) {
    EXPECT_NEAR(actual->speeds[i], expected->speeds[i], 1e-9);
  }
}

TEST_F(PropagatorPoolTest, ConcurrentLeasesReachTheSameFixedPoint) {
  GspOptions options;
  options.epsilon = 1e-8;
  options.max_sweeps = 2000;
  const SpeedPropagator reference(*model_, options);
  const auto expected = reference.Propagate(0, sampled_, probed_);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 6;
  PropagatorPool pool(*model_, options, 2);  // fewer instances than clients
  std::vector<std::vector<double>> results(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int repeat = 0; repeat < 3; ++repeat) {
        PropagatorPool::Lease lease = pool.Acquire();
        const auto result = lease->Propagate(0, sampled_, probed_);
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
  EXPECT_EQ(pool.available(), 2);
  for (const std::vector<double>& speeds : results) {
    ASSERT_EQ(speeds.size(), expected->speeds.size());
    for (size_t i = 0; i < speeds.size(); ++i) {
      EXPECT_EQ(speeds[i], expected->speeds[i]);
    }
  }
}

}  // namespace
}  // namespace crowdrtse::gsp
