#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "rtf/correlation_table.h"
#include "util/rng.h"

namespace crowdrtse::rtf {
namespace {

TEST(CorrelationTableIoTest, RoundTrip) {
  const graph::Graph g = *graph::GridNetwork(4, 4);
  util::Rng rng(7);
  std::vector<double> rho(static_cast<size_t>(g.num_edges()));
  for (double& r : rho) r = rng.UniformDouble(0.3, 0.95);
  const auto table = CorrelationTable::FromEdgeCorrelations(g, rho);
  ASSERT_TRUE(table.ok());
  const std::string data = table->Serialize();
  const auto loaded = CorrelationTable::Deserialize(data);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_roads(), table->num_roads());
  for (graph::RoadId i = 0; i < g.num_roads(); ++i) {
    for (graph::RoadId j = 0; j < g.num_roads(); ++j) {
      EXPECT_DOUBLE_EQ(loaded->Corr(i, j), table->Corr(i, j));
    }
  }
}

TEST(CorrelationTableIoTest, FileRoundTrip) {
  const graph::Graph g = *graph::PathNetwork(5);
  const auto table = CorrelationTable::FromEdgeCorrelations(
      g, {0.9, 0.8, 0.7, 0.6});
  ASSERT_TRUE(table.ok());
  const std::string path = ::testing::TempDir() + "/gamma_test.bin";
  ASSERT_TRUE(table->SaveToFile(path).ok());
  const auto loaded = CorrelationTable::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->Corr(0, 4), table->Corr(0, 4));
  std::remove(path.c_str());
}

TEST(CorrelationTableIoTest, RejectsGarbage) {
  EXPECT_FALSE(CorrelationTable::Deserialize("junk").ok());
  const graph::Graph g = *graph::PathNetwork(3);
  const auto table =
      CorrelationTable::FromEdgeCorrelations(g, {0.5, 0.5});
  ASSERT_TRUE(table.ok());
  const std::string data = table->Serialize();
  EXPECT_FALSE(
      CorrelationTable::Deserialize(data.substr(0, data.size() - 4)).ok());
  EXPECT_FALSE(CorrelationTable::LoadFromFile("/no/such/gamma.bin").ok());
}

}  // namespace
}  // namespace crowdrtse::rtf
