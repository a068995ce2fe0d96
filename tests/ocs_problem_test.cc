#include "ocs/ocs_problem.h"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.h"

namespace crowdrtse::ocs {
namespace {

/// Path 0-1-2-3 with edge rhos {0.8, 0.5, 0.9}.
class OcsProblemTest : public ::testing::Test {
 protected:
  OcsProblemTest()
      : graph_(*graph::PathNetwork(4)),
        table_(*rtf::CorrelationTable::FromEdgeCorrelations(
            graph_, {0.8, 0.5, 0.9})),
        costs_(crowd::CostModel::Constant(4, 1)) {}

  util::Result<OcsProblem> Make(std::vector<graph::RoadId> queried,
                                std::vector<double> weights,
                                std::vector<graph::RoadId> candidates,
                                int budget, double theta) {
    return OcsProblem::Create(table_, std::move(queried), std::move(weights),
                              std::move(candidates), costs_, budget, theta);
  }

  graph::Graph graph_;
  rtf::CorrelationTable table_;
  crowd::CostModel costs_;
};

TEST_F(OcsProblemTest, ObjectiveIsSigmaWeightedMaxCorr) {
  const auto problem = Make({0, 3}, {2.0, 1.0}, {1, 2}, 2, 1.0);
  ASSERT_TRUE(problem.ok());
  // corr(0,1)=0.8, corr(0,2)=0.4; corr(3,1)=0.45, corr(3,2)=0.9.
  EXPECT_NEAR(problem->Objective({1}), 2.0 * 0.8 + 1.0 * 0.45, 1e-12);
  EXPECT_NEAR(problem->Objective({2}), 2.0 * 0.4 + 1.0 * 0.9, 1e-12);
  EXPECT_NEAR(problem->Objective({1, 2}), 2.0 * 0.8 + 1.0 * 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(problem->Objective({}), 0.0);
}

TEST_F(OcsProblemTest, FeasibilityChecksBudget) {
  const auto problem = Make({0}, {1.0}, {1, 2, 3}, 2, 1.0);
  ASSERT_TRUE(problem.ok());
  EXPECT_TRUE(problem->IsFeasible({1, 2}));
  EXPECT_FALSE(problem->IsFeasible({1, 2, 3}));  // cost 3 > budget 2
}

TEST_F(OcsProblemTest, FeasibilityChecksMembershipAndDuplicates) {
  const auto problem = Make({0}, {1.0}, {1, 2}, 5, 1.0);
  ASSERT_TRUE(problem.ok());
  EXPECT_FALSE(problem->IsFeasible({3}));      // not a candidate
  EXPECT_FALSE(problem->IsFeasible({1, 1}));   // duplicate
  EXPECT_TRUE(problem->IsFeasible({}));
}

TEST_F(OcsProblemTest, RedundancyConstraint) {
  // corr(1,2) = 0.5. With theta 0.4 the pair is redundant.
  const auto tight = Make({0}, {1.0}, {1, 2}, 5, 0.4);
  ASSERT_TRUE(tight.ok());
  EXPECT_FALSE(tight->IsFeasible({1, 2}));
  EXPECT_TRUE(tight->RedundancyOk(2, {}));
  EXPECT_FALSE(tight->RedundancyOk(2, std::vector<graph::RoadId>{1}));
  const auto loose = Make({0}, {1.0}, {1, 2}, 5, 0.6);
  ASSERT_TRUE(loose.ok());
  EXPECT_TRUE(loose->IsFeasible({1, 2}));
}

TEST_F(OcsProblemTest, RedundancyNeverAllowsReselection) {
  const auto problem = Make({0}, {1.0}, {1, 2}, 5, 1.0);
  ASSERT_TRUE(problem.ok());
  EXPECT_FALSE(problem->RedundancyOk(1, std::vector<graph::RoadId>{1}));
}

TEST_F(OcsProblemTest, CreateValidation) {
  EXPECT_FALSE(Make({}, {}, {1}, 2, 1.0).ok());            // no queries
  EXPECT_FALSE(Make({0}, {1.0, 2.0}, {1}, 2, 1.0).ok());   // weight mismatch
  EXPECT_FALSE(Make({0}, {1.0}, {1}, -1, 1.0).ok());       // negative budget
  EXPECT_FALSE(Make({0}, {1.0}, {1}, 2, 0.0).ok());        // theta 0
  EXPECT_FALSE(Make({0}, {1.0}, {1}, 2, 1.5).ok());        // theta > 1
  EXPECT_FALSE(Make({0}, {1.0}, {9}, 2, 1.0).ok());        // bad candidate
  EXPECT_FALSE(Make({9}, {1.0}, {1}, 2, 1.0).ok());        // bad query
  EXPECT_FALSE(Make({0}, {-1.0}, {1}, 2, 1.0).ok());       // negative weight
  EXPECT_FALSE(Make({0}, {1.0}, {1, 1}, 2, 1.0).ok());     // dup candidate
  EXPECT_FALSE(Make({0, 0}, {1.0, 1.0}, {1}, 2, 1.0).ok());  // dup query
}

TEST_F(OcsProblemTest, CreateNamesTheFirstBadRoadInInputOrder) {
  const auto message = [&](std::vector<graph::RoadId> queried,
                           std::vector<double> weights,
                           std::vector<graph::RoadId> candidates) {
    const auto problem = Make(std::move(queried), std::move(weights),
                              std::move(candidates), 2, 1.0);
    EXPECT_FALSE(problem.ok());
    return problem.ok() ? std::string() : problem.status().message();
  };
  EXPECT_EQ(message({0}, {1.0}, {2, 1, 2, 9, 1}),
            "duplicate candidate road: 2");
  EXPECT_EQ(message({0}, {1.0}, {1, 2, 1, 2}), "duplicate candidate road: 1");
  EXPECT_EQ(message({0}, {1.0}, {1, 9, 1}), "candidate road out of range: 9");
  EXPECT_EQ(message({0}, {1.0}, {3, -1, 3}),
            "candidate road out of range: -1");
  EXPECT_EQ(message({2, 1, 1, 2}, {1.0, 1.0, 1.0, 1.0}, {3}),
            "duplicate queried road: 1");
  EXPECT_EQ(message({1, 9, 1}, {1.0, 1.0, 1.0}, {3}),
            "queried road out of range: 9");
  // At one index the repeat is found before the weight.
  EXPECT_EQ(message({1, 1}, {1.0, -1.0}, {3}), "duplicate queried road: 1");
  EXPECT_EQ(message({1, 2, 1}, {1.0, -1.0, 1.0}, {3}),
            "sigma weights must be >= 0");
  // Candidates are checked before queried roads.
  EXPECT_EQ(message({1, 1}, {1.0, 1.0}, {3, 3}),
            "duplicate candidate road: 3");
}

TEST_F(OcsProblemTest, CandidateMissingFromCostModel) {
  const crowd::CostModel short_costs = crowd::CostModel::Constant(2, 1);
  const auto problem = OcsProblem::Create(table_, {0}, {1.0}, {1, 3, 1},
                                          short_costs, 2, 1.0);
  ASSERT_FALSE(problem.ok());
  EXPECT_EQ(problem.status().message(),
            "candidate road missing from cost model: 3");
}

TEST_F(OcsProblemTest, IncrementalObjectiveMatchesBatch) {
  const auto problem = Make({0, 3}, {2.0, 1.0}, {1, 2}, 5, 1.0);
  ASSERT_TRUE(problem.ok());
  // Candidates are named by index: 0 is road 1, 1 is road 2.
  IncrementalObjective inc(*problem);
  EXPECT_NEAR(inc.Gain(0), problem->Objective({1}), 1e-12);
  inc.Add(0);
  EXPECT_NEAR(inc.objective(), problem->Objective({1}), 1e-12);
  EXPECT_NEAR(inc.Gain(1), problem->Objective({1, 2}) - problem->Objective({1}),
              1e-12);
  inc.Add(1);
  EXPECT_NEAR(inc.objective(), problem->Objective({1, 2}), 1e-12);
  EXPECT_EQ(inc.total_cost(), 2);
  EXPECT_EQ(inc.selection(), (std::vector<graph::RoadId>{1, 2}));
}

TEST_F(OcsProblemTest, GainIsMonotoneDiminishing) {
  // Submodularity: gain of a candidate never increases as the selection
  // grows.
  const auto problem = Make({0, 1, 2, 3}, {1.0, 1.0, 1.0, 1.0},
                            {0, 1, 2, 3}, 10, 1.0);
  ASSERT_TRUE(problem.ok());
  IncrementalObjective inc(*problem);  // candidate index == road id here
  const double gain_before = inc.Gain(2);
  inc.Add(1);
  const double gain_after = inc.Gain(2);
  EXPECT_LE(gain_after, gain_before + 1e-12);
}

}  // namespace
}  // namespace crowdrtse::ocs
