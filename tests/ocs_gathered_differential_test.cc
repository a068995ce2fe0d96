// Differential test: the six greedy selectors, which score candidates from
// the problem's gathered gain block, against per-call oracles that read
// Gamma_R through Corr() on every lookup (the selectors' previous form).
// Every selector must return bit-identical roads (in order), objective and
// total cost on random dense and sparse instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "ocs/greedy_selectors.h"
#include "util/rng.h"

namespace crowdrtse::ocs {
namespace {

/// The per-call incremental objective: Corr(q_i, c) on every lookup.
class OracleObjective {
 public:
  explicit OracleObjective(const OcsProblem& problem)
      : problem_(problem),
        best_corr_(problem.queried_roads().size(), 0.0) {}

  double Gain(graph::RoadId candidate) const {
    const auto& queried = problem_.queried_roads();
    const auto& weights = problem_.sigma_weights();
    double gain = 0.0;
    for (size_t i = 0; i < queried.size(); ++i) {
      const double corr = problem_.correlations().Corr(queried[i], candidate);
      if (corr > best_corr_[i]) {
        gain += weights[i] * (corr - best_corr_[i]);
      }
    }
    return gain;
  }

  void Add(graph::RoadId candidate) {
    const auto& queried = problem_.queried_roads();
    const auto& weights = problem_.sigma_weights();
    for (size_t i = 0; i < queried.size(); ++i) {
      const double corr = problem_.correlations().Corr(queried[i], candidate);
      if (corr > best_corr_[i]) {
        objective_ += weights[i] * (corr - best_corr_[i]);
        best_corr_[i] = corr;
      }
    }
    selection_.push_back(candidate);
    total_cost_ += problem_.costs().Cost(candidate);
  }

  OcsSolution Solution() const { return {selection_, objective_, total_cost_}; }
  const std::vector<graph::RoadId>& selection() const { return selection_; }

 private:
  const OcsProblem& problem_;
  std::vector<double> best_corr_;
  std::vector<graph::RoadId> selection_;
  double objective_ = 0.0;
  int total_cost_ = 0;
};

template <typename ScoreFn>
OcsSolution OracleEager(const OcsProblem& problem, ScoreFn score) {
  OracleObjective objective(problem);
  const std::vector<graph::RoadId>& pool = problem.candidate_roads();
  std::vector<bool> selected(pool.size(), false);
  int budget_left = problem.budget();
  for (;;) {
    double best_score = -1.0;
    size_t best_index = pool.size();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (selected[i]) continue;
      const int cost = problem.costs().Cost(pool[i]);
      if (cost > budget_left) continue;
      if (!problem.RedundancyOk(pool[i], objective.selection())) continue;
      const double candidate_score = score(objective.Gain(pool[i]), cost);
      if (candidate_score > best_score) {
        best_score = candidate_score;
        best_index = i;
      }
    }
    if (best_index == pool.size()) break;
    selected[best_index] = true;
    budget_left -= problem.costs().Cost(pool[best_index]);
    objective.Add(pool[best_index]);
  }
  return objective.Solution();
}

/// The lazy greedy with every candidate seeded from scratch and no budget
/// stop: the heap is drained entry by entry.
template <typename ScoreFn>
OcsSolution OracleLazy(const OcsProblem& problem, ScoreFn score) {
  OracleObjective objective(problem);
  int budget_left = problem.budget();
  struct Entry {
    double score;
    graph::RoadId road;
    size_t stamp;
    bool operator<(const Entry& other) const { return score < other.score; }
  };
  std::priority_queue<Entry> heap;
  for (graph::RoadId candidate : problem.candidate_roads()) {
    heap.push({score(objective.Gain(candidate),
                     problem.costs().Cost(candidate)),
               candidate, 0});
  }
  size_t selections = 0;
  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    const int cost = problem.costs().Cost(top.road);
    if (cost > budget_left) continue;
    if (!problem.RedundancyOk(top.road, objective.selection())) continue;
    if (top.stamp != selections) {
      heap.push({score(objective.Gain(top.road), cost), top.road,
                 selections});
      continue;
    }
    objective.Add(top.road);
    budget_left -= cost;
    ++selections;
  }
  return objective.Solution();
}

double RatioScore(double gain, int cost) {
  return gain / static_cast<double>(cost);
}
double ObjectiveScore(double gain, int /*cost*/) { return gain; }

OcsSolution Better(OcsSolution ratio, OcsSolution objective) {
  return ratio.objective >= objective.objective ? ratio : objective;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdentical(const OcsSolution& got, const OcsSolution& want,
                     const std::string& what) {
  EXPECT_EQ(got.roads, want.roads) << what;
  EXPECT_TRUE(BitEqual(got.objective, want.objective))
      << what << ": " << got.objective << " vs " << want.objective;
  EXPECT_EQ(got.total_cost, want.total_cost) << what;
}

struct World {
  graph::Graph graph;
  std::vector<double> rho;
};

/// A random road network where ~15% of edges carry rho 0 and three roads
/// are cut off entirely, so some candidates correlate with nothing.
World MakeWorld(util::Rng& rng, int num_roads) {
  graph::RoadNetworkOptions net;
  net.num_roads = num_roads;
  World world{*graph::RoadNetwork(net, rng), {}};
  world.rho.resize(static_cast<size_t>(world.graph.num_edges()));
  for (double& r : world.rho) {
    r = rng.Bernoulli(0.15) ? 0.0 : rng.UniformDouble(0.3, 0.98);
  }
  for (graph::RoadId isolated : {num_roads - 1, num_roads - 2, 7}) {
    for (const graph::Adjacency& adj : world.graph.Neighbors(isolated)) {
      world.rho[static_cast<size_t>(adj.edge)] = 0.0;
    }
  }
  return world;
}

class GatheredDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GatheredDifferentialTest, AllSelectorsMatchPerCallOracles) {
  constexpr int kRoads = 70;
  util::Rng rng(GetParam());
  const World world = MakeWorld(rng, kRoads);
  for (int hop_radius : {0, 2}) {
    const rtf::CorrelationTable table =
        *rtf::CorrelationTable::FromEdgeCorrelations(
            world.graph, world.rho, rtf::PathWeightMode::kNegLog, nullptr,
            hop_radius);
    ASSERT_EQ(table.hop_radius(), hop_radius);
    for (bool random_costs : {false, true}) {
      const crowd::CostModel costs =
          random_costs ? *crowd::CostModel::UniformRandom(kRoads, 1, 6, rng)
                       : crowd::CostModel::Constant(kRoads, 2);
      std::vector<graph::RoadId> queried;
      for (int r : rng.SampleWithoutReplacement(kRoads, 12)) {
        queried.push_back(r);
      }
      std::vector<double> weights;
      for (size_t i = 0; i < queried.size(); ++i) {
        // Every fourth weight is 0; the rest are continuous.
        weights.push_back(i % 4 == 0 ? 0.0 : rng.UniformDouble(0.5, 8.0));
      }
      // A random candidate subset in shuffled order that always includes
      // the isolated roads and one queried road.
      std::vector<graph::RoadId> candidates;
      for (int r : rng.SampleWithoutReplacement(kRoads, 40)) {
        candidates.push_back(r);
      }
      for (graph::RoadId extra : {kRoads - 1, kRoads - 2, 7, queried[1]}) {
        if (std::find(candidates.begin(), candidates.end(), extra) ==
            candidates.end()) {
          candidates.push_back(extra);
        }
      }
      rng.Shuffle(candidates);
      int min_cost = costs.Cost(candidates.front());
      for (graph::RoadId c : candidates) {
        min_cost = std::min(min_cost, costs.Cost(c));
      }
      const int total_cost = costs.TotalCost(candidates);
      for (double theta : {0.5, 0.92, 1.0}) {
        for (int budget : {0, 1, min_cost - 1, 9, 30, total_cost + 1}) {
          const auto problem = OcsProblem::Create(
              table, queried, weights, candidates, costs, budget, theta);
          ASSERT_TRUE(problem.ok()) << problem.status().ToString();
          const std::string what =
              "seed " + std::to_string(GetParam()) + " C=" +
              std::to_string(hop_radius) + " random_costs=" +
              std::to_string(random_costs) + " theta=" +
              std::to_string(theta) + " budget=" + std::to_string(budget);
          const OcsSolution ratio = OracleEager(*problem, RatioScore);
          const OcsSolution objective =
              OracleEager(*problem, ObjectiveScore);
          const OcsSolution lazy_ratio = OracleLazy(*problem, RatioScore);
          const OcsSolution lazy_objective =
              OracleLazy(*problem, ObjectiveScore);
          ExpectIdentical(RatioGreedy(*problem), ratio, what + " ratio");
          ExpectIdentical(ObjectiveGreedy(*problem), objective,
                          what + " objective");
          ExpectIdentical(HybridGreedy(*problem), Better(ratio, objective),
                          what + " hybrid");
          ExpectIdentical(LazyRatioGreedy(*problem), lazy_ratio,
                          what + " lazy ratio");
          ExpectIdentical(LazyObjectiveGreedy(*problem), lazy_objective,
                          what + " lazy objective");
          ExpectIdentical(LazyHybridGreedy(*problem),
                          Better(lazy_ratio, lazy_objective),
                          what + " lazy hybrid");
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatheredDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Hybrid-Greedy runs only its ratio pass when every candidate costs the
// same power of two. Its output must equal the two-pass Alg. 4 result
// built from the public passes; with other costs the objective pass must
// still run, which shows whenever it beats the ratio pass.
TEST(HybridOnePassTest, UniformPowerOfTwoCostsMatchTwoPasses) {
  constexpr int kRoads = 70;
  int objective_wins = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const World world = MakeWorld(rng, kRoads);
    const rtf::CorrelationTable table =
        *rtf::CorrelationTable::FromEdgeCorrelations(
            world.graph, world.rho, rtf::PathWeightMode::kNegLog, nullptr,
            /*hop_radius=*/2);
    std::vector<graph::RoadId> queried;
    for (int r : rng.SampleWithoutReplacement(kRoads, 12)) {
      queried.push_back(r);
    }
    std::vector<double> weights;
    for (size_t i = 0; i < queried.size(); ++i) {
      weights.push_back(rng.UniformDouble(0.5, 8.0));
    }
    std::vector<graph::RoadId> candidates;
    for (int r : rng.SampleWithoutReplacement(kRoads, 40)) {
      candidates.push_back(r);
    }
    // Uniform over the candidates only: roads outside the pool cost 5.
    std::vector<int> pool_costs_4(kRoads, 5);
    for (graph::RoadId c : candidates) {
      pool_costs_4[static_cast<size_t>(c)] = 4;
    }
    struct Costs {
      std::string name;
      crowd::CostModel model;
      bool one_pass;
    };
    const std::vector<Costs> cost_models = {
        {"constant 1", crowd::CostModel::Constant(kRoads, 1), true},
        {"constant 2", crowd::CostModel::Constant(kRoads, 2), true},
        {"constant 4", crowd::CostModel::Constant(kRoads, 4), true},
        {"pool 4", *crowd::CostModel::FromCosts(pool_costs_4), true},
        {"constant 3", crowd::CostModel::Constant(kRoads, 3), false},
        {"random 1..6", *crowd::CostModel::UniformRandom(kRoads, 1, 6, rng),
         false}};
    for (const Costs& costs : cost_models) {
      for (double theta : {0.5, 0.92, 1.0}) {
        for (int budget : {0, 3, 8, 17, 40}) {
          const auto problem =
              OcsProblem::Create(table, queried, weights, candidates,
                                 costs.model, budget, theta);
          ASSERT_TRUE(problem.ok()) << problem.status().ToString();
          const std::string what =
              "seed " + std::to_string(seed) + " " + costs.name +
              " theta=" + std::to_string(theta) +
              " budget=" + std::to_string(budget);
          const OcsSolution ratio = RatioGreedy(*problem);
          const OcsSolution objective = ObjectiveGreedy(*problem);
          const OcsSolution lazy_ratio = LazyRatioGreedy(*problem);
          const OcsSolution lazy_objective = LazyObjectiveGreedy(*problem);
          if (costs.one_pass) {
            // Why one pass suffices: the passes agree bit for bit.
            ExpectIdentical(objective, ratio, what + " passes");
            ExpectIdentical(lazy_objective, lazy_ratio,
                            what + " lazy passes");
          }
          ExpectIdentical(HybridGreedy(*problem), Better(ratio, objective),
                          what + " hybrid");
          ExpectIdentical(LazyHybridGreedy(*problem),
                          Better(lazy_ratio, lazy_objective),
                          what + " lazy hybrid");
          if (!costs.one_pass && objective.objective > ratio.objective) {
            ++objective_wins;
          }
        }
      }
    }
  }
  // Without this the non-uniform rows could not tell a skipped objective
  // pass from a run one.
  EXPECT_GT(objective_wins, 0);
}

// Why the one-pass rule needs a power of two: dividing by 3 rounds, so two
// gains one ulp apart can tie as ratios. On a three-road path with the
// queried road in the middle, the ratio pass then keeps the first (smaller)
// candidate while the objective pass takes the larger, and Alg. 4 must
// return the objective pass.
TEST(HybridOnePassTest, UniformCostThreeKeepsBothPasses) {
  const graph::Graph path = *graph::PathNetwork(3);
  ASSERT_EQ(path.num_edges(), 2);
  // The first x in [0.8, 1) whose successor divides by 3 to the same value.
  double low = 0.8;
  while (low / 3.0 != std::nextafter(low, 2.0) / 3.0) {
    low = std::nextafter(low, 2.0);
  }
  const double high = std::nextafter(low, 2.0);
  ASSERT_LT(high, 1.0);
  const rtf::CorrelationTable table =
      *rtf::CorrelationTable::FromEdgeCorrelations(
          path, {low, high}, rtf::PathWeightMode::kNegLog, nullptr,
          /*hop_radius=*/1);
  const graph::RoadId queried = 1;
  const graph::RoadId smaller =
      table.Corr(queried, 0) == low ? 0 : 2;  // edge order decides which
  const graph::RoadId larger = 2 - smaller;
  ASSERT_EQ(table.Corr(queried, smaller), low);
  ASSERT_EQ(table.Corr(queried, larger), high);
  const crowd::CostModel costs = crowd::CostModel::Constant(3, 3);
  const auto problem =
      OcsProblem::Create(table, {queried}, {1.0}, {smaller, larger}, costs,
                         /*budget=*/3, /*theta=*/1.0);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  ASSERT_EQ(RatioGreedy(*problem).roads,
            std::vector<graph::RoadId>{smaller});
  ASSERT_EQ(ObjectiveGreedy(*problem).roads,
            std::vector<graph::RoadId>{larger});
  EXPECT_EQ(HybridGreedy(*problem).roads, std::vector<graph::RoadId>{larger});
  EXPECT_EQ(LazyHybridGreedy(*problem).roads,
            std::vector<graph::RoadId>{larger});
}

TEST(GatheredGainBlockTest, BlockCopiesCorrBitForBit) {
  util::Rng rng(11);
  const World world = MakeWorld(rng, 50);
  for (int hop_radius : {0, 2}) {
    const rtf::CorrelationTable table =
        *rtf::CorrelationTable::FromEdgeCorrelations(
            world.graph, world.rho, rtf::PathWeightMode::kNegLog, nullptr,
            hop_radius);
    const crowd::CostModel costs = crowd::CostModel::Constant(50, 1);
    const std::vector<graph::RoadId> queried = {3, 49, 20, 0};
    const std::vector<graph::RoadId> candidates = {49, 5, 0, 31, 7, 12};
    const auto problem = OcsProblem::Create(
        table, queried, {1.0, 0.0, 2.5, 4.0}, candidates, costs, 4, 1.0);
    ASSERT_TRUE(problem.ok());
    for (size_t k = 0; k < candidates.size(); ++k) {
      for (size_t i = 0; i < queried.size(); ++i) {
        EXPECT_TRUE(BitEqual(problem->CandidateCorrs(k)[i],
                             table.Corr(queried[i], candidates[k])))
            << "C=" << hop_radius << " k=" << k << " i=" << i;
      }
      OracleObjective oracle(*problem);
      EXPECT_TRUE(BitEqual(problem->EmptyGain(k), oracle.Gain(candidates[k])));
    }
  }
}

}  // namespace
}  // namespace crowdrtse::ocs
