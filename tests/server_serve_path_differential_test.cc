// Differential tests for the query-scoped serve path. Each step that used to
// scan the whole worker population, candidate set or graph per query is run
// against a copy of its former full-scan implementation (the oracles below)
// on random metro worlds, and the outputs must be equal — bit for bit where
// doubles are involved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/crowd_rtse.h"
#include "crowd/aggregation.h"
#include "crowd/cost_model.h"
#include "crowd/crowd_simulator.h"
#include "crowd/task_assignment.h"
#include "crowd/worker.h"
#include "graph/generators.h"
#include "ocs/greedy_selectors.h"
#include "ocs/ocs_problem.h"
#include "rtf/correlation_table.h"
#include "server/worker_registry.h"
#include "traffic/history_store.h"
#include "util/rng.h"

namespace crowdrtse::server {
namespace {

constexpr int kHops = 2;  // C = H = 2, the metro serving configuration

// ---------------------------------------------------------------------------
// Oracles: the former full-scan implementations.
// ---------------------------------------------------------------------------

std::vector<graph::RoadId> OracleCoveredRoads(
    const std::vector<crowd::Worker>& workers) {
  std::set<graph::RoadId> covered;
  for (const crowd::Worker& w : workers) covered.insert(w.road);
  return {covered.begin(), covered.end()};
}

util::Result<crowd::AssignmentPlan> OracleAssignTasks(
    const std::vector<graph::RoadId>& selected_roads,
    const crowd::CostModel& costs,
    const std::vector<crowd::Worker>& workers) {
  std::set<graph::RoadId> seen;
  for (graph::RoadId r : selected_roads) {
    if (r < 0) {
      return util::Status::InvalidArgument("invalid selected road");
    }
    if (r >= costs.num_roads()) {
      return util::Status::InvalidArgument(
          "selected road missing from cost model: " + std::to_string(r));
    }
    if (!seen.insert(r).second) {
      return util::Status::InvalidArgument("duplicate selected road: " +
                                           std::to_string(r));
    }
  }
  std::map<graph::RoadId, std::vector<const crowd::Worker*>> by_road;
  for (const crowd::Worker& w : workers) by_road[w.road].push_back(&w);
  for (auto& [road, bucket] : by_road) {
    std::sort(bucket.begin(), bucket.end(),
              [](const crowd::Worker* a, const crowd::Worker* b) {
                return a->noise_kmh != b->noise_kmh
                           ? a->noise_kmh < b->noise_kmh
                           : a->id < b->id;
              });
  }
  crowd::AssignmentPlan plan;
  for (graph::RoadId road : selected_roads) {
    const int quota = std::max(1, costs.Cost(road));
    const auto it = by_road.find(road);
    const int available =
        it == by_road.end() ? 0 : static_cast<int>(it->second.size());
    const int hired = std::min(quota, available);
    for (int i = 0; i < hired; ++i) {
      crowd::TaskAssignment task;
      task.worker = it->second[static_cast<size_t>(i)]->id;
      task.road = road;
      task.payment_units = 1;
      plan.total_payment += task.payment_units;
      plan.assignments.push_back(task);
    }
    if (hired < quota) plan.underfilled_roads.push_back(road);
  }
  return plan;
}

util::Result<crowd::CrowdRound> OracleProbeWithAssignments(
    crowd::CrowdSimulator& sim, crowd::AggregationPolicy aggregation,
    const crowd::AssignmentPlan& plan,
    const std::vector<crowd::Worker>& workers,
    const traffic::DayMatrix& truth, int slot) {
  if (slot < 0 || slot >= truth.num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  std::map<crowd::WorkerId, const crowd::Worker*> by_id;
  for (const crowd::Worker& w : workers) by_id[w.id] = &w;
  std::map<graph::RoadId, std::vector<crowd::SpeedAnswer>> answers_by_road;
  crowd::CrowdRound round;
  for (const crowd::TaskAssignment& task : plan.assignments) {
    if (task.road < 0 || task.road >= truth.num_roads()) {
      return util::Status::InvalidArgument("assigned road out of range: " +
                                           std::to_string(task.road));
    }
    const auto it = by_id.find(task.worker);
    if (it == by_id.end()) {
      return util::Status::InvalidArgument(
          "assignment references unknown worker " +
          std::to_string(task.worker));
    }
    const crowd::SpeedAnswer answer =
        sim.GenerateAnswer(*it->second, task.road, truth, slot);
    answers_by_road[task.road].push_back(answer);
    round.raw_answers.push_back(answer);
    round.total_paid += task.payment_units;
  }
  for (const auto& [road, answers] : answers_by_road) {
    util::Result<double> aggregated =
        crowd::AggregateAnswers(answers, aggregation);
    if (!aggregated.ok()) return aggregated.status();
    crowd::ProbeResult probe;
    probe.road = road;
    probe.probed_kmh = *aggregated;
    probe.num_answers = static_cast<int>(answers.size());
    probe.paid_units = static_cast<int>(answers.size());
    round.probes.push_back(probe);
  }
  return round;
}

std::vector<graph::RoadId> OraclePrune(
    const rtf::CorrelationTable& table,
    const std::vector<graph::RoadId>& queried_roads,
    const std::vector<graph::RoadId>& worker_roads) {
  std::vector<graph::RoadId> pruned;
  for (graph::RoadId c : worker_roads) {
    if (c < 0 || c >= table.num_roads() ||
        table.RoadSetCorr(c, queried_roads) > 0.0) {
      pruned.push_back(c);
    }
  }
  return pruned;
}

// ---------------------------------------------------------------------------
// Random worlds.
// ---------------------------------------------------------------------------

bool Bitwise(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename T>
void Shuffle(std::vector<T>& v, util::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.UniformUint64(i)]);
  }
}

graph::Graph RandomMetro(util::Rng& rng) {
  graph::MetroNetworkOptions options;
  options.num_roads = 2000 + static_cast<int>(rng.UniformUint64(6001));
  options.aspect_ratio = rng.UniformDouble(0.6, 1.6);
  options.arterial_spacing = 8 + static_cast<int>(rng.UniformUint64(9));
  options.num_ring_roads = static_cast<int>(rng.UniformUint64(4));
  return *graph::MetroNetwork(options);
}

/// A population with duplicate ids, unsorted ids, ties in noise_kmh and
/// uneven road coverage (a dense district plus a thin scatter).
std::vector<crowd::Worker> RandomWorkers(const graph::Graph& g,
                                         util::Rng& rng) {
  const int n = g.num_roads();
  const int count = n + static_cast<int>(rng.UniformUint64(
                            static_cast<uint64_t>(n)));
  const graph::RoadId district = static_cast<graph::RoadId>(
      rng.UniformUint64(static_cast<uint64_t>(n)));
  std::vector<crowd::Worker> workers;
  for (int i = 0; i < count; ++i) {
    crowd::Worker w;
    // Ids drawn from a range barely larger than the population: plenty of
    // duplicates, in no particular order.
    w.id = static_cast<crowd::WorkerId>(
        rng.UniformUint64(static_cast<uint64_t>(count + count / 8)));
    w.road = rng.Bernoulli(0.3)
                 ? std::min(n - 1, district + static_cast<graph::RoadId>(
                                                  rng.UniformUint64(40)))
                 : static_cast<graph::RoadId>(
                       rng.UniformUint64(static_cast<uint64_t>(n)));
    // Quarter-km/h noise levels: many exact ties.
    w.noise_kmh = 0.25 * static_cast<double>(rng.UniformUint64(8));
    w.bias = rng.UniformDouble(0.9, 1.1);
    workers.push_back(w);
  }
  return workers;
}

crowd::CostModel RandomCosts(int n, util::Rng& rng) {
  std::vector<int> costs(static_cast<size_t>(n));
  for (int& c : costs) c = 1 + static_cast<int>(rng.UniformUint64(3));
  return *crowd::CostModel::FromCosts(std::move(costs));
}

/// A few roads around a centre; every tenth query sits on the map's edge
/// (the lowest or highest road ids: grid corners and border rows).
std::vector<graph::RoadId> RandomQuery(const graph::Graph& g,
                                       util::Rng& rng, int index) {
  const int n = g.num_roads();
  graph::RoadId centre = static_cast<graph::RoadId>(
      rng.UniformUint64(static_cast<uint64_t>(n)));
  if (index % 10 == 0) centre = 0;
  if (index % 10 == 5) centre = n - 1;
  std::vector<graph::RoadId> query = {centre};
  for (const graph::Adjacency& adj : g.Neighbors(centre)) {
    if (query.size() >= 4) break;
    if (rng.Bernoulli(0.7)) query.push_back(adj.neighbor);
  }
  if (rng.Bernoulli(0.3)) {
    query.push_back(static_cast<graph::RoadId>(
        rng.UniformUint64(static_cast<uint64_t>(n))));
  }
  std::sort(query.begin(), query.end());
  query.erase(std::unique(query.begin(), query.end()), query.end());
  return query;
}

std::vector<double> RandomRho(const graph::Graph& g, util::Rng& rng) {
  std::vector<double> rho(static_cast<size_t>(g.num_edges()));
  for (double& r : rho) r = rng.UniformDouble(0.05, 0.95);
  return rho;
}

void ExpectSamePlan(const util::Result<crowd::AssignmentPlan>& got,
                    const util::Result<crowd::AssignmentPlan>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_EQ(got->assignments.size(), want->assignments.size());
  for (size_t i = 0; i < got->assignments.size(); ++i) {
    EXPECT_EQ(got->assignments[i].worker, want->assignments[i].worker);
    EXPECT_EQ(got->assignments[i].road, want->assignments[i].road);
    EXPECT_EQ(got->assignments[i].payment_units,
              want->assignments[i].payment_units);
  }
  EXPECT_EQ(got->underfilled_roads, want->underfilled_roads);
  EXPECT_EQ(got->total_payment, want->total_payment);
}

void ExpectSameRound(const util::Result<crowd::CrowdRound>& got,
                     const util::Result<crowd::CrowdRound>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_EQ(got->probes.size(), want->probes.size());
  for (size_t i = 0; i < got->probes.size(); ++i) {
    EXPECT_EQ(got->probes[i].road, want->probes[i].road);
    EXPECT_TRUE(
        Bitwise(got->probes[i].probed_kmh, want->probes[i].probed_kmh));
    EXPECT_EQ(got->probes[i].num_answers, want->probes[i].num_answers);
    EXPECT_EQ(got->probes[i].paid_units, want->probes[i].paid_units);
  }
  ASSERT_EQ(got->raw_answers.size(), want->raw_answers.size());
  for (size_t i = 0; i < got->raw_answers.size(); ++i) {
    EXPECT_EQ(got->raw_answers[i].worker, want->raw_answers[i].worker);
    EXPECT_EQ(got->raw_answers[i].road, want->raw_answers[i].road);
    EXPECT_TRUE(Bitwise(got->raw_answers[i].reported_kmh,
                        want->raw_answers[i].reported_kmh));
  }
  EXPECT_EQ(got->total_paid, want->total_paid);
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

TEST(ServePathDifferentialTest, RegistryCountsMatchFullScan) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const graph::Graph g = RandomMetro(rng);
    WorkerRegistryOptions options;
    options.churn_probability = 0.05;
    WorkerRegistry registry(g, RandomWorkers(g, rng), options, seed);
    for (int step = 0; step < 4; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const std::vector<crowd::Worker>& workers = registry.workers();
      EXPECT_EQ(registry.CoveredRoads(), OracleCoveredRoads(workers));
      std::vector<int> counts(static_cast<size_t>(g.num_roads()), 0);
      for (const crowd::Worker& w : workers) {
        ++counts[static_cast<size_t>(w.road)];
      }
      for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
        ASSERT_EQ(registry.CountOn(r), counts[static_cast<size_t>(r)]);
      }
      EXPECT_EQ(registry.CountOn(-1), 0);
      EXPECT_EQ(registry.CountOn(g.num_roads()), 0);
      if (step == 2) {
        registry.ReplaceWorkers(RandomWorkers(g, rng));
      } else {
        registry.AdvanceSlot();
      }
    }
  }
}

TEST(ServePathDifferentialTest, AssignmentAndProbeMatchFullScan) {
  const int slot = 0;
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    util::Rng rng(seed);
    const graph::Graph g = RandomMetro(rng);
    const int n = g.num_roads();
    const crowd::CostModel costs = RandomCosts(n, rng);
    const std::vector<crowd::Worker> workers = RandomWorkers(g, rng);
    traffic::DayMatrix truth(1, n);
    for (graph::RoadId r = 0; r < n; ++r) {
      truth.At(0, r) = rng.UniformDouble(15.0, 90.0);
    }
    crowd::CrowdSimOptions sim_options;
    sim_options.outlier_rate = 0.05;
    crowd::CrowdSimulator sim(sim_options, util::Rng(seed));
    crowd::CrowdSimulator oracle_sim(sim_options, util::Rng(seed));

    int rejected = 0;
    int hired = 0;
    int underfilled = 0;
    for (int q = 0; q < 30; ++q) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                   std::to_string(q));
      // Selected roads: a query neighbourhood in unsorted order, plus an
      // occasional far road; some runs carry a duplicate or an id off the
      // map to exercise the rejections.
      std::vector<graph::RoadId> selected = RandomQuery(g, rng, q);
      for (const graph::Adjacency& adj : g.Neighbors(selected.front())) {
        if (std::find(selected.begin(), selected.end(), adj.neighbor) ==
            selected.end()) {
          selected.push_back(adj.neighbor);
        }
      }
      Shuffle(selected, rng);
      if (q % 7 == 3) selected.push_back(selected.front());
      if (q % 11 == 4) selected.push_back(n);
      if (q % 13 == 6) selected.push_back(-1);

      const util::Result<crowd::AssignmentPlan> plan =
          crowd::AssignTasks(selected, costs, workers);
      ExpectSamePlan(plan, OracleAssignTasks(selected, costs, workers));
      if (!plan.ok()) {
        ++rejected;
        continue;
      }
      hired += static_cast<int>(plan->assignments.size());
      underfilled += static_cast<int>(plan->underfilled_roads.size());

      crowd::AssignmentPlan probe_plan = *plan;
      if (q % 5 == 2 && !probe_plan.assignments.empty()) {
        // An unknown worker mid-plan: both reject it after drawing the
        // answers before it.
        crowd::TaskAssignment ghost = probe_plan.assignments.front();
        ghost.worker = -7;
        probe_plan.assignments.insert(
            probe_plan.assignments.begin() +
                static_cast<long>(probe_plan.assignments.size() / 2),
            ghost);
      }
      if (q % 9 == 1 && !probe_plan.assignments.empty()) {
        probe_plan.assignments.back().road = n + 3;
      }
      ExpectSameRound(
          sim.ProbeWithAssignments(probe_plan, workers, truth, slot),
          OracleProbeWithAssignments(oracle_sim, sim_options.aggregation,
                                     probe_plan, workers, truth, slot));
      // Same RNG consumption, also on the error paths.
      EXPECT_TRUE(Bitwise(
          sim.GenerateAnswer(workers.front(), 0, truth, slot).reported_kmh,
          oracle_sim.GenerateAnswer(workers.front(), 0, truth, slot)
              .reported_kmh));
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(hired, 50);
    EXPECT_GT(underfilled, 0);
  }
}

TEST(ServePathDifferentialTest, SparsePruneMatchesFullScan) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    util::Rng rng(seed);
    const graph::Graph g = RandomMetro(rng);
    const int n = g.num_roads();
    const rtf::CorrelationTable table =
        *rtf::CorrelationTable::FromEdgeCorrelations(
            g, RandomRho(g, rng), rtf::PathWeightMode::kNegLog, nullptr,
            kHops);
    WorkerRegistry registry(g, RandomWorkers(g, rng), {}, seed);
    for (int q = 0; q < 40; ++q) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                   std::to_string(q));
      const std::vector<graph::RoadId> queried = RandomQuery(g, rng, q);
      // Unsorted candidates with duplicates and off-map ids.
      std::vector<graph::RoadId> worker_roads = registry.CoveredRoads();
      if (q % 2 == 1) Shuffle(worker_roads, rng);
      if (q % 3 == 0) {
        worker_roads.push_back(queried.front());
        worker_roads.push_back(-1);
        worker_roads.insert(worker_roads.begin(), n + 2);
      }
      const std::vector<graph::RoadId> kept =
          core::PositiveGainCandidates(g, table, queried, worker_roads);
      EXPECT_EQ(kept, OraclePrune(table, queried, worker_roads));
      // The prune is not vacuous: it keeps the covered part of the
      // query's ball and drops the rest of the city.
      EXPECT_FALSE(kept.empty());
      EXPECT_LT(kept.size() * 20, worker_roads.size());
    }
  }
}

TEST(ServePathDifferentialTest, DensePruneMatchesFullScan) {
  util::Rng rng(31);
  graph::MetroNetworkOptions options;
  options.num_roads = 400;
  const graph::Graph g = *graph::MetroNetwork(options);
  const rtf::CorrelationTable table =
      *rtf::CorrelationTable::FromEdgeCorrelations(g, RandomRho(g, rng));
  WorkerRegistry registry(g, RandomWorkers(g, rng), {}, 31);
  for (int q = 0; q < 20; ++q) {
    const std::vector<graph::RoadId> queried = RandomQuery(g, rng, q);
    const std::vector<graph::RoadId> worker_roads = registry.CoveredRoads();
    EXPECT_EQ(core::PositiveGainCandidates(g, table, queried, worker_roads),
              OraclePrune(table, queried, worker_roads));
  }
}

TEST(ServePathDifferentialTest, SelectRoadsMatchesFullScanPrune) {
  util::Rng rng(41);
  graph::MetroNetworkOptions metro;
  metro.num_roads = 2000;
  std::vector<std::pair<double, double>> positions;
  const graph::Graph g = *graph::MetroNetwork(metro, &positions);
  const int n = g.num_roads();
  constexpr int kDays = 4;
  constexpr int kSlots = 2;
  traffic::HistoryStore history(n, kDays, kSlots);
  for (int day = 0; day < kDays; ++day) {
    for (int slot = 0; slot < kSlots; ++slot) {
      for (graph::RoadId r = 0; r < n; ++r) {
        history.At(day, slot, r) =
            30.0 + 40.0 * positions[static_cast<size_t>(r)].first +
            rng.UniformDouble(-4.0, 4.0);
      }
    }
  }
  core::CrowdRtseConfig config;
  config.correlation_hop_radius = kHops;
  config.gsp.hop_limit = kHops;
  config.prune_zero_gain_candidates = true;
  auto system = core::CrowdRtse::BuildOffline(g, history, config);
  ASSERT_TRUE(system.ok());
  const crowd::CostModel costs = RandomCosts(n, rng);
  WorkerRegistry registry(g, RandomWorkers(g, rng), {}, 41);
  for (int q = 0; q < 20; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const int slot = q % kSlots;
    const std::vector<graph::RoadId> queried = RandomQuery(g, rng, q);
    std::vector<graph::RoadId> worker_roads = registry.CoveredRoads();
    Shuffle(worker_roads, rng);
    const int budget = 2 + static_cast<int>(rng.UniformUint64(10));
    const auto got =
        system->SelectRoads(slot, queried, worker_roads, costs, budget);
    const auto table = system->CorrelationsFor(slot);
    ASSERT_TRUE(table.ok());
    auto problem = ocs::OcsProblem::Create(
        **table, queried, system->SigmaWeights(slot, queried),
        OraclePrune(**table, queried, worker_roads), costs, budget,
        config.theta);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(problem.ok());
    const ocs::OcsSolution want = ocs::HybridGreedy(*problem);
    EXPECT_FALSE(got->roads.empty());
    EXPECT_EQ(got->roads, want.roads);
    EXPECT_TRUE(Bitwise(got->objective, want.objective));
    EXPECT_EQ(got->total_cost, want.total_cost);
  }
}

}  // namespace
}  // namespace crowdrtse::server
