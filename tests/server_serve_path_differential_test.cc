// Differential tests for the query-scoped serve path. Each step that used to
// scan the whole worker population, candidate set or graph per query is run
// against a copy of its former full-scan implementation (the oracles below)
// on random metro worlds, and the outputs must be equal — bit for bit where
// doubles are involved. The serve path's own forms — the registry's worker
// index, ball-scoped OCS and the epoch-stamped GSP workspace — are checked
// against the same oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/crowd_rtse.h"
#include "crowd/aggregation.h"
#include "crowd/cost_model.h"
#include "crowd/crowd_simulator.h"
#include "crowd/task_assignment.h"
#include "crowd/worker.h"
#include "crowd/worker_index.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "gsp/propagation.h"
#include "ocs/greedy_selectors.h"
#include "ocs/ocs_problem.h"
#include "rtf/correlation_table.h"
#include "rtf/rtf_model.h"
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

/// The former one-pass GatherWorkers over the whole population. Ties in
/// (noise_kmh, id) keep population order (std::stable_sort), the order the
/// index documents; the former std::sort left such ties unspecified.
crowd::RoundWorkers OracleGatherWorkers(
    const std::vector<crowd::WorkerId>& ids,
    const std::vector<graph::RoadId>& roads,
    const std::vector<crowd::Worker>& workers) {
  crowd::RoundWorkers out;
  out.by_id.assign(ids.size(), nullptr);
  out.on_road.resize(roads.size());
  for (const crowd::Worker& w : workers) {
    bool listed = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == w.id) {
        out.by_id[i] = &w;
        listed = true;
      }
    }
    if (listed) continue;
    for (size_t j = 0; j < roads.size(); ++j) {
      if (roads[j] == w.road) out.on_road[j].push_back(&w);
    }
  }
  for (std::vector<const crowd::Worker*>& bucket : out.on_road) {
    std::stable_sort(bucket.begin(), bucket.end(),
                     [](const crowd::Worker* a, const crowd::Worker* b) {
                       return a->noise_kmh != b->noise_kmh
                                  ? a->noise_kmh < b->noise_kmh
                                  : a->id < b->id;
                     });
  }
  return out;
}

/// The former dense GSP with the reference kernel: an n-sized speed field
/// initialised to mu, a dense BFS, and Eq. (18) updates through
/// SpeedPropagator::UpdateValue — the reference kernel's arithmetic.
std::vector<double> OracleDensePropagate(
    const rtf::RtfModel& model, const gsp::SpeedPropagator& propagator,
    int slot, const std::vector<graph::RoadId>& sampled,
    const std::vector<double>& values) {
  const int n = model.num_roads();
  std::vector<double> speeds(static_cast<size_t>(n));
  for (graph::RoadId r = 0; r < n; ++r) {
    speeds[static_cast<size_t>(r)] = model.Mu(slot, r);
  }
  for (size_t i = 0; i < sampled.size(); ++i) {
    speeds[static_cast<size_t>(sampled[i])] = values[i];
  }
  // Relax order: a textbook FIFO BFS from the samples (each once, in the
  // given order), every road 1..H hops out in discovery order.
  const gsp::GspOptions& options = propagator.options();
  std::vector<int> hops(static_cast<size_t>(n), -1);
  std::deque<graph::RoadId> queue;
  for (graph::RoadId s : sampled) {
    if (hops[static_cast<size_t>(s)] == 0) continue;
    hops[static_cast<size_t>(s)] = 0;
    queue.push_back(s);
  }
  std::vector<graph::RoadId> order;
  while (!queue.empty()) {
    const graph::RoadId r = queue.front();
    queue.pop_front();
    const int next = hops[static_cast<size_t>(r)] + 1;
    if (options.hop_limit > 0 && next > options.hop_limit) continue;
    for (const graph::Adjacency& adj : model.graph().Neighbors(r)) {
      if (hops[static_cast<size_t>(adj.neighbor)] != -1) continue;
      hops[static_cast<size_t>(adj.neighbor)] = next;
      order.push_back(adj.neighbor);
      queue.push_back(adj.neighbor);
    }
  }
  for (int sweep = 0; sweep < options.max_sweeps && !order.empty();
       ++sweep) {
    double max_delta = 0.0;
    for (graph::RoadId r : order) {
      const double updated = propagator.UpdateValue(slot, r, speeds);
      max_delta = std::max(max_delta,
                           std::fabs(updated - speeds[static_cast<size_t>(r)]));
      speeds[static_cast<size_t>(r)] = updated;
    }
    if (max_delta < options.epsilon) break;
  }
  return speeds;
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

/// An RTF model with random per-road means and spreads and random edge
/// correlations (enough variety that sweeps take several passes).
rtf::RtfModel RandomModel(const graph::Graph& g, int slots, util::Rng& rng) {
  rtf::RtfModel model(g, slots);
  for (int slot = 0; slot < slots; ++slot) {
    for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
      model.SetMu(slot, r, rng.UniformDouble(20.0, 90.0));
      model.SetSigma(slot, r, rng.UniformDouble(1.0, 8.0));
    }
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      model.SetRho(slot, e, rng.UniformDouble(0.1, 0.95));
    }
  }
  return model;
}

/// The metro world of the OCS tests: a 2000-road network with a west-east
/// speed gradient over 4 days x 2 slots, served at C = H = 2 with pruning.
struct OcsWorld {
  graph::Graph graph;
  traffic::HistoryStore history;
  core::CrowdRtseConfig config;
};

OcsWorld MakeOcsWorld(util::Rng& rng, int slots) {
  graph::MetroNetworkOptions metro;
  metro.num_roads = 2000;
  std::vector<std::pair<double, double>> positions;
  graph::Graph g = *graph::MetroNetwork(metro, &positions);
  const int n = g.num_roads();
  constexpr int kDays = 4;
  traffic::HistoryStore history(n, kDays, slots);
  for (int day = 0; day < kDays; ++day) {
    for (int slot = 0; slot < slots; ++slot) {
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
  return {std::move(g), std::move(history), config};
}

void ExpectSameGather(const crowd::RoundWorkers& got,
                      const crowd::RoundWorkers& want) {
  EXPECT_EQ(got.by_id, want.by_id);
  ASSERT_EQ(got.on_road.size(), want.on_road.size());
  for (size_t j = 0; j < got.on_road.size(); ++j) {
    EXPECT_EQ(got.on_road[j], want.on_road[j]) << "road position " << j;
  }
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
  constexpr int kSlots = 2;
  const OcsWorld world = MakeOcsWorld(rng, kSlots);
  const graph::Graph& g = world.graph;
  auto system = core::CrowdRtse::BuildOffline(g, world.history, world.config);
  ASSERT_TRUE(system.ok());
  const crowd::CostModel costs = RandomCosts(g.num_roads(), rng);
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
        world.config.theta);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(problem.ok());
    const ocs::OcsSolution want = ocs::HybridGreedy(*problem);
    EXPECT_FALSE(got->roads.empty());
    EXPECT_EQ(got->roads, want.roads);
    EXPECT_TRUE(Bitwise(got->objective, want.objective));
    EXPECT_EQ(got->total_cost, want.total_cost);
  }
}

// The registry's worker index answers GatherWorkers exactly as the former
// population scan did: on a population with duplicate ids, equal noise
// levels and empty roads, fresh, mixed by AdvanceSlot (moves and churn) and
// after ReplaceWorkers. The id lists mix hired ids, absent ids and
// duplicates; the road lists mix covered, empty and off-map roads.
TEST(ServePathDifferentialTest, IndexedGatherMatchesFullScan) {
  for (uint64_t seed = 51; seed <= 54; ++seed) {
    util::Rng rng(seed);
    const graph::Graph g = RandomMetro(rng);
    const int n = g.num_roads();
    const crowd::CostModel costs = RandomCosts(n, rng);
    WorkerRegistryOptions options;
    options.churn_probability = 0.05;
    WorkerRegistry registry(g, RandomWorkers(g, rng), options, seed);
    int nonempty_pools = 0;
    int resolved = 0;
    for (int step = 0; step < 6; ++step) {
      if (step == 3) {
        registry.ReplaceWorkers(RandomWorkers(g, rng));
      } else if (step > 0) {
        registry.AdvanceSlot();
      }
      const std::vector<crowd::Worker>& workers = registry.workers();
      for (int q = 0; q < 15; ++q) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                     std::to_string(step) + " query " + std::to_string(q));
        // Distinct roads around a query, plus an empty road and, now and
        // then, ids off the map.
        std::vector<graph::RoadId> roads = RandomQuery(g, rng, q);
        for (const graph::Adjacency& adj : g.Neighbors(roads.front())) {
          roads.push_back(adj.neighbor);
        }
        for (graph::RoadId r = 0; r < n; ++r) {
          if (registry.CountOn(r) == 0) {
            roads.push_back(r);
            break;
          }
        }
        if (q % 4 == 1) {
          roads.push_back(-1);
          roads.push_back(n + 1);
        }
        std::sort(roads.begin(), roads.end());
        roads.erase(std::unique(roads.begin(), roads.end()), roads.end());
        Shuffle(roads, rng);
        // Hired ids from a real plan, a repeated id and absent ids.
        std::vector<crowd::WorkerId> ids;
        std::vector<graph::RoadId> selected;
        for (graph::RoadId r : roads) {
          if (r >= 0 && r < n) selected.push_back(r);
        }
        const auto plan = crowd::AssignTasks(selected, costs, registry.index());
        ASSERT_TRUE(plan.ok());
        for (const crowd::TaskAssignment& t : plan->assignments) {
          ids.push_back(t.worker);
        }
        if (!ids.empty()) ids.push_back(ids.front());
        ids.push_back(-5);
        ids.push_back(static_cast<crowd::WorkerId>(
            workers[rng.UniformUint64(workers.size())].id));
        Shuffle(ids, rng);

        const crowd::RoundWorkers got =
            crowd::GatherWorkers(ids, roads, registry.index());
        ExpectSameGather(got, OracleGatherWorkers(ids, roads, workers));
        for (const auto& pool : got.on_road) nonempty_pools += !pool.empty();
        for (const crowd::Worker* w : got.by_id) resolved += w != nullptr;

        // Assignment from the index equals the former population scan.
        ExpectSamePlan(crowd::AssignTasks(selected, costs, registry.index()),
                       OracleAssignTasks(selected, costs, workers));
      }
    }
    EXPECT_GT(nonempty_pools, 50);
    EXPECT_GT(resolved, 50);
  }
}

// SelectRoads over the serve path's candidates — the covered roads of the
// query's C-hop ball, listed by WorkerRegistry::CoveredAmong — returns the
// selection over every covered road of the map, with every selector, on a
// registry that moves between queries.
TEST(ServePathDifferentialTest, BallScopedSelectionMatchesFullList) {
  util::Rng rng(61);
  constexpr int kSlots = 2;
  const OcsWorld world = MakeOcsWorld(rng, kSlots);
  const graph::Graph& g = world.graph;
  auto system = core::CrowdRtse::BuildOffline(g, world.history, world.config);
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE(system->BallScopedSelection());
  const crowd::CostModel costs = RandomCosts(g.num_roads(), rng);
  WorkerRegistryOptions options;
  options.churn_probability = 0.05;
  WorkerRegistry registry(g, RandomWorkers(g, rng), options, 61);
  const core::SelectorKind kSelectors[] = {
      core::SelectorKind::kHybridGreedy, core::SelectorKind::kRatioGreedy,
      core::SelectorKind::kObjectiveGreedy,
      core::SelectorKind::kLazyHybridGreedy};
  int selected = 0;
  for (int q = 0; q < 24; ++q) {
    if (q % 6 == 5) registry.AdvanceSlot();
    const int slot = q % kSlots;
    const std::vector<graph::RoadId> queried = RandomQuery(g, rng, q);
    const std::vector<graph::RoadId> ball =
        graph::RoadsWithinHops(g, queried, kHops);
    const std::vector<graph::RoadId> ball_roads =
        registry.CoveredAmong(ball);
    const std::vector<graph::RoadId> all_roads = registry.CoveredRoads();
    EXPECT_LT(ball_roads.size() * 10, all_roads.size());
    const int budget = 2 + static_cast<int>(rng.UniformUint64(10));
    for (core::SelectorKind selector : kSelectors) {
      SCOPED_TRACE("query " + std::to_string(q) + " selector " +
                   std::to_string(static_cast<int>(selector)));
      const auto got = system->SelectRoads(slot, queried, ball_roads, costs,
                                           budget, selector);
      const auto want = system->SelectRoads(slot, queried, all_roads, costs,
                                            budget, selector);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->roads, want->roads);
      EXPECT_TRUE(Bitwise(got->objective, want->objective));
      EXPECT_EQ(got->total_cost, want->total_cost);
      selected += static_cast<int>(got->roads.size());
    }
  }
  EXPECT_GT(selected, 100);
}

// The epoch-stamped GSP workspace leaves nothing behind between queries.
// Many propagations run on one thread, alternating between two graphs of
// different sizes (so stamps from the other graph and from earlier queries
// are all live in the arrays), at H = 0 (whole component) and H = 2:
//  - the reference kernel's PropagateAt equals the former dense
//    propagation bit for bit on the queried roads;
//  - the production kernel's PropagateAt and dense Propagate equal the
//    same query run on a fresh thread, whose workspace holds no stamps.
TEST(ServePathDifferentialTest, StampedGspMatchesDensePropagation) {
  util::Rng rng(71);
  graph::MetroNetworkOptions small_options;
  small_options.num_roads = 600;
  graph::MetroNetworkOptions large_options;
  large_options.num_roads = 2500;
  const graph::Graph graphs[] = {*graph::MetroNetwork(small_options),
                                 *graph::MetroNetwork(large_options)};
  constexpr int kSlots = 2;
  const rtf::RtfModel models[] = {RandomModel(graphs[0], kSlots, rng),
                                  RandomModel(graphs[1], kSlots, rng)};
  int relaxed_queries = 0;
  for (int hop_limit : {0, kHops}) {
    for (int q = 0; q < 60; ++q) {
      SCOPED_TRACE("H " + std::to_string(hop_limit) + " query " +
                   std::to_string(q));
      const graph::Graph& g = graphs[q % 2];
      const rtf::RtfModel& model = models[q % 2];
      const int slot = (q / 2) % kSlots;
      // Probes around a query neighbourhood, a repeated probe (the later
      // value wins), and the queried roads to read.
      std::vector<graph::RoadId> sampled = RandomQuery(g, rng, q);
      std::vector<double> values;
      for (size_t i = 0; i < sampled.size(); ++i) {
        values.push_back(rng.UniformDouble(10.0, 100.0));
      }
      if (q % 3 == 0) {
        sampled.push_back(sampled.front());
        values.push_back(rng.UniformDouble(10.0, 100.0));
      }
      if (q % 7 == 6) {
        sampled.clear();
        values.clear();
      }
      std::vector<graph::RoadId> read = RandomQuery(g, rng, q + 1);
      for (graph::RoadId r : sampled) read.push_back(r);
      for (const graph::Adjacency& adj : g.Neighbors(read.front())) {
        read.push_back(adj.neighbor);
      }

      gsp::GspOptions options;
      options.hop_limit = hop_limit;
      options.epsilon = 1e-6;
      options.kernel = gsp::GspKernel::kReference;
      const gsp::SpeedPropagator reference(model, options);
      const auto stamped = reference.PropagateAt(slot, sampled, values, read);
      ASSERT_TRUE(stamped.ok());
      const std::vector<double> dense =
          OracleDensePropagate(model, reference, slot, sampled, values);
      ASSERT_EQ(stamped->speeds.size(), read.size());
      for (size_t i = 0; i < read.size(); ++i) {
        EXPECT_TRUE(Bitwise(stamped->speeds[i],
                            dense[static_cast<size_t>(read[i])]))
            << "road " << read[i];
      }
      relaxed_queries += stamped->relaxed > 0;

      options.kernel = gsp::GspKernel::kUnrolled;
      const gsp::SpeedPropagator unrolled(model, options);
      const auto at = unrolled.PropagateAt(slot, sampled, values, read);
      const auto full = unrolled.Propagate(slot, sampled, values);
      util::Result<gsp::GspReadout> fresh =
          util::Status::FailedPrecondition("not run");
      std::thread([&] {
        fresh = unrolled.PropagateAt(slot, sampled, values, read);
      }).join();
      ASSERT_TRUE(at.ok());
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(at->sweeps, fresh->sweeps);
      EXPECT_EQ(at->relaxed, fresh->relaxed);
      EXPECT_EQ(full->sweeps, fresh->sweeps);
      for (size_t i = 0; i < read.size(); ++i) {
        EXPECT_TRUE(Bitwise(at->speeds[i], fresh->speeds[i]));
        EXPECT_TRUE(Bitwise(full->speeds[static_cast<size_t>(read[i])],
                            fresh->speeds[i]));
      }
    }
  }
  EXPECT_GT(relaxed_queries, 80);
}

}  // namespace
}  // namespace crowdrtse::server
