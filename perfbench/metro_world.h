#ifndef CROWDRTSE_PERFBENCH_METRO_WORLD_H_
#define CROWDRTSE_PERFBENCH_METRO_WORLD_H_

// The 60k-road metropolitan world shared by metro_local and
// metro_sharded_socket: a deterministic MetroNetwork, a short synthetic
// day of history and a held-out "today" the crowd measures.

#include <utility>
#include <vector>

#include "core/crowd_rtse.h"
#include "crowd/crowd_simulator.h"
#include "crowd/worker.h"
#include "graph/graph.h"
#include "traffic/history_store.h"
#include "util/rng.h"

namespace crowdrtse::perfbench {

constexpr int kMetroRoads = 60000;
constexpr int kMetroSlots = 8;
constexpr int kMetroDays = 3;
/// Adjacent roads per query.
constexpr int kMetroQuerySize = 8;
constexpr int kMetroWorkersPerRoad = 2;
/// Slots a worker registry advances during set-up before serving: with 2 %
/// churn per slot, 1 - 0.98^256 > 99 % of the initial population has been
/// replaced by workers spawned at random roads.
constexpr int kMixSlots = 256;

struct MetroWorld {
  graph::Graph graph;
  std::vector<std::pair<double, double>> positions;
  traffic::HistoryStore history;
  traffic::DayMatrix truth;  // held-out day the crowd measures
};

/// Builds the world. Deterministic: it does not depend on the seed.
MetroWorld BuildMetroWorld();

/// C = H = 2 sparse closure with zero-gain candidate pruning.
core::CrowdRtseConfig MetroConfig();

/// `per_road` calibrated, noiseless workers on every road, ids in road
/// order.
std::vector<crowd::Worker> NoiselessWorkers(int num_roads, int per_road);

/// Answers equal the ground truth (bias 1, noise 0, no outliers).
crowd::CrowdSimOptions NoiselessCrowd();

/// `size` consecutive road ids starting at a uniformly drawn base.
std::vector<graph::RoadId> AdjacentRoads(util::Rng& rng, int num_roads,
                                         int size);

}  // namespace crowdrtse::perfbench

#endif  // CROWDRTSE_PERFBENCH_METRO_WORLD_H_
