#include "metro_world.h"

#include <cmath>

#include "graph/generators.h"
#include "harness.h"

namespace crowdrtse::perfbench {
namespace {

/// West-east congestion gradient with per-slot waves and day-to-day jitter
/// (the moment estimator needs real variance); always comfortably positive.
double SpeedAt(int day, int slot, graph::RoadId road, double x) {
  const double base = 30.0 + 40.0 * x;
  const double wave = 6.0 * std::sin(0.7 * slot + 0.01 * road);
  const double jitter = 1.5 * (((day * 7 + slot * 3 + road) % 5) - 2);
  return base + wave + jitter;
}

}  // namespace

MetroWorld BuildMetroWorld() {
  MetroWorld world;
  graph::MetroNetworkOptions metro;
  metro.num_roads = kMetroRoads;
  util::Result<graph::Graph> graph =
      graph::MetroNetwork(metro, &world.positions);
  Require(graph.ok(), "metro network generation");
  world.graph = std::move(*graph);
  const int n = world.graph.num_roads();
  world.history = traffic::HistoryStore(n, kMetroDays, kMetroSlots);
  world.truth = traffic::DayMatrix(kMetroSlots, n);
  for (int slot = 0; slot < kMetroSlots; ++slot) {
    for (graph::RoadId r = 0; r < n; ++r) {
      const double x = world.positions[static_cast<size_t>(r)].first;
      for (int day = 0; day < kMetroDays; ++day) {
        world.history.At(day, slot, r) = SpeedAt(day, slot, r, x);
      }
      world.truth.At(slot, r) = SpeedAt(kMetroDays, slot, r, x);
    }
  }
  return world;
}

core::CrowdRtseConfig MetroConfig() {
  core::CrowdRtseConfig config;
  config.correlation_hop_radius = 2;
  config.gsp.hop_limit = 2;
  config.prune_zero_gain_candidates = true;
  return config;
}

std::vector<crowd::Worker> NoiselessWorkers(int num_roads, int per_road) {
  std::vector<crowd::Worker> workers;
  workers.reserve(static_cast<size_t>(num_roads) * per_road);
  crowd::WorkerId next_id = 0;
  for (graph::RoadId r = 0; r < num_roads; ++r) {
    for (int k = 0; k < per_road; ++k) {
      crowd::Worker w;
      w.id = next_id++;
      w.road = r;
      w.bias = 1.0;
      w.noise_kmh = 0.0;
      workers.push_back(w);
    }
  }
  return workers;
}

crowd::CrowdSimOptions NoiselessCrowd() {
  crowd::CrowdSimOptions options;
  options.min_bias = 1.0;
  options.max_bias = 1.0;
  options.min_noise_kmh = 0.0;
  options.max_noise_kmh = 0.0;
  options.outlier_rate = 0.0;
  return options;
}

std::vector<graph::RoadId> AdjacentRoads(util::Rng& rng, int num_roads,
                                         int size) {
  const graph::RoadId base = rng.UniformInt(0, num_roads - size);
  std::vector<graph::RoadId> roads;
  for (int k = 0; k < size; ++k) roads.push_back(base + k);
  return roads;
}

}  // namespace crowdrtse::perfbench
