#include "server/worker_registry.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace crowdrtse::server {

WorkerRegistry::WorkerRegistry(const graph::Graph& graph,
                               const WorkerRegistryOptions& options,
                               uint64_t seed)
    : graph_(graph), options_(options), rng_(seed), index_(workers_, 0) {
  if (graph_.num_roads() > 0) {
    workers_.reserve(static_cast<size_t>(options.num_workers));
    for (int i = 0; i < options.num_workers; ++i) {
      workers_.push_back(SpawnWorker(next_id_++));
    }
  }
  IndexWorkers();
}

WorkerRegistry::WorkerRegistry(const graph::Graph& graph,
                               std::vector<crowd::Worker> workers,
                               const WorkerRegistryOptions& options,
                               uint64_t seed)
    : graph_(graph), options_(options), rng_(seed),
      workers_(std::move(workers)), index_(workers_, 0) {
  IndexWorkers();
}

void WorkerRegistry::ReplaceWorkers(std::vector<crowd::Worker> workers) {
  workers_ = std::move(workers);
  IndexWorkers();
}

void WorkerRegistry::IndexWorkers() {
  for (const crowd::Worker& w : workers_) {
    CROWDRTSE_CHECK(graph_.IsValidRoad(w.road));
    next_id_ = std::max(next_id_, w.id + 1);
  }
  index_.Rebuild(workers_, graph_.num_roads());
}

crowd::Worker WorkerRegistry::SpawnWorker(crowd::WorkerId id) {
  crowd::Worker w;
  w.id = id;
  w.road = static_cast<graph::RoadId>(
      rng_.UniformUint64(static_cast<uint64_t>(graph_.num_roads())));
  w.bias = rng_.UniformDouble(options_.min_bias, options_.max_bias);
  w.noise_kmh =
      rng_.UniformDouble(options_.min_noise_kmh, options_.max_noise_kmh);
  return w;
}

void WorkerRegistry::AdvanceSlot() {
  ++slot_offset_;
  for (crowd::Worker& w : workers_) {
    if (rng_.Bernoulli(options_.churn_probability)) {
      // Worker logs off; a fresh one logs on somewhere else.
      w = SpawnWorker(next_id_++);
    } else if (rng_.Bernoulli(options_.move_probability)) {
      const auto neighbors = graph_.Neighbors(w.road);
      if (!neighbors.empty()) {
        w.road = neighbors[static_cast<size_t>(
                               rng_.UniformUint64(neighbors.size()))]
                     .neighbor;
      }
    }
  }
  index_.Rebuild(workers_, graph_.num_roads());
}

std::vector<graph::RoadId> WorkerRegistry::CoveredRoads() const {
  std::vector<graph::RoadId> covered;
  for (graph::RoadId r = 0; r < graph_.num_roads(); ++r) {
    if (index_.CountOn(r) > 0) covered.push_back(r);
  }
  return covered;
}

std::vector<graph::RoadId> WorkerRegistry::CoveredAmong(
    std::span<const graph::RoadId> roads) const {
  std::vector<graph::RoadId> covered;
  for (graph::RoadId r : roads) {
    if (index_.CountOn(r) > 0) covered.push_back(r);
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  return covered;
}

std::vector<const crowd::Worker*> WorkerRegistry::WorkersOn(
    graph::RoadId road) const {
  std::vector<const crowd::Worker*> on_road;
  for (int32_t slot : index_.SlotsOn(road)) {
    on_road.push_back(&workers_[static_cast<size_t>(slot)]);
  }
  return on_road;
}

}  // namespace crowdrtse::server
