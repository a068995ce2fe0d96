#ifndef CROWDRTSE_SERVER_WORKER_REGISTRY_H_
#define CROWDRTSE_SERVER_WORKER_REGISTRY_H_

#include <vector>

#include "crowd/cost_model.h"
#include "crowd/worker.h"
#include "graph/graph.h"
#include "util/rng.h"
#include "util/status.h"

namespace crowdrtse::server {

/// Options of the dynamic worker population.
struct WorkerRegistryOptions {
  int num_workers = 1500;
  /// Per-slot probability that a worker moves to an adjacent road (workers
  /// are travelling, so their announced location drifts along the graph).
  double move_probability = 0.6;
  /// Per-slot probability that a worker logs off; an equal-size inflow
  /// keeps the population stationary.
  double churn_probability = 0.02;
  /// Answer quality spread: each worker draws a multiplicative bias and a
  /// noise level uniformly from these ranges.
  double min_bias = 0.96;
  double max_bias = 1.04;
  double min_noise_kmh = 0.5;
  double max_noise_kmh = 3.0;
};

/// The platform's live view of the crowd: which worker is on which road
/// right now. The paper's online stage selects crowdsourced roads from the
/// roads "where workers are currently distributed" — this registry is the
/// source of that R^w, and it changes from slot to slot as workers travel
/// (the reason fixed-observation-site regression baselines break down).
class WorkerRegistry {
 public:
  /// Spawns the initial population uniformly over the network's roads.
  /// The graph must outlive the registry.
  WorkerRegistry(const graph::Graph& graph,
                 const WorkerRegistryOptions& options, uint64_t seed);

  /// Wraps an explicit worker snapshot — e.g. a shard-local projection of
  /// a global registry with road ids remapped to the shard's subgraph.
  /// The snapshot's order is preserved (task assignment scans workers in
  /// vector order, so a projection that keeps the global order reproduces
  /// the global assignment on the shard). AdvanceSlot works as usual over
  /// `graph`.
  WorkerRegistry(const graph::Graph& graph,
                 std::vector<crowd::Worker> workers,
                 const WorkerRegistryOptions& options, uint64_t seed);

  /// Replaces the whole population (e.g. re-projection after the global
  /// registry advanced a slot). Must not race with in-flight queries.
  void ReplaceWorkers(std::vector<crowd::Worker> workers);

  /// Advances one time slot: workers travel to adjacent roads and a small
  /// fraction of the population churns.
  void AdvanceSlot();

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const std::vector<crowd::Worker>& workers() const { return workers_; }

  /// Distinct roads currently hosting at least `min_workers` workers —
  /// the candidate set R^w for OCS.
  std::vector<graph::RoadId> CoveredRoads(int min_workers = 1) const;

  /// Roads whose present workers can fill the road's full answer quota
  /// (CountOn(road) >= cost). Feeding OCS this stricter candidate set
  /// guarantees the later task assignment is fully staffed, at the price
  /// of a smaller R^w.
  std::vector<graph::RoadId> StaffableRoads(
      const crowd::CostModel& costs) const;

  /// Number of workers currently on `road`.
  int CountOn(graph::RoadId road) const;

  /// The workers currently on `road` (e.g. to scope a per-worker
  /// crowd::FaultPlan to one road's population). Pointers are valid until
  /// the next AdvanceSlot.
  std::vector<const crowd::Worker*> WorkersOn(graph::RoadId road) const;

  /// Total slots advanced since construction.
  int current_slot_offset() const { return slot_offset_; }

 private:
  crowd::Worker SpawnWorker(crowd::WorkerId id);

  const graph::Graph& graph_;
  WorkerRegistryOptions options_;
  util::Rng rng_;
  std::vector<crowd::Worker> workers_;
  crowd::WorkerId next_id_ = 0;
  int slot_offset_ = 0;
};

}  // namespace crowdrtse::server

#endif  // CROWDRTSE_SERVER_WORKER_REGISTRY_H_
