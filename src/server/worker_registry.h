#ifndef CROWDRTSE_SERVER_WORKER_REGISTRY_H_
#define CROWDRTSE_SERVER_WORKER_REGISTRY_H_

#include <span>
#include <vector>

#include "crowd/worker.h"
#include "crowd/worker_index.h"
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
///
/// Alongside the worker vector the registry keeps a crowd::WorkerIndex:
/// CSR road buckets of worker positions sorted by (noise_kmh, id), plus an
/// id table. The constructors, ReplaceWorkers and AdvanceSlot rebuild it
/// (each is O(population) already); every read — CountOn, WorkersOn,
/// CoveredAmong, and the serve path's assignment, probe and dispatch —
/// goes through it, so a query reads the buckets of its own roads and
/// never walks the population. Every worker's road must lie in
/// [0, graph.num_roads()); the constructors and ReplaceWorkers check it.
///
/// Not copyable: the index points into the registry's own worker vector.
class WorkerRegistry {
 public:
  /// Spawns the initial population uniformly over the network's roads (no
  /// workers at all on a graph without roads). The graph must outlive the
  /// registry.
  WorkerRegistry(const graph::Graph& graph,
                 const WorkerRegistryOptions& options, uint64_t seed);

  /// Wraps an explicit worker snapshot — e.g. a shard-local projection of
  /// a global registry with road ids remapped to the shard's subgraph.
  /// The snapshot's order is preserved (it breaks ties between otherwise
  /// equal workers, and duplicate ids resolve to the last one). AdvanceSlot
  /// works as usual over `graph`.
  WorkerRegistry(const graph::Graph& graph,
                 std::vector<crowd::Worker> workers,
                 const WorkerRegistryOptions& options, uint64_t seed);

  WorkerRegistry(const WorkerRegistry&) = delete;
  WorkerRegistry& operator=(const WorkerRegistry&) = delete;

  /// Replaces the whole population (e.g. re-projection after the global
  /// registry advanced a slot). Must not race with in-flight queries.
  void ReplaceWorkers(std::vector<crowd::Worker> workers);

  /// Advances one time slot: workers travel to adjacent roads and a small
  /// fraction of the population churns.
  void AdvanceSlot();

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const std::vector<crowd::Worker>& workers() const { return workers_; }

  /// The road-bucketed index over workers() (valid until the next
  /// AdvanceSlot or ReplaceWorkers).
  const crowd::WorkerIndex& index() const { return index_; }

  /// Distinct roads currently hosting at least one worker, ascending — the
  /// candidate set R^w for OCS over the whole map (one pass over the
  /// index's road offsets).
  std::vector<graph::RoadId> CoveredRoads() const;

  /// The roads of `roads` currently hosting at least one worker, ascending
  /// and distinct; ids off the graph are dropped. O(|roads| log |roads|) —
  /// the serve path's R^w restricted to the query's C-hop ball.
  std::vector<graph::RoadId> CoveredAmong(
      std::span<const graph::RoadId> roads) const;

  /// Number of workers currently on `road` (0 for an id off the graph).
  int CountOn(graph::RoadId road) const { return index_.CountOn(road); }

  /// The workers currently on `road`, cleanest first (e.g. to scope a
  /// per-worker crowd::FaultPlan to one road's population). Pointers are
  /// valid until the next AdvanceSlot.
  std::vector<const crowd::Worker*> WorkersOn(graph::RoadId road) const;

  /// Total slots advanced since construction.
  int current_slot_offset() const { return slot_offset_; }

 private:
  crowd::Worker SpawnWorker(crowd::WorkerId id);
  /// Checks every worker's road, rebuilds the index and moves next_id_
  /// past every id in the population.
  void IndexWorkers();

  const graph::Graph& graph_;
  WorkerRegistryOptions options_;
  util::Rng rng_;
  std::vector<crowd::Worker> workers_;
  crowd::WorkerIndex index_;
  crowd::WorkerId next_id_ = 0;
  int slot_offset_ = 0;
};

}  // namespace crowdrtse::server

#endif  // CROWDRTSE_SERVER_WORKER_REGISTRY_H_
