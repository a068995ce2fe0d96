#ifndef CROWDRTSE_CROWD_TASK_ASSIGNMENT_H_
#define CROWDRTSE_CROWD_TASK_ASSIGNMENT_H_

#include <vector>

#include "crowd/cost_model.h"
#include "crowd/worker.h"
#include "crowd/worker_index.h"
#include "graph/graph.h"
#include "util/status.h"

namespace crowdrtse::crowd {

/// One task handed to one worker: report the speed of the road she is on.
struct TaskAssignment {
  WorkerId worker = -1;
  graph::RoadId road = graph::kInvalidRoad;
  int payment_units = 1;
};

/// The realised assignment for a crowdsourcing round.
struct AssignmentPlan {
  std::vector<TaskAssignment> assignments;
  /// Selected roads that could not collect their full answer quota from
  /// the workers present (OCS decided on road-level coverage; the platform
  /// must still find warm bodies).
  std::vector<graph::RoadId> underfilled_roads;
  int total_payment = 0;

  bool FullyStaffed() const { return underfilled_roads.empty(); }
};

/// The workers one crowdsourcing round touches, read from a WorkerIndex:
///  - by_id[i] points at the last worker whose id is ids[i] (a later
///    duplicate wins), or is null when no worker carries that id;
///  - on_road[j] lists the workers standing on roads[j] whose id is not in
///    `ids`, cleanest reporters first: ascending (noise_kmh, id), ties in
///    population order.
struct RoundWorkers {
  std::vector<const Worker*> by_id;
  std::vector<std::vector<const Worker*>> on_road;
};

/// Fills RoundWorkers for `ids` and `roads` (which must be distinct) from
/// `index`: one id lookup per id and one pass over each road's bucket, so
/// the cost follows the plan and the selected roads, not the population.
RoundWorkers GatherWorkers(const std::vector<WorkerId>& ids,
                           const std::vector<graph::RoadId>& roads,
                           const WorkerIndex& index);

/// Matches the OCS-selected roads to concrete workers: each selected road
/// needs cost_i answers, each worker can take at most one task per round
/// (she is driving — one report per slot). Workers are taken in ascending
/// noise order, so the cleanest reporters on a road are hired first. The
/// paper abstracts this step away ("she will be allocated with a task");
/// a running platform has to do it. Reads only the selected roads' index
/// buckets, and of each only the workers it hires.
util::Result<AssignmentPlan> AssignTasks(
    const std::vector<graph::RoadId>& selected_roads,
    const CostModel& costs, const WorkerIndex& index);

/// AssignTasks over a plain population: indexes `workers` over the cost
/// model's roads, then assigns from that index.
util::Result<AssignmentPlan> AssignTasks(
    const std::vector<graph::RoadId>& selected_roads,
    const CostModel& costs, const std::vector<Worker>& workers);

}  // namespace crowdrtse::crowd

#endif  // CROWDRTSE_CROWD_TASK_ASSIGNMENT_H_
