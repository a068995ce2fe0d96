#include "crowd/task_assignment.h"

#include <algorithm>
#include <set>
#include <string>

namespace crowdrtse::crowd {

RoundWorkers GatherWorkers(const std::vector<WorkerId>& ids,
                           const std::vector<graph::RoadId>& roads,
                           const WorkerIndex& index) {
  RoundWorkers out;
  out.by_id.reserve(ids.size());
  for (WorkerId id : ids) out.by_id.push_back(index.FindById(id));
  std::vector<WorkerId> listed = ids;
  std::sort(listed.begin(), listed.end());
  const std::vector<Worker>& workers = index.workers();
  out.on_road.resize(roads.size());
  for (size_t j = 0; j < roads.size(); ++j) {
    for (int32_t slot : index.SlotsOn(roads[j])) {
      const Worker& w = workers[static_cast<size_t>(slot)];
      if (!std::binary_search(listed.begin(), listed.end(), w.id)) {
        out.on_road[j].push_back(&w);
      }
    }
  }
  return out;
}

util::Result<AssignmentPlan> AssignTasks(
    const std::vector<graph::RoadId>& selected_roads,
    const CostModel& costs, const WorkerIndex& index) {
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

  // Each road's bucket is already cleanest-first: hire from its front.
  const std::vector<Worker>& workers = index.workers();
  AssignmentPlan plan;
  for (graph::RoadId road : selected_roads) {
    const std::span<const int32_t> bucket = index.SlotsOn(road);
    const int quota = std::max(1, costs.Cost(road));
    const int hired = std::min(quota, static_cast<int>(bucket.size()));
    for (int k = 0; k < hired; ++k) {
      TaskAssignment task;
      const int32_t slot = bucket[static_cast<size_t>(k)];
      task.worker = workers[static_cast<size_t>(slot)].id;
      task.road = road;
      task.payment_units = 1;
      plan.total_payment += task.payment_units;
      plan.assignments.push_back(task);
    }
    if (hired < quota) plan.underfilled_roads.push_back(road);
  }
  return plan;
}

util::Result<AssignmentPlan> AssignTasks(
    const std::vector<graph::RoadId>& selected_roads,
    const CostModel& costs, const std::vector<Worker>& workers) {
  return AssignTasks(selected_roads, costs,
                     WorkerIndex(workers, costs.num_roads()));
}

}  // namespace crowdrtse::crowd
