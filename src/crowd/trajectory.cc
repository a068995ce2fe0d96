#include "crowd/trajectory.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "traffic/time_slots.h"

namespace crowdrtse::crowd {

TrajectorySimulator::TrajectorySimulator(
    const graph::Graph& graph, const graph::RoadGeometry& geometry,
    const traffic::DayMatrix& truth, const TrajectorySimOptions& options,
    uint64_t seed)
    : graph_(graph),
      geometry_(geometry),
      truth_(truth),
      options_(options),
      rng_(seed) {
  // Drivers plan by distance: edge i-j costs the mean length of its two
  // roads, close enough for a road-as-vertex model.
  length_weights_.resize(static_cast<size_t>(graph_.num_edges()));
  for (graph::EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const auto [a, b] = graph_.EdgeEndpoints(e);
    length_weights_[static_cast<size_t>(e)] =
        0.5 * (geometry_.LengthKm(a) + geometry_.LengthKm(b));
  }
}

util::Result<Trajectory> TrajectorySimulator::SimulateTrip(
    WorkerId worker, graph::RoadId start, graph::RoadId goal,
    double start_minute) {
  if (!graph_.IsValidRoad(start) || !graph_.IsValidRoad(goal)) {
    return util::Status::InvalidArgument("trip endpoints out of range");
  }
  if (start_minute < 0.0 || start_minute >= options_.day_end_minute) {
    return util::Status::InvalidArgument("start minute outside the day");
  }
  // Length-shortest route; the realised timing then depends on the day's
  // true speeds.
  graph::DijkstraInto(graph_, start, length_weights_, dijkstra_);
  const std::vector<graph::RoadId> route =
      graph::ReconstructPath(dijkstra_, start, goal);
  if (route.empty()) {
    return util::Status::NotFound("no route between roads " +
                                  std::to_string(start) + " and " +
                                  std::to_string(goal));
  }

  Trajectory trajectory;
  trajectory.worker = worker;
  double clock = start_minute;
  for (graph::RoadId road : route) {
    const int slot = std::min(
        traffic::kSlotsPerDay - 1,
        static_cast<int>(clock / traffic::kMinutesPerSlot));
    const double speed = truth_.At(slot, road);
    const double minutes = geometry_.TravelMinutes(road, speed);
    if (!std::isfinite(minutes) ||
        clock + minutes > options_.day_end_minute) {
      break;  // the trip cannot finish this traversal today
    }
    TraversalEvent event;
    event.road = road;
    event.enter_minute = clock;
    event.exit_minute = clock + minutes;
    trajectory.events.push_back(event);
    clock += minutes;
  }
  return trajectory;
}

util::Result<Trajectory> TrajectorySimulator::SimulateRandomTrip(
    WorkerId worker, double start_minute) {
  if (graph_.num_roads() < 2) {
    return util::Status::FailedPrecondition("need at least 2 roads");
  }
  const auto pick = [&] {
    return static_cast<graph::RoadId>(
        rng_.UniformUint64(static_cast<uint64_t>(graph_.num_roads())));
  };
  graph::RoadId start = pick();
  graph::RoadId goal = pick();
  for (int attempt = 0; attempt < 32 && goal == start; ++attempt) {
    goal = pick();
  }
  return SimulateTrip(worker, start, goal, start_minute);
}

std::vector<SpeedAnswer> TrajectorySimulator::DeriveAnswers(
    const Trajectory& trajectory) {
  std::vector<SpeedAnswer> answers;
  answers.reserve(trajectory.events.size());
  for (const TraversalEvent& event : trajectory.events) {
    const double minutes = event.DurationMinutes();
    if (minutes <= 0.0) continue;
    SpeedAnswer answer;
    answer.worker = trajectory.worker;
    answer.road = event.road;
    const double measured =
        geometry_.LengthKm(event.road) / minutes * 60.0;
    answer.reported_kmh = std::max(
        0.0, measured + rng_.Normal(0.0, options_.measurement_noise_kmh));
    answers.push_back(answer);
  }
  return answers;
}

std::vector<SpeedAnswer> TrajectorySimulator::AnswersInSlot(
    const Trajectory& trajectory, int slot) {
  const std::vector<SpeedAnswer> all = DeriveAnswers(trajectory);
  std::vector<SpeedAnswer> filtered;
  filtered.reserve(all.size());
  size_t answer_index = 0;
  for (const TraversalEvent& event : trajectory.events) {
    if (event.DurationMinutes() <= 0.0) continue;
    const int event_slot =
        std::min(traffic::kSlotsPerDay - 1,
                 static_cast<int>(event.enter_minute /
                                  traffic::kMinutesPerSlot));
    if (event_slot == slot) filtered.push_back(all[answer_index]);
    ++answer_index;
  }
  return filtered;
}

}  // namespace crowdrtse::crowd
