#ifndef CROWDRTSE_CROWD_TRAJECTORY_H_
#define CROWDRTSE_CROWD_TRAJECTORY_H_

#include <vector>

#include "crowd/worker.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/road_geometry.h"
#include "traffic/history_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace crowdrtse::crowd {

/// One traversal of one road inside a trip, with minute-of-day timing.
struct TraversalEvent {
  graph::RoadId road = graph::kInvalidRoad;
  double enter_minute = 0.0;
  double exit_minute = 0.0;

  double DurationMinutes() const { return exit_minute - enter_minute; }
};

/// A worker's trip: the sequence of roads she actually drove, with timing
/// grounded in the day's true speeds. The gMission experiment asked
/// workers to "travel along such roads" and computed their speed from
/// localisation — this struct is that trace.
struct Trajectory {
  WorkerId worker = -1;
  std::vector<TraversalEvent> events;

  bool empty() const { return events.empty(); }
  double StartMinute() const {
    return events.empty() ? 0.0 : events.front().enter_minute;
  }
  double EndMinute() const {
    return events.empty() ? 0.0 : events.back().exit_minute;
  }
};

/// Options for trip simulation and answer derivation.
struct TrajectorySimOptions {
  /// GPS/odometry noise on the derived speed report (km/h std-dev).
  double measurement_noise_kmh = 1.0;
  /// Trips end at midnight (a traversal is dropped if it cannot finish).
  double day_end_minute = 24.0 * 60.0;
};

/// Simulates worker trips over a day's ground-truth speeds and turns the
/// traversals into crowd answers. A traversal's duration is
/// length / speed(entry slot); the derived report is the trip-measured
/// average speed of that road — exactly what a phone would compute.
class TrajectorySimulator {
 public:
  /// All references must outlive the simulator.
  TrajectorySimulator(const graph::Graph& graph,
                      const graph::RoadGeometry& geometry,
                      const traffic::DayMatrix& truth,
                      const TrajectorySimOptions& options, uint64_t seed);

  /// Drives the length-shortest route from `start` to `goal`, departing at
  /// `start_minute`. Fails if no route exists.
  util::Result<Trajectory> SimulateTrip(WorkerId worker,
                                        graph::RoadId start,
                                        graph::RoadId goal,
                                        double start_minute);

  /// A trip between two random distinct roads.
  util::Result<Trajectory> SimulateRandomTrip(WorkerId worker,
                                              double start_minute);

  /// Converts a trajectory to noisy speed answers, one per completed
  /// traversal.
  std::vector<SpeedAnswer> DeriveAnswers(const Trajectory& trajectory);

  /// The answers of `trajectory` whose traversal started inside `slot`.
  std::vector<SpeedAnswer> AnswersInSlot(const Trajectory& trajectory,
                                         int slot);

 private:
  const graph::Graph& graph_;
  const graph::RoadGeometry& geometry_;
  const traffic::DayMatrix& truth_;
  TrajectorySimOptions options_;
  util::Rng rng_;
  // Route-planning weights, one per edge (see the constructor), and the
  // reused Dijkstra buffers.
  std::vector<double> length_weights_;
  graph::DijkstraWorkspace dijkstra_;
};

}  // namespace crowdrtse::crowd

#endif  // CROWDRTSE_CROWD_TRAJECTORY_H_
