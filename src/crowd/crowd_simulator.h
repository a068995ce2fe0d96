#ifndef CROWDRTSE_CROWD_CROWD_SIMULATOR_H_
#define CROWDRTSE_CROWD_CROWD_SIMULATOR_H_

#include <vector>

#include "crowd/aggregation.h"
#include "crowd/cost_model.h"
#include "crowd/task_assignment.h"
#include "crowd/worker.h"
#include "graph/graph.h"
#include "traffic/history_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace crowdrtse::crowd {

/// One probed road: the aggregated crowdsourced speed \hat v_i plus its
/// provenance.
struct ProbeResult {
  graph::RoadId road = graph::kInvalidRoad;
  double probed_kmh = 0.0;
  int num_answers = 0;
  int paid_units = 0;
};

/// The whole crowdsourcing round for a query.
struct CrowdRound {
  std::vector<ProbeResult> probes;
  std::vector<SpeedAnswer> raw_answers;
  int total_paid = 0;
};

/// Options for the answer generation.
struct CrowdSimOptions {
  AggregationPolicy aggregation = AggregationPolicy::kTrimmedMean;
  /// Multiplicative bias spread of ad-hoc (non-pool) answerers.
  double min_bias = 0.96;
  double max_bias = 1.04;
  /// Additive reading noise of ad-hoc answerers (km/h std-dev).
  double min_noise_kmh = 0.5;
  double max_noise_kmh = 3.0;
  /// Probability an answer is junk (device glitch / wrong road): replaced
  /// by a uniform speed in [2, 120] km/h. Exercises the robust aggregators.
  double outlier_rate = 0.0;
};

/// Simulates the "launch crowdsourcing" step: for each selected road,
/// cost-many answers are collected around the ground-truth slot speed and
/// aggregated. Each answer costs one unit of payment, so a round's total
/// payment equals the sum of selected roads' costs — exactly the budget
/// spend accounted by OCS.
class CrowdSimulator {
 public:
  CrowdSimulator(const CrowdSimOptions& options, util::Rng rng);

  /// Probes `roads` against the ground-truth speeds of `truth` at `slot`.
  /// The number of answers per road is its cost under `costs`; answerers
  /// are ad-hoc (bias/noise drawn from the options' ranges).
  util::Result<CrowdRound> Probe(const std::vector<graph::RoadId>& roads,
                                 const CostModel& costs,
                                 const traffic::DayMatrix& truth, int slot);

  /// Executes a concrete assignment plan: each assigned worker reports her
  /// road once, with *her own* persistent bias and noise (not the ad-hoc
  /// ranges). Underfilled roads simply aggregate fewer answers. `index`
  /// must hold every assigned worker id (resolved by WorkerIndex::FindById).
  util::Result<CrowdRound> ProbeWithAssignments(
      const AssignmentPlan& plan, const WorkerIndex& index,
      const traffic::DayMatrix& truth, int slot);

  /// ProbeWithAssignments over a plain population (indexed by id first).
  util::Result<CrowdRound> ProbeWithAssignments(
      const AssignmentPlan& plan, const std::vector<Worker>& workers,
      const traffic::DayMatrix& truth, int slot);

  /// One synthetic reading by `worker` for `road`: her persistent bias and
  /// noise applied to the ground truth at `slot` (or junk, with the
  /// options' outlier rate). Advances the simulator's RNG — the dispatch
  /// controller's answer source. `road` and `slot` must be in range.
  SpeedAnswer GenerateAnswer(const Worker& worker, graph::RoadId road,
                             const traffic::DayMatrix& truth, int slot);

 private:
  CrowdSimOptions options_;
  util::Rng rng_;
};

}  // namespace crowdrtse::crowd

#endif  // CROWDRTSE_CROWD_CROWD_SIMULATOR_H_
