#include "crowd/crowd_simulator.h"

#include <algorithm>
#include <map>
#include <string>

namespace crowdrtse::crowd {

CrowdSimulator::CrowdSimulator(const CrowdSimOptions& options, util::Rng rng)
    : options_(options), rng_(rng) {}

util::Result<CrowdRound> CrowdSimulator::Probe(
    const std::vector<graph::RoadId>& roads, const CostModel& costs,
    const traffic::DayMatrix& truth, int slot) {
  if (slot < 0 || slot >= truth.num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  CrowdRound round;
  WorkerId next_worker = 0;
  for (graph::RoadId road : roads) {
    if (road < 0 || road >= truth.num_roads()) {
      return util::Status::InvalidArgument("road out of range: " +
                                           std::to_string(road));
    }
    if (road >= costs.num_roads()) {
      return util::Status::InvalidArgument("road missing from cost model: " +
                                           std::to_string(road));
    }
    const double true_speed = truth.At(slot, road);
    const int num_answers = std::max(1, costs.Cost(road));
    std::vector<SpeedAnswer> answers;
    answers.reserve(static_cast<size_t>(num_answers));
    for (int k = 0; k < num_answers; ++k) {
      SpeedAnswer answer;
      answer.worker = next_worker++;
      answer.road = road;
      if (rng_.Bernoulli(options_.outlier_rate)) {
        answer.reported_kmh = rng_.UniformDouble(2.0, 120.0);
      } else {
        const double bias =
            rng_.UniformDouble(options_.min_bias, options_.max_bias);
        const double noise = rng_.UniformDouble(options_.min_noise_kmh,
                                                options_.max_noise_kmh);
        answer.reported_kmh =
            std::max(0.0, bias * true_speed + rng_.Normal(0.0, noise));
      }
      answers.push_back(answer);
      round.raw_answers.push_back(answer);
    }
    util::Result<double> aggregated =
        AggregateAnswers(answers, options_.aggregation);
    if (!aggregated.ok()) return aggregated.status();
    ProbeResult probe;
    probe.road = road;
    probe.probed_kmh = *aggregated;
    probe.num_answers = num_answers;
    probe.paid_units = num_answers;  // one unit of payment per answer
    round.total_paid += probe.paid_units;
    round.probes.push_back(probe);
  }
  return round;
}

util::Result<CrowdRound> CrowdSimulator::ProbeWithAssignments(
    const AssignmentPlan& plan, const std::vector<Worker>& workers,
    const traffic::DayMatrix& truth, int slot) {
  return ProbeWithAssignments(plan, WorkerIndex(workers, 0), truth, slot);
}

util::Result<CrowdRound> CrowdSimulator::ProbeWithAssignments(
    const AssignmentPlan& plan, const WorkerIndex& index,
    const traffic::DayMatrix& truth, int slot) {
  if (slot < 0 || slot >= truth.num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  // Generate one answer per assignment, grouped by road.
  std::map<graph::RoadId, std::vector<SpeedAnswer>> answers_by_road;
  CrowdRound round;
  for (const TaskAssignment& task : plan.assignments) {
    if (task.road < 0 || task.road >= truth.num_roads()) {
      return util::Status::InvalidArgument("assigned road out of range: " +
                                           std::to_string(task.road));
    }
    const Worker* worker = index.FindById(task.worker);
    if (worker == nullptr) {
      return util::Status::InvalidArgument(
          "assignment references unknown worker " +
          std::to_string(task.worker));
    }
    const SpeedAnswer answer =
        GenerateAnswer(*worker, task.road, truth, slot);
    answers_by_road[task.road].push_back(answer);
    round.raw_answers.push_back(answer);
    round.total_paid += task.payment_units;
  }

  for (const auto& [road, answers] : answers_by_road) {
    util::Result<double> aggregated =
        AggregateAnswers(answers, options_.aggregation);
    if (!aggregated.ok()) return aggregated.status();
    ProbeResult probe;
    probe.road = road;
    probe.probed_kmh = *aggregated;
    probe.num_answers = static_cast<int>(answers.size());
    probe.paid_units = static_cast<int>(answers.size());
    round.probes.push_back(probe);
  }
  return round;
}

SpeedAnswer CrowdSimulator::GenerateAnswer(const Worker& worker,
                                           graph::RoadId road,
                                           const traffic::DayMatrix& truth,
                                           int slot) {
  const double true_speed = truth.At(slot, road);
  SpeedAnswer answer;
  answer.worker = worker.id;
  answer.road = road;
  if (rng_.Bernoulli(options_.outlier_rate)) {
    answer.reported_kmh = rng_.UniformDouble(2.0, 120.0);
  } else {
    answer.reported_kmh =
        std::max(0.0, worker.bias * true_speed +
                          rng_.Normal(0.0, worker.noise_kmh));
  }
  return answer;
}

}  // namespace crowdrtse::crowd
