#include "core/theta_tuner.h"

#include <algorithm>
#include <string>

#include "eval/metrics.h"
#include "gsp/propagation.h"
#include "ocs/greedy_selectors.h"
#include "ocs/ocs_problem.h"
#include "rtf/correlation_cache.h"
#include "rtf/correlation_table.h"
#include "rtf/moment_estimator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crowdrtse::core {

util::Result<ThetaTunerResult> TuneTheta(
    const graph::Graph& graph, const traffic::HistoryStore& history,
    const crowd::CostModel& costs, const ThetaTunerOptions& options) {
  if (options.candidate_thetas.empty()) {
    return util::Status::InvalidArgument("no candidate thetas");
  }
  for (double theta : options.candidate_thetas) {
    if (!(theta > 0.0 && theta <= 1.0)) {
      return util::Status::InvalidArgument("theta must be in (0, 1]");
    }
  }
  if (options.validation_days < 1 ||
      options.validation_days >= history.num_days() - 1) {
    return util::Status::InvalidArgument(
        "validation_days must leave at least 2 training days");
  }
  if (options.query_size < 1 ||
      options.query_size > graph.num_roads()) {
    return util::Status::InvalidArgument("bad query size");
  }
  for (int slot : options.slots) {
    if (slot < 0 || slot >= history.num_slots()) {
      return util::Status::OutOfRange("slot out of range: " +
                                      std::to_string(slot));
    }
  }

  // --- split: train on the prefix, validate on the suffix --------------
  const int train_days = history.num_days() - options.validation_days;
  traffic::HistoryStore train(history.num_roads(), train_days,
                              history.num_slots());
  for (int day = 0; day < train_days; ++day) {
    for (int slot = 0; slot < history.num_slots(); ++slot) {
      std::copy_n(history.SlotPtr(day, slot), history.num_roads(),
                  train.SlotPtr(day, slot));
    }
  }
  util::Result<rtf::RtfModel> model =
      rtf::EstimateByMoments(graph, train, {});
  if (!model.ok()) return model.status();

  // --- fixed query + candidate set across all folds --------------------
  util::Rng rng(options.seed);
  std::vector<graph::RoadId> queried;
  for (int pick : rng.SampleWithoutReplacement(graph.num_roads(),
                                               options.query_size)) {
    queried.push_back(pick);
  }
  std::vector<graph::RoadId> candidates;
  for (graph::RoadId r = 0; r < graph.num_roads(); ++r) {
    candidates.push_back(r);
  }
  const gsp::SpeedPropagator propagator(*model, {});
  // Gamma_R for a slot is identical across candidate thetas; the cache
  // computes each slot once (with the Dijkstra fan-out) instead of
  // |thetas| times, in the configured path mode.
  rtf::CorrelationCache gamma_cache;
  const auto compute_gamma =
      [&model, &options](int s) {
        return rtf::CorrelationTable::Compute(*model, s, options.path_mode,
                                              &util::ThreadPool::Shared());
      };

  ThetaTunerResult result;
  result.scores.reserve(options.candidate_thetas.size());
  for (double theta : options.candidate_thetas) {
    double mape_sum = 0.0;
    int cells = 0;
    for (int slot : options.slots) {
      util::Result<rtf::CorrelationCache::TablePtr> table =
          gamma_cache.GetOrCompute(slot, compute_gamma);
      if (!table.ok()) return table.status();
      std::vector<double> weights;
      for (graph::RoadId r : queried) {
        weights.push_back(model->Sigma(slot, r));
      }
      util::Result<ocs::OcsProblem> problem = ocs::OcsProblem::Create(
          **table, queried, weights, candidates, costs, options.budget,
          theta);
      if (!problem.ok()) return problem.status();
      const ocs::OcsSolution selection = ocs::LazyHybridGreedy(*problem);
      for (int day = train_days; day < history.num_days(); ++day) {
        // Noiseless probes: the tuning signal is the selection shape, not
        // the crowd noise.
        std::vector<double> probes;
        std::vector<double> truth(static_cast<size_t>(graph.num_roads()));
        for (graph::RoadId r = 0; r < graph.num_roads(); ++r) {
          truth[static_cast<size_t>(r)] = history.At(day, slot, r);
        }
        for (graph::RoadId r : selection.roads) {
          probes.push_back(truth[static_cast<size_t>(r)]);
        }
        util::Result<gsp::GspResult> estimate =
            propagator.Propagate(slot, selection.roads, probes);
        if (!estimate.ok()) return estimate.status();
        util::Result<eval::QualityMetrics> quality =
            eval::ComputeQuality(estimate->speeds, truth, queried);
        if (!quality.ok()) return quality.status();
        mape_sum += quality->mape;
        ++cells;
      }
    }
    ThetaScore score;
    score.theta = theta;
    score.mape = cells > 0 ? mape_sum / cells : 0.0;
    result.scores.push_back(score);
  }
  // Winner: lowest MAPE; ties go to the smaller theta (more diversity).
  result.best_theta = result.scores.front().theta;
  double best_mape = result.scores.front().mape;
  for (const ThetaScore& score : result.scores) {
    if (score.mape < best_mape - 1e-12 ||
        (score.mape <= best_mape + 1e-12 &&
         score.theta < result.best_theta)) {
      best_mape = std::min(best_mape, score.mape);
      result.best_theta = score.theta;
    }
  }
  return result;
}

}  // namespace crowdrtse::core
