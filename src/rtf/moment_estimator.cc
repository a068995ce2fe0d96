#include "rtf/moment_estimator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "traffic/time_slots.h"

namespace crowdrtse::rtf {

util::Result<RtfModel> EstimateByMoments(
    const graph::Graph& graph, const traffic::HistoryStore& history,
    const MomentEstimatorOptions& options) {
  if (history.num_roads() != graph.num_roads()) {
    return util::Status::InvalidArgument(
        "history road count does not match the graph");
  }
  if (history.num_days() < 2) {
    return util::Status::InvalidArgument(
        "need at least 2 historical days to estimate variances");
  }
  if (options.slot_window < 0) {
    return util::Status::InvalidArgument("slot_window must be >= 0");
  }

  const int num_slots = history.num_slots();
  const int num_days = history.num_days();
  const size_t num_roads = static_cast<size_t>(graph.num_roads());
  const size_t num_edges = static_cast<size_t>(graph.num_edges());
  RtfModel model(graph, num_slots);

  // Welford state of every road, fed one contiguous (day, slot) row at a
  // time: the same samples, order and arithmetic as util::RunningStats on
  // each road's pooled series, so mu and sigma are bit-identical to it. An
  // edge's util::RunningCovariance would track its endpoints' means and
  // second moments exactly as these do, so an edge only keeps its
  // co-moment, fed with the row's pre-update delta of one endpoint and
  // post-update residual of the other.
  std::vector<double> mean(num_roads);
  std::vector<double> m2(num_roads);
  std::vector<double> delta(num_roads);
  std::vector<double> residual(num_roads);
  std::vector<double> comoment(num_edges);

  for (int slot = 0; slot < num_slots; ++slot) {
    std::fill(mean.begin(), mean.end(), 0.0);
    std::fill(m2.begin(), m2.end(), 0.0);
    std::fill(comoment.begin(), comoment.end(), 0.0);
    size_t count = 0;
    for (int w = -options.slot_window; w <= options.slot_window; ++w) {
      const int s = (slot + w % num_slots + num_slots) % num_slots;
      for (int day = 0; day < num_days; ++day) {
        const double* row = history.SlotPtr(day, s);
        const double n = static_cast<double>(++count);
        for (size_t r = 0; r < num_roads; ++r) {
          const double x = row[r];
          const double d = x - mean[r];
          mean[r] += d / n;
          const double after = x - mean[r];
          m2[r] += d * after;
          delta[r] = d;
          residual[r] = after;
        }
        for (size_t e = 0; e < num_edges; ++e) {
          const auto [i, j] =
              graph.EdgeEndpoints(static_cast<graph::EdgeId>(e));
          comoment[e] += delta[static_cast<size_t>(i)] *
                         residual[static_cast<size_t>(j)];
        }
      }
    }
    // count >= 2 because num_days >= 2.
    const double dof = static_cast<double>(count - 1);
    for (size_t r = 0; r < num_roads; ++r) {
      const auto road = static_cast<graph::RoadId>(r);
      model.SetMu(slot, road, mean[r]);
      model.SetSigma(slot, road,
                     std::max(std::sqrt(m2[r] / dof), options.min_sigma));
    }
    for (size_t e = 0; e < num_edges; ++e) {
      const auto [i, j] = graph.EdgeEndpoints(static_cast<graph::EdgeId>(e));
      const double vx = m2[static_cast<size_t>(i)] / dof;
      const double vy = m2[static_cast<size_t>(j)] / dof;
      const double correlation =
          vx <= 0.0 || vy <= 0.0 ? 0.0
                                 : comoment[e] / dof / std::sqrt(vx * vy);
      // The paper constrains rho to [0, 1]; anti-correlated samples clamp
      // to the minimum rather than flipping sign.
      model.SetRho(slot, static_cast<graph::EdgeId>(e),
                   std::clamp(correlation, RtfModel::kMinRho,
                              RtfModel::kMaxRho));
    }
  }
  model.ClampParameters();
  return model;
}

}  // namespace crowdrtse::rtf
