#include "gsp/uncertainty.h"

#include <algorithm>
#include <map>
#include <string>

#include "math/dense_matrix.h"
#include "math/linear_solver.h"

namespace crowdrtse::gsp {

namespace {

util::Status ValidateInputs(const rtf::RtfModel& model, int slot,
                            const std::vector<graph::RoadId>& sampled) {
  if (slot < 0 || slot >= model.num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  for (graph::RoadId r : sampled) {
    if (r < 0 || r >= model.num_roads()) {
      return util::Status::InvalidArgument("sampled road out of range: " +
                                           std::to_string(r));
    }
  }
  return util::Status::Ok();
}

/// Diagonal of the quadratic-form matrix A for road i.
double DiagonalA(const rtf::RtfModel& model, int slot, graph::RoadId i) {
  const double sigma = model.Sigma(slot, i);
  double diag = 1.0 / (sigma * sigma);
  for (const graph::Adjacency& adj : model.graph().Neighbors(i)) {
    diag += 1.0 / model.PairVariance(slot, adj.edge);
  }
  return diag;
}

}  // namespace

util::Result<std::vector<double>> ExactPosteriorVariances(
    const rtf::RtfModel& model, int slot,
    const std::vector<graph::RoadId>& sampled_roads) {
  CROWDRTSE_RETURN_IF_ERROR(ValidateInputs(model, slot, sampled_roads));
  const graph::Graph& g = model.graph();
  const int n = g.num_roads();
  std::vector<bool> pinned(static_cast<size_t>(n), false);
  for (graph::RoadId r : sampled_roads) pinned[static_cast<size_t>(r)] = true;

  std::map<graph::RoadId, size_t> index;
  std::vector<graph::RoadId> free_roads;
  for (graph::RoadId r = 0; r < n; ++r) {
    if (!pinned[static_cast<size_t>(r)]) {
      index[r] = free_roads.size();
      free_roads.push_back(r);
    }
  }
  const size_t m = free_roads.size();
  std::vector<double> variance(static_cast<size_t>(n), 0.0);
  if (m == 0) return variance;

  // Precision P = 2A restricted to the free variables (pinning drops the
  // pinned rows/columns; their cross terms stay in the free diagonals).
  math::DenseMatrix p(m, m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    const graph::RoadId i = free_roads[k];
    p.At(k, k) = 2.0 * DiagonalA(model, slot, i);
    for (const graph::Adjacency& adj : g.Neighbors(i)) {
      if (!pinned[static_cast<size_t>(adj.neighbor)]) {
        p.At(k, index.at(adj.neighbor)) -=
            2.0 / model.PairVariance(slot, adj.edge);
      }
    }
  }
  util::Result<math::CholeskyFactor> factor =
      math::CholeskyFactor::Factorize(p);
  if (!factor.ok()) return factor.status();
  // Var_i = (P^-1)_ii = e_i^T P^-1 e_i.
  std::vector<double> unit(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    unit[k] = 1.0;
    const std::vector<double> column = factor->Solve(unit);
    variance[static_cast<size_t>(free_roads[k])] = column[k];
    unit[k] = 0.0;
  }
  return variance;
}

util::Result<std::vector<double>> LocalConditionalVariances(
    const rtf::RtfModel& model, int slot,
    const std::vector<graph::RoadId>& sampled_roads) {
  CROWDRTSE_RETURN_IF_ERROR(ValidateInputs(model, slot, sampled_roads));
  const int n = model.num_roads();
  std::vector<double> variance(static_cast<size_t>(n), 0.0);
  std::vector<bool> pinned(static_cast<size_t>(n), false);
  for (graph::RoadId r : sampled_roads) pinned[static_cast<size_t>(r)] = true;
  for (graph::RoadId r = 0; r < n; ++r) {
    if (pinned[static_cast<size_t>(r)]) continue;
    variance[static_cast<size_t>(r)] = 1.0 / (2.0 * DiagonalA(model, slot, r));
  }
  return variance;
}

util::Result<std::vector<double>> DegradedAwareVariances(
    const rtf::RtfModel& model, int slot,
    const std::vector<graph::RoadId>& roads,
    const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<graph::RoadId>& degraded_roads, double inflation) {
  if (inflation < 1.0) {
    return util::Status::InvalidArgument(
        "degraded variance inflation must be >= 1");
  }
  CROWDRTSE_RETURN_IF_ERROR(ValidateInputs(model, slot, degraded_roads));
  CROWDRTSE_RETURN_IF_ERROR(ValidateInputs(model, slot, sampled_roads));
  for (graph::RoadId r : roads) {
    if (r < 0 || r >= model.num_roads()) {
      return util::Status::InvalidArgument("reported road out of range: " +
                                           std::to_string(r));
    }
  }
  std::vector<graph::RoadId> sampled = sampled_roads;
  std::sort(sampled.begin(), sampled.end());
  std::vector<graph::RoadId> degraded = degraded_roads;
  std::sort(degraded.begin(), degraded.end());
  std::vector<double> variance;
  variance.reserve(roads.size());
  for (graph::RoadId r : roads) {
    if (std::binary_search(degraded.begin(), degraded.end(), r)) {
      const double sigma = model.Sigma(slot, r);
      variance.push_back(inflation * sigma * sigma);
    } else if (std::binary_search(sampled.begin(), sampled.end(), r)) {
      variance.push_back(0.0);
    } else {
      variance.push_back(1.0 / (2.0 * DiagonalA(model, slot, r)));
    }
  }
  return variance;
}

}  // namespace crowdrtse::gsp
