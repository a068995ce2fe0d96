#include "rtf/ccd_trainer.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace crowdrtse::rtf {

namespace {

// A_i = sum_d (v_i^d - mu_i)^2 from precomputed moments.
double NodeResidualSq(double sum_v, double sum_vv, double mu, int days) {
  return sum_vv - 2.0 * mu * sum_v + static_cast<double>(days) * mu * mu;
}

// B_e = sum_d ((v_i - v_j) - mu_ij)^2, orientation-independent.
double EdgeResidualSq(double sum_d, double sum_dd, double mu_ij, int days) {
  return sum_dd - 2.0 * mu_ij * sum_d +
         static_cast<double>(days) * mu_ij * mu_ij;
}

}  // namespace

CcdTrainer::CcdTrainer(const graph::Graph& graph,
                       const traffic::HistoryStore& history,
                       CcdOptions options)
    : graph_(graph), history_(history), options_(options) {}

CcdTrainer::SlotStats CcdTrainer::ComputeStats(int slot) const {
  SlotStats stats;
  const int n = graph_.num_roads();
  const int m = graph_.num_edges();
  stats.num_days = history_.num_days();
  stats.sum_v.assign(static_cast<size_t>(n), 0.0);
  stats.sum_vv.assign(static_cast<size_t>(n), 0.0);
  stats.sum_d.assign(static_cast<size_t>(m), 0.0);
  stats.sum_dd.assign(static_cast<size_t>(m), 0.0);
  for (int day = 0; day < stats.num_days; ++day) {
    for (graph::RoadId r = 0; r < n; ++r) {
      const double v = history_.At(day, slot, r);
      stats.sum_v[static_cast<size_t>(r)] += v;
      stats.sum_vv[static_cast<size_t>(r)] += v * v;
    }
    for (graph::EdgeId e = 0; e < m; ++e) {
      const auto [i, j] = graph_.EdgeEndpoints(e);
      const double d = history_.At(day, slot, i) - history_.At(day, slot, j);
      stats.sum_d[static_cast<size_t>(e)] += d;
      stats.sum_dd[static_cast<size_t>(e)] += d * d;
    }
  }
  return stats;
}

double CcdTrainer::LogLikelihood(const RtfModel& model, int slot) const {
  const SlotStats stats = ComputeStats(slot);
  const int days = stats.num_days;
  double ll = 0.0;
  for (graph::RoadId r = 0; r < graph_.num_roads(); ++r) {
    const double mu = model.Mu(slot, r);
    const double sigma = model.Sigma(slot, r);
    const double a = NodeResidualSq(stats.sum_v[static_cast<size_t>(r)],
                                    stats.sum_vv[static_cast<size_t>(r)],
                                    mu, days);
    ll -= a / (sigma * sigma);
    if (options_.use_normalized_likelihood) {
      ll -= static_cast<double>(days) * std::log(sigma * sigma);
    }
  }
  for (graph::EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const auto [i, j] = graph_.EdgeEndpoints(e);
    const double mu_ij = model.PairMean(slot, i, j);
    const double u = model.PairVariance(slot, e);
    const double b = EdgeResidualSq(stats.sum_d[static_cast<size_t>(e)],
                                    stats.sum_dd[static_cast<size_t>(e)],
                                    mu_ij, days);
    // The edge term appears in both endpoints' neighbour sums in Eq. (5).
    ll -= 2.0 * b / u;
    if (options_.use_normalized_likelihood) {
      ll -= 2.0 * static_cast<double>(days) * std::log(u);
    }
  }
  return ll;
}

double CcdTrainer::MuGradient(const RtfModel& model, int slot,
                              const SlotStats& stats, graph::RoadId i) const {
  const int days = stats.num_days;
  const double sigma_i = model.Sigma(slot, i);
  // Node term: d/dmu_i [-(sum_d (v-mu)^2)/sigma^2] = 2 R_i / sigma^2.
  const double residual_sum = stats.sum_v[static_cast<size_t>(i)] -
                              static_cast<double>(days) * model.Mu(slot, i);
  double grad = 2.0 * residual_sum / (sigma_i * sigma_i);
  // Pairwise terms (each edge counted twice in Eq. 5).
  for (const graph::Adjacency& adj : graph_.Neighbors(i)) {
    const auto [a, b] = graph_.EdgeEndpoints(adj.edge);
    // Orient the stored difference moments as i -> neighbour.
    const double oriented_sum = (a == i)
                                    ? stats.sum_d[static_cast<size_t>(adj.edge)]
                                    : -stats.sum_d[static_cast<size_t>(adj.edge)];
    const double mu_ij = model.PairMean(slot, i, adj.neighbor);
    const double s_ij = oriented_sum - static_cast<double>(days) * mu_ij;
    grad += 4.0 * s_ij / model.PairVariance(slot, adj.edge);
  }
  return grad;
}

double CcdTrainer::SigmaGradient(const RtfModel& model, int slot,
                                 const SlotStats& stats,
                                 graph::RoadId i) const {
  const int days = stats.num_days;
  const double sigma_i = model.Sigma(slot, i);
  const double mu_i = model.Mu(slot, i);
  const double a = NodeResidualSq(stats.sum_v[static_cast<size_t>(i)],
                                  stats.sum_vv[static_cast<size_t>(i)],
                                  mu_i, days);
  double grad = 2.0 * a / (sigma_i * sigma_i * sigma_i);
  if (options_.use_normalized_likelihood) {
    grad -= 2.0 * static_cast<double>(days) / sigma_i;
  }
  for (const graph::Adjacency& adj : graph_.Neighbors(i)) {
    const double mu_ij = model.PairMean(slot, i, adj.neighbor);
    const double b = EdgeResidualSq(stats.sum_d[static_cast<size_t>(adj.edge)],
                                    stats.sum_dd[static_cast<size_t>(adj.edge)],
                                    // orientation cancels in the square
                                    (graph_.EdgeEndpoints(adj.edge).first == i)
                                        ? mu_ij
                                        : -mu_ij,
                                    days);
    const double u = model.PairVariance(slot, adj.edge);
    const double sigma_j = model.Sigma(slot, adj.neighbor);
    const double rho = model.Rho(slot, adj.edge);
    const double du_dsigma = 2.0 * sigma_i - 2.0 * rho * sigma_j;
    double factor = b / (u * u);
    if (options_.use_normalized_likelihood) {
      factor -= static_cast<double>(days) / u;
    }
    grad += 2.0 * factor * du_dsigma;
  }
  return grad;
}

double CcdTrainer::RhoGradient(const RtfModel& model, int slot,
                               const SlotStats& stats,
                               graph::EdgeId e) const {
  const int days = stats.num_days;
  const auto [i, j] = graph_.EdgeEndpoints(e);
  const double mu_ij = model.PairMean(slot, i, j);
  const double b = EdgeResidualSq(stats.sum_d[static_cast<size_t>(e)],
                                  stats.sum_dd[static_cast<size_t>(e)],
                                  mu_ij, days);
  const double u = model.PairVariance(slot, e);
  const double sigma_i = model.Sigma(slot, i);
  const double sigma_j = model.Sigma(slot, j);
  double factor = b / (u * u);
  if (options_.use_normalized_likelihood) {
    factor -= static_cast<double>(days) / u;
  }
  // du/drho = -2 sigma_i sigma_j; the edge term is counted twice in Eq. 5.
  return 2.0 * factor * (-2.0 * sigma_i * sigma_j);
}

double CcdTrainer::MaxMuGradient(const RtfModel& model, int slot) const {
  const SlotStats stats = ComputeStats(slot);
  double max_grad = 0.0;
  for (graph::RoadId r = 0; r < graph_.num_roads(); ++r) {
    max_grad = std::max(max_grad,
                        std::fabs(MuGradient(model, slot, stats, r)));
  }
  return max_grad;
}

util::Result<CcdReport> CcdTrainer::TrainSlot(RtfModel& model,
                                              int slot) const {
  if (slot < 0 || slot >= model.num_slots() ||
      slot >= history_.num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  if (history_.num_roads() != graph_.num_roads()) {
    return util::Status::InvalidArgument(
        "history road count does not match the graph");
  }
  if (options_.learning_rate <= 0.0) {
    return util::Status::InvalidArgument("learning_rate must be positive");
  }

  const SlotStats stats = ComputeStats(slot);
  const int days = stats.num_days;
  CcdReport report;
  // Normalise the step by the data scale so lambda = 0.1 behaves the same
  // for 2-day and 90-day histories (gradients scale linearly with D).
  const double step = options_.learning_rate / static_cast<double>(days);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    double max_mu_grad = 0.0;
    if (options_.update_mu) {
      for (graph::RoadId r = 0; r < graph_.num_roads(); ++r) {
        const double grad = MuGradient(model, slot, stats, r);
        max_mu_grad = std::max(max_mu_grad, std::fabs(grad));
        model.SetMu(slot, r, model.Mu(slot, r) + step * grad);
      }
    } else {
      max_mu_grad = 0.0;
      for (graph::RoadId r = 0; r < graph_.num_roads(); ++r) {
        max_mu_grad = std::max(
            max_mu_grad, std::fabs(MuGradient(model, slot, stats, r)));
      }
    }
    if (options_.update_sigma) {
      for (graph::RoadId r = 0; r < graph_.num_roads(); ++r) {
        const double grad = SigmaGradient(model, slot, stats, r);
        const double updated = model.Sigma(slot, r) + step * grad;
        model.SetSigma(slot, r, std::max(updated, RtfModel::kMinSigma));
      }
    }
    if (options_.update_rho) {
      for (graph::EdgeId e = 0; e < graph_.num_edges(); ++e) {
        const double grad = RhoGradient(model, slot, stats, e);
        const double updated = model.Rho(slot, e) + step * grad;
        model.SetRho(slot, e,
                     std::clamp(updated, RtfModel::kMinRho,
                                RtfModel::kMaxRho));
      }
    }
    report.iterations = iter + 1;
    if (options_.record_gradient_history) {
      report.mu_gradient_history.push_back(max_mu_grad);
    }
    // Convergence on the per-day-normalised mu gradient (Fig. 5 metric).
    report.final_max_mu_gradient = max_mu_grad / static_cast<double>(days);
    if (report.final_max_mu_gradient < options_.mu_gradient_tolerance) {
      report.converged = true;
      break;
    }
  }
  report.final_log_likelihood = LogLikelihood(model, slot);
  return report;
}

}  // namespace crowdrtse::rtf
