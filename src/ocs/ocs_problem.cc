#include "ocs/ocs_problem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace crowdrtse::ocs {

namespace {

/// True iff some road id appears twice: one sort of a scratch copy.
bool HasDuplicate(const std::vector<graph::RoadId>& roads) {
  std::vector<graph::RoadId> sorted = roads;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

/// Sum over queried roads of weight * (corr - best) where corr beats best:
/// the marginal gain of one candidate, in queried-road order.
double MarginalGain(const double* corr, const std::vector<double>& best,
                    const std::vector<double>& weights) {
  double gain = 0.0;
  for (size_t i = 0; i < best.size(); ++i) {
    if (corr[i] > best[i]) {
      gain += weights[i] * (corr[i] - best[i]);
    }
  }
  return gain;
}

}  // namespace

util::Result<OcsProblem> OcsProblem::Create(
    const rtf::CorrelationTable& correlations,
    std::vector<graph::RoadId> queried_roads,
    std::vector<double> sigma_weights,
    std::vector<graph::RoadId> candidate_roads,
    const crowd::CostModel& costs, int budget, double theta) {
  if (queried_roads.empty()) {
    return util::Status::InvalidArgument("no queried roads");
  }
  if (sigma_weights.size() != queried_roads.size()) {
    return util::Status::InvalidArgument(
        "sigma weight count must match queried roads");
  }
  if (budget < 0) {
    return util::Status::InvalidArgument("negative budget");
  }
  if (!(theta > 0.0 && theta <= 1.0)) {
    return util::Status::InvalidArgument("theta must be in (0, 1]");
  }
  const int n = correlations.num_roads();
  const auto candidate_ok = [&](graph::RoadId r) {
    return r >= 0 && r < n && r < costs.num_roads();
  };
  if (!std::all_of(candidate_roads.begin(), candidate_roads.end(),
                   candidate_ok) ||
      HasDuplicate(candidate_roads)) {
    // Something is wrong: rescan in input order so the error names the
    // first bad road.
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (graph::RoadId r : candidate_roads) {
      if (r < 0 || r >= n) {
        return util::Status::InvalidArgument(
            "candidate road out of range: " + std::to_string(r));
      }
      if (r >= costs.num_roads()) {
        return util::Status::InvalidArgument(
            "candidate road missing from cost model: " + std::to_string(r));
      }
      if (seen[static_cast<size_t>(r)]) {
        return util::Status::InvalidArgument("duplicate candidate road: " +
                                             std::to_string(r));
      }
      seen[static_cast<size_t>(r)] = true;
    }
  }
  bool queried_ok = true;
  for (size_t i = 0; i < queried_roads.size(); ++i) {
    queried_ok = queried_ok && queried_roads[i] >= 0 &&
                 queried_roads[i] < n && sigma_weights[i] >= 0.0 &&
                 std::isfinite(sigma_weights[i]);
  }
  if (!queried_ok || HasDuplicate(queried_roads)) {
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (size_t i = 0; i < queried_roads.size(); ++i) {
      const graph::RoadId r = queried_roads[i];
      if (r < 0 || r >= n) {
        return util::Status::InvalidArgument("queried road out of range: " +
                                             std::to_string(r));
      }
      if (seen[static_cast<size_t>(r)]) {
        // R^q is a set; a duplicate would double-weight one road silently.
        return util::Status::InvalidArgument("duplicate queried road: " +
                                             std::to_string(r));
      }
      seen[static_cast<size_t>(r)] = true;
      if (!(sigma_weights[i] >= 0.0) || !std::isfinite(sigma_weights[i])) {
        return util::Status::InvalidArgument("sigma weights must be >= 0");
      }
    }
  }

  OcsProblem problem;
  problem.correlations_ = &correlations;
  problem.queried_roads_ = std::move(queried_roads);
  problem.sigma_weights_ = std::move(sigma_weights);
  problem.candidate_roads_ = std::move(candidate_roads);
  problem.costs_ = &costs;
  problem.budget_ = budget;
  problem.theta_ = theta;
  problem.GatherGainBlock();
  return problem;
}

void OcsProblem::GatherGainBlock() {
  const size_t m = queried_roads_.size();
  const size_t num_candidates = candidate_roads_.size();
  candidate_corrs_.resize(num_candidates * m);
  if (correlations_->hop_radius() == 0) {
    // Dense: one sequential row per queried road.
    for (size_t i = 0; i < m; ++i) {
      const double* row = correlations_->Row(queried_roads_[i]);
      for (size_t k = 0; k < num_candidates; ++k) {
        candidate_corrs_[k * m + i] =
            row[static_cast<size_t>(candidate_roads_[k])];
      }
    }
  } else {
    for (size_t i = 0; i < m; ++i) {
      for (size_t k = 0; k < num_candidates; ++k) {
        candidate_corrs_[k * m + i] =
            correlations_->Corr(queried_roads_[i], candidate_roads_[k]);
      }
    }
  }
  const std::vector<double> empty(m, 0.0);
  empty_gains_.resize(num_candidates);
  for (size_t k = 0; k < num_candidates; ++k) {
    empty_gains_[k] = MarginalGain(CandidateCorrs(k), empty, sigma_weights_);
  }
}

double OcsProblem::Objective(
    const std::vector<graph::RoadId>& selection) const {
  if (selection.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < queried_roads_.size(); ++i) {
    total += sigma_weights_[i] *
             correlations_->RoadSetCorr(queried_roads_[i], selection);
  }
  return total;
}

bool OcsProblem::RedundancyOk(
    graph::RoadId candidate, std::span<const graph::RoadId> selection) const {
  // theta == 1 disables the constraint (corr is capped at 1 anyway, but a
  // candidate correlating at exactly 1.0 with a selected road is then
  // allowed, matching the paper's Theta(1) setting).
  for (graph::RoadId s : selection) {
    if (s == candidate) return false;  // never select a road twice
    if (correlations_->Corr(candidate, s) > theta_) return false;
  }
  return true;
}

bool OcsProblem::IsFeasible(
    const std::vector<graph::RoadId>& selection) const {
  std::vector<graph::RoadId> candidates = candidate_roads_;
  std::sort(candidates.begin(), candidates.end());
  int total_cost = 0;
  for (size_t i = 0; i < selection.size(); ++i) {
    const graph::RoadId r = selection[i];
    if (!std::binary_search(candidates.begin(), candidates.end(), r)) {
      return false;
    }
    total_cost += costs_->Cost(r);
    for (size_t j = i + 1; j < selection.size(); ++j) {
      if (selection[j] == r) return false;
      if (correlations_->Corr(r, selection[j]) > theta_) return false;
    }
  }
  return total_cost <= budget_;
}

IncrementalObjective::IncrementalObjective(const OcsProblem& problem)
    : problem_(problem),
      best_corr_(problem.queried_roads().size(), 0.0),
      redundancy_checked_(problem.candidate_roads().size(), 0) {}

double IncrementalObjective::Gain(size_t k) const {
  // Against the empty selection best_corr_ is all zero: the gathered gain.
  if (selection_.empty()) return problem_.EmptyGain(k);
  return MarginalGain(problem_.CandidateCorrs(k), best_corr_,
                      problem_.sigma_weights());
}

void IncrementalObjective::Add(size_t k) {
  const double* corr = problem_.CandidateCorrs(k);
  const auto& weights = problem_.sigma_weights();
  for (size_t i = 0; i < best_corr_.size(); ++i) {
    if (corr[i] > best_corr_[i]) {
      objective_ += weights[i] * (corr[i] - best_corr_[i]);
      best_corr_[i] = corr[i];
    }
  }
  const graph::RoadId road = problem_.candidate_roads()[k];
  selection_.push_back(road);
  total_cost_ += problem_.costs().Cost(road);
}

bool IncrementalObjective::RedundancyOk(size_t k) {
  constexpr size_t kFailed = std::numeric_limits<size_t>::max();
  size_t& checked = redundancy_checked_[k];
  if (checked == kFailed) return false;
  if (!problem_.RedundancyOk(problem_.candidate_roads()[k],
                             std::span(selection_).subspan(checked))) {
    checked = kFailed;
    return false;
  }
  checked = selection_.size();
  return true;
}

}  // namespace crowdrtse::ocs
