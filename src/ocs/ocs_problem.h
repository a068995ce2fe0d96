#ifndef CROWDRTSE_OCS_OCS_PROBLEM_H_
#define CROWDRTSE_OCS_OCS_PROBLEM_H_

#include <cstddef>
#include <span>
#include <vector>

#include "crowd/cost_model.h"
#include "graph/graph.h"
#include "rtf/correlation_table.h"
#include "util/status.h"

namespace crowdrtse::ocs {

/// One instance of the Optimal Crowdsourced roads Selection problem (paper
/// Eq. 15):
///
///   maximise   sum_{r in R^q} sigma_r * corr(r, R^c)
///   subject to R^c subset of R^w,
///              sum_{r in R^c} c_r <= K,
///              corr(r_i, r_j) <= theta for all pairs in R^c.
///
/// The correlation table and cost model are borrowed; they must outlive the
/// problem object.
///
/// Create gathers the problem's gain block once: corr(q_i, c_k) for every
/// queried road q_i and candidate c_k, copied bit for bit from the table,
/// plus each candidate's gain against the empty selection. The greedy
/// selectors score candidates from this block only, so scoring reads
/// Gamma_R |R^q| x |R^w| times however many greedy passes run (the
/// redundancy test still reads candidate-candidate entries).
class OcsProblem {
 public:
  /// Validates shapes and ranges. `sigma_weights[i]` is the periodicity
  /// intensity of `queried_roads[i]` at the query slot.
  static util::Result<OcsProblem> Create(
      const rtf::CorrelationTable& correlations,
      std::vector<graph::RoadId> queried_roads,
      std::vector<double> sigma_weights,
      std::vector<graph::RoadId> candidate_roads,
      const crowd::CostModel& costs, int budget, double theta);

  const rtf::CorrelationTable& correlations() const { return *correlations_; }
  const std::vector<graph::RoadId>& queried_roads() const {
    return queried_roads_;
  }
  const std::vector<double>& sigma_weights() const { return sigma_weights_; }
  const std::vector<graph::RoadId>& candidate_roads() const {
    return candidate_roads_;
  }
  const crowd::CostModel& costs() const { return *costs_; }
  int budget() const { return budget_; }
  double theta() const { return theta_; }

  /// The periodicity-weighted correlation objective ocs(R^c) (Eq. 13);
  /// 0 for the empty selection.
  double Objective(const std::vector<graph::RoadId>& selection) const;

  /// True iff `selection` satisfies all three constraints.
  bool IsFeasible(const std::vector<graph::RoadId>& selection) const;

  /// True iff adding `candidate` to the (assumed feasible) `selection`
  /// keeps the redundancy constraint: corr(candidate, s) <= theta for all
  /// already-selected s.
  bool RedundancyOk(graph::RoadId candidate,
                    std::span<const graph::RoadId> selection) const;

  /// corr(queried_roads()[i], candidate_roads()[k]) at index i of the
  /// returned |R^q|-long span.
  const double* CandidateCorrs(size_t k) const {
    return candidate_corrs_.data() + k * queried_roads_.size();
  }

  /// ocs({candidate_roads()[k]}): candidate k's gain on an empty selection.
  double EmptyGain(size_t k) const { return empty_gains_[k]; }

 private:
  OcsProblem() = default;

  /// Fills candidate_corrs_ and empty_gains_ from the validated fields.
  void GatherGainBlock();

  const rtf::CorrelationTable* correlations_ = nullptr;
  std::vector<graph::RoadId> queried_roads_;
  std::vector<double> sigma_weights_;
  std::vector<graph::RoadId> candidate_roads_;
  const crowd::CostModel* costs_ = nullptr;
  int budget_ = 0;
  double theta_ = 1.0;
  std::vector<double> candidate_corrs_;  // [k * |R^q| + i]
  std::vector<double> empty_gains_;      // aligned with candidate_roads_
};

/// Incremental evaluator for greedy selection: keeps, per queried road, the
/// best correlation into the current selection, so the marginal gain of a
/// candidate is O(|R^q|) and adding it is O(|R^q|). This realises the
/// paper's O(K |R^w|) greedy envelope with |R^q| as a constant factor.
/// Candidates are named by their index k into problem.candidate_roads(),
/// and every correlation comes from the problem's gathered gain block.
class IncrementalObjective {
 public:
  explicit IncrementalObjective(const OcsProblem& problem);

  /// ocs(selection + candidate k) - ocs(selection).
  double Gain(size_t k) const;

  /// Commits candidate k into the selection.
  void Add(size_t k);

  /// problem.RedundancyOk(candidate k, selection()), reading Gamma_R only
  /// against the roads selected since k last passed. The selection only
  /// grows, so a pass stays valid and a failure is final.
  bool RedundancyOk(size_t k);

  double objective() const { return objective_; }
  const std::vector<graph::RoadId>& selection() const { return selection_; }
  int total_cost() const { return total_cost_; }

 private:
  const OcsProblem& problem_;
  std::vector<double> best_corr_;  // aligned with queried_roads
  std::vector<graph::RoadId> selection_;
  /// Per candidate: how many leading roads of selection_ it has passed, or
  /// SIZE_MAX once it failed.
  std::vector<size_t> redundancy_checked_;
  double objective_ = 0.0;
  int total_cost_ = 0;
};

/// A solved OCS instance.
struct OcsSolution {
  std::vector<graph::RoadId> roads;
  double objective = 0.0;
  int total_cost = 0;
};

}  // namespace crowdrtse::ocs

#endif  // CROWDRTSE_OCS_OCS_PROBLEM_H_
