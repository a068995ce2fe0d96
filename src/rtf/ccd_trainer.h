#ifndef CROWDRTSE_RTF_CCD_TRAINER_H_
#define CROWDRTSE_RTF_CCD_TRAINER_H_

#include <vector>

#include "graph/graph.h"
#include "rtf/rtf_model.h"
#include "traffic/history_store.h"
#include "util/status.h"

namespace crowdrtse::rtf {

/// Options for the cyclic-coordinate-descent trainer (paper Alg. 1).
struct CcdOptions {
  /// Gradient-ascent step size (the paper's lambda; Fig. 5 fixes 0.1).
  double learning_rate = 0.1;
  int max_iterations = 500;
  /// Converged when the largest |dL/dmu| falls below this (the paper's
  /// Fig. 5 convergence measure: "{mu}_R's maximum gradient").
  double mu_gradient_tolerance = 1e-2;
  /// Which parameter groups the sweeps update. Fig. 5 reproduces the
  /// mu-only vanilla-gradient-descent setting by disabling sigma/rho.
  bool update_mu = true;
  bool update_sigma = true;
  bool update_rho = true;
  /// The paper's Eq. (5) omits the Gaussian log-normaliser, which makes the
  /// "likelihood" unbounded in sigma (inflating sigma always helps). We
  /// restore the -D log sigma^2 terms by default so the optimisation is
  /// well-posed; disable to follow the paper's formula literally (only
  /// sensible with update_sigma = update_rho = false).
  bool use_normalized_likelihood = true;
  /// Record the max-|dL/dmu| trajectory (for convergence plots).
  bool record_gradient_history = false;
};

/// Outcome of training one slot.
struct CcdReport {
  int iterations = 0;
  bool converged = false;
  double final_max_mu_gradient = 0.0;
  double final_log_likelihood = 0.0;
  std::vector<double> mu_gradient_history;  // filled if requested
};

/// Trainer for RTF parameters by coordinate-wise gradient ascent over the
/// joint likelihood of paper Eq. (5), one time slot at a time. Sufficient
/// statistics (per-road and per-edge first/second moments of the historical
/// speeds) are precomputed so every coordinate step is O(degree).
class CcdTrainer {
 public:
  /// The graph and history must outlive the trainer; history must cover the
  /// graph's roads.
  CcdTrainer(const graph::Graph& graph,
             const traffic::HistoryStore& history, CcdOptions options);

  const CcdOptions& options() const { return options_; }

  /// Runs CCD sweeps on `model`'s parameters for `slot`, in place, starting
  /// from the model's current values. Returns convergence diagnostics.
  /// Different slots touch disjoint parameters, so distinct slots of one
  /// model may train concurrently.
  util::Result<CcdReport> TrainSlot(RtfModel& model, int slot) const;

  /// Joint log-likelihood of `slot` under the model (Eq. 5, with the
  /// normaliser per `use_normalized_likelihood`). Exposed for tests: each
  /// accepted CCD step must not decrease this.
  double LogLikelihood(const RtfModel& model, int slot) const;

  /// Largest |dL/dmu_i| at the model's current parameters for `slot`.
  double MaxMuGradient(const RtfModel& model, int slot) const;

 private:
  struct SlotStats {
    // Node moments: sum_d v_i and sum_d v_i^2.
    std::vector<double> sum_v;
    std::vector<double> sum_vv;
    // Edge moments for (i, j) = EdgeEndpoints(e), oriented i - j:
    // sum_d (v_i - v_j) and sum_d (v_i - v_j)^2.
    std::vector<double> sum_d;
    std::vector<double> sum_dd;
    int num_days = 0;
  };

  SlotStats ComputeStats(int slot) const;

  double MuGradient(const RtfModel& model, int slot, const SlotStats& stats,
                    graph::RoadId i) const;
  double SigmaGradient(const RtfModel& model, int slot,
                       const SlotStats& stats, graph::RoadId i) const;
  double RhoGradient(const RtfModel& model, int slot, const SlotStats& stats,
                     graph::EdgeId e) const;

  const graph::Graph& graph_;
  const traffic::HistoryStore& history_;
  CcdOptions options_;
};

}  // namespace crowdrtse::rtf

#endif  // CROWDRTSE_RTF_CCD_TRAINER_H_
