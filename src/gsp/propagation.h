#ifndef CROWDRTSE_GSP_PROPAGATION_H_
#define CROWDRTSE_GSP_PROPAGATION_H_

#include <vector>

#include "graph/graph.h"
#include "rtf/rtf_model.h"
#include "util/status.h"

namespace crowdrtse::gsp {

/// Which Eq. (18) sweep kernel relaxes the roads. Both compute the same
/// fixpoint; they differ in arithmetic association only:
///  - kReference walks the RtfModel accessors per neighbour, re-deriving
///    and re-inverting every pair variance (the original formulation, kept
///    as the golden test oracle and for A/B benchmarks).
///  - kUnrolled reads the precomputed SoA slot parameters in CSR order:
///    the speed-independent numerator part pre-folded (SlotSoa::num_base)
///    and only sum_j v_j/sigma_ij^2 accumulated per sweep, in four
///    independent lanes combined pairwise. The reassociation drifts at most
///    ~1e-12 relative from kReference; rows of degree < 4 take the
///    reference's association and stay bit-identical.
enum class GspKernel { kReference, kUnrolled };

/// Options for Graph-based Speed Propagation (paper Alg. 5).
struct GspOptions {
  /// Convergence threshold epsilon: stop when no variable moved more than
  /// this in a full sweep.
  double epsilon = 1e-4;
  /// Hard cap on sweeps (the paper argues a constant number suffices).
  int max_sweeps = 200;
  /// 0 = relax every reachable road (the paper's full Alg. 5). H > 0 keeps
  /// the relaxation local: only roads within H BFS hops of the sampled set
  /// update; everything deeper stays frozen at its initial value (mu or the
  /// warm start). This bounds the per-query work on metropolitan graphs and
  /// is the locality contract the sharded serve path relies on: with a hop
  /// limit H every value read during propagation lives within H+1 hops of a
  /// probe, so a partition halo that deep reproduces the unsharded fixpoint
  /// bit for bit.
  int hop_limit = 0;
  /// Sweep kernel; see GspKernel.
  GspKernel kernel = GspKernel::kUnrolled;
};

/// Outcome of one propagation run.
struct GspResult {
  /// Estimated realtime speed of every road (sampled roads keep their
  /// probed values).
  std::vector<double> speeds;
  int sweeps = 0;
  bool converged = false;
  /// Hop distance of each road from the sampled set (-1 = unreachable;
  /// unreachable roads keep their periodic mean).
  std::vector<int> hops;
};

/// Infers the realtime speed of every road from sparse probed speeds on top
/// of a trained RTF, by iterating the closed-form conditional maximiser of
/// paper Eq. (18) in BFS-hop order from the sampled roads.
///
/// Thread-safety: Propagate is reentrant; concurrent calls on one instance
/// are fine (the per-query scratch lives in thread-local arenas).
class SpeedPropagator {
 public:
  /// The model (and its graph) must outlive the propagator.
  SpeedPropagator(const rtf::RtfModel& model, GspOptions options);

  const GspOptions& options() const { return options_; }

  /// Runs GSP for `slot`. `sampled_roads[i]` is fixed to
  /// `sampled_speeds[i]`; everything else starts at mu and relaxes.
  util::Result<GspResult> Propagate(
      int slot, const std::vector<graph::RoadId>& sampled_roads,
      const std::vector<double>& sampled_speeds) const;

  /// Warm-started variant: non-sampled roads start from `initial_speeds`
  /// (size |R|) instead of mu. With consecutive 5-minute queries the
  /// previous answer is an excellent initialiser — the fixed point is the
  /// same (the objective is strictly convex), only the sweep count drops.
  util::Result<GspResult> PropagateFrom(
      int slot, const std::vector<graph::RoadId>& sampled_roads,
      const std::vector<double>& sampled_speeds,
      const std::vector<double>& initial_speeds) const;

  /// The Eq. (18) kernel: the likelihood-maximising value of v_i given the
  /// current speeds of its neighbours. Exposed for fixed-point tests.
  /// Inverse variances are clamped to rtf::kMaxInvVariance, so degenerate
  /// parameters dent one weight instead of poisoning the whole field.
  double UpdateValue(int slot, graph::RoadId road,
                     const std::vector<double>& speeds) const;

 private:
  const rtf::RtfModel& model_;
  GspOptions options_;
};

}  // namespace crowdrtse::gsp

#endif  // CROWDRTSE_GSP_PROPAGATION_H_
