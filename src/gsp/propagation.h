#ifndef CROWDRTSE_GSP_PROPAGATION_H_
#define CROWDRTSE_GSP_PROPAGATION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "rtf/rtf_model.h"
#include "util/status.h"

namespace crowdrtse::gsp {

/// Which Eq. (18) sweep kernel relaxes the roads. Both converge to the same
/// fixpoint; they stop at different iterates once the field needs more than
/// 8 sweeps:
///  - kReference walks the RtfModel accessors per neighbour, re-deriving
///    and re-inverting every pair variance: the paper's plain Alg. 5, kept
///    as the golden test oracle and for A/B benchmarks.
///  - kUnrolled reads the precomputed SoA slot parameters in CSR order:
///    the speed-independent numerator part pre-folded (SlotSoa::num_base)
///    and only sum_j v_j/sigma_ij^2 accumulated per sweep, in four
///    independent lanes combined pairwise. The reassociation drifts at most
///    ~1e-12 relative from kReference; rows of degree < 4 take the
///    reference's association and stay bit-identical. Its first 8 sweeps
///    are plain Eq. (18); after every 8th it estimates an over-relaxation
///    factor omega from its own max-deltas and moves each road omega times
///    its Eq. (18) step (SOR), which roughly halves the sweeps on the
///    paper's 607-road world. A field that converges within 8 sweeps is
///    never over-relaxed.
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
  /// update; everything deeper stays frozen at its periodic mean mu. This
  /// bounds the per-query work on metropolitan graphs and is the locality
  /// contract the sharded serve path relies on: with a hop limit H every
  /// value read during propagation lives within H+1 hops of a probe, so a
  /// partition halo that deep reproduces the unsharded fixpoint bit for
  /// bit.
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
  /// Hop distance of each road from the sampled set (-1 = unreachable, or
  /// farther than a positive GspOptions::hop_limit; such roads keep their
  /// periodic mean).
  std::vector<int> hops;
};

/// Outcome of one propagation read at chosen roads
/// (SpeedPropagator::PropagateAt).
struct GspReadout {
  /// Estimated speeds, aligned with the requested roads.
  std::vector<double> speeds;
  int sweeps = 0;
  bool converged = false;
  /// Road updates the sweeps performed: relax-order length x sweeps.
  int64_t relaxed = 0;
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
  /// Returns every road's speed and hop count: O(n) output around a
  /// propagation that itself touches only the sampled roads' H-ball.
  util::Result<GspResult> Propagate(
      int slot, const std::vector<graph::RoadId>& sampled_roads,
      const std::vector<double>& sampled_speeds) const;

  /// The same propagation, read only at `read_roads` (the serve path reads
  /// the queried roads): speeds bit-identical to Propagate's at those
  /// roads, at a cost that follows the H-ball, not the graph. Every read
  /// road must be in range.
  util::Result<GspReadout> PropagateAt(
      int slot, const std::vector<graph::RoadId>& sampled_roads,
      const std::vector<double>& sampled_speeds,
      const std::vector<graph::RoadId>& read_roads) const;

  /// The Eq. (18) kernel: the likelihood-maximising value of v_i given the
  /// current speeds of its neighbours. Exposed for fixed-point tests.
  /// Inverse variances are clamped to rtf::kMaxInvVariance, so degenerate
  /// parameters dent one weight instead of poisoning the whole field.
  double UpdateValue(int slot, graph::RoadId road,
                     const std::vector<double>& speeds) const;

 private:
  struct FieldStats {
    int sweeps = 0;
    bool converged = false;
    int64_t relaxed = 0;
  };
  /// Validates the inputs and runs the propagation into this thread's
  /// epoch-stamped workspace, where Propagate and PropagateAt read it.
  util::Result<FieldStats> SolveField(
      int slot, const std::vector<graph::RoadId>& sampled_roads,
      const std::vector<double>& sampled_speeds) const;

  const rtf::RtfModel& model_;
  GspOptions options_;
};

}  // namespace crowdrtse::gsp

#endif  // CROWDRTSE_GSP_PROPAGATION_H_
