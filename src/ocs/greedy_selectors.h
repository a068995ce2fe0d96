#ifndef CROWDRTSE_OCS_GREEDY_SELECTORS_H_
#define CROWDRTSE_OCS_GREEDY_SELECTORS_H_

#include "ocs/ocs_problem.h"
#include "util/rng.h"

namespace crowdrtse::ocs {

/// Ratio-Greedy (paper Alg. 2): repeatedly adds the feasible candidate with
/// the highest marginal-gain-to-cost ratio. O(K |R^w| |R^q|) time,
/// O(|R^w|) space. Can be arbitrarily bad alone (paper Example 1).
OcsSolution RatioGreedy(const OcsProblem& problem);

/// Objective-Greedy (paper Alg. 3): repeatedly adds the feasible candidate
/// with the highest absolute marginal gain.
OcsSolution ObjectiveGreedy(const OcsProblem& problem);

/// Hybrid-Greedy (paper Alg. 4): runs both greedies and keeps the better
/// solution. Approximation ratio (1 - 1/e)/2 (paper Theorem 2). When every
/// candidate costs the same power of two the two greedies provably pick
/// the same roads, so only the ratio pass runs (same output).
OcsSolution HybridGreedy(const OcsProblem& problem);

/// Random baseline ("Rand" in the paper's figures): shuffles the candidates
/// and takes them while they stay feasible.
OcsSolution RandomSelect(const OcsProblem& problem, util::Rng& rng);

/// Lazy-evaluation variants (an optimisation beyond the paper): the OCS
/// objective is monotone submodular, so a candidate's marginal gain can
/// only shrink as the selection grows. The lazy greedy keeps stale gains
/// in a max-heap and only recomputes the top entry, selecting it when its
/// gain is fresh — typically re-scoring a handful of candidates per round
/// instead of the whole feasible set. Picks the same objective value as
/// the eager versions (selections can differ only on exact gain ties).
OcsSolution LazyRatioGreedy(const OcsProblem& problem);
OcsSolution LazyObjectiveGreedy(const OcsProblem& problem);

/// Hybrid over the lazy variants: the drop-in faster HybridGreedy (one
/// pass under uniform power-of-two costs, as HybridGreedy).
OcsSolution LazyHybridGreedy(const OcsProblem& problem);

/// Detects the paper's Remark-2 trivial cases (theta == 1 and unit costs
/// with an over-adequate budget, or fewer queried roads than budget) and
/// returns the closed-form optimum; a disengaged Result status when the
/// instance is not trivial.
util::Result<OcsSolution> SolveTrivialCase(const OcsProblem& problem);

}  // namespace crowdrtse::ocs

#endif  // CROWDRTSE_OCS_GREEDY_SELECTORS_H_
