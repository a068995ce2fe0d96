#ifndef CROWDRTSE_GSP_UNCERTAINTY_H_
#define CROWDRTSE_GSP_UNCERTAINTY_H_

#include <vector>

#include "graph/graph.h"
#include "rtf/rtf_model.h"
#include "util/status.h"

namespace crowdrtse::gsp {

/// Confidence-aware RTSE (an extension beyond the paper): posterior speed
/// variances under the RTF GMRF, conditioned on the probed roads.
///
/// Convention: the paper's Eq. (5) likelihood corresponds to the density
///   p(v) ~ exp( -sum_i (v_i-mu_i)^2/sigma_i^2
///               -sum_(i,j) ((v_i-v_j)-mu_ij)^2/sigma_ij^2 ),
/// i.e. precision matrix P = 2A where A is the quadratic-form matrix whose
/// stationarity GSP iterates (Eq. 18). Posterior variances are entries of
/// P^-1 with the sampled variables pinned (their variance is 0).

/// Exact posterior variance per road via dense Cholesky on the pinned
/// precision matrix. O(m^3) in the number of unsampled roads — intended
/// for networks up to a few thousand roads (one Cholesky, then one
/// back-solve per requested road). Roads disconnected from the samples get
/// their prior marginal under the same convention.
util::Result<std::vector<double>> ExactPosteriorVariances(
    const rtf::RtfModel& model, int slot,
    const std::vector<graph::RoadId>& sampled_roads);

/// Cheap local surrogate: the conditional variance of each road given its
/// neighbours, 1 / P_ii. Always a lower bound on the exact posterior
/// variance (conditioning on more information cannot increase variance);
/// useful for ranking roads by confidence at O(|R| + |E|) cost.
util::Result<std::vector<double>> LocalConditionalVariances(
    const rtf::RtfModel& model, int slot,
    const std::vector<graph::RoadId>& sampled_roads);

/// Degradation-ladder variances for the reported `roads` only, one value
/// per entry of `roads` in the same order (duplicates allowed). A
/// `degraded_road` (a road whose crowd probes all failed — see
/// crowd::DispatchController) reads its *widened prior marginal*
/// inflation * sigma_i^2, even when it was also sampled; a sampled road
/// reads 0; any other road reads LocalConditionalVariances' 1 / P_ii. The
/// local conditional bound assumes neighbours carry probe-derived
/// information; a degraded road's own probe attempt failing is evidence
/// against that, so its reported uncertainty must not shrink below the
/// prior. `inflation` must be >= 1. O((|roads| + |sampled| + |degraded|)
/// log) plus each reported road's degree — nothing scales with the city.
util::Result<std::vector<double>> DegradedAwareVariances(
    const rtf::RtfModel& model, int slot,
    const std::vector<graph::RoadId>& roads,
    const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<graph::RoadId>& degraded_roads, double inflation);

}  // namespace crowdrtse::gsp

#endif  // CROWDRTSE_GSP_UNCERTAINTY_H_
