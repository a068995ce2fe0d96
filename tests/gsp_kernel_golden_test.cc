#include "gsp/propagation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "graph/generators.h"
#include "rtf/rtf_model.h"
#include "util/rng.h"

namespace crowdrtse::gsp {
namespace {

/// Golden equivalence contract of the sweep kernels (see GspKernel):
/// kUnrolled reassociates only the numerator's neighbour fold of
/// kReference, within a documented 1e-12 relative tolerance, and keeps the
/// reference's exact arithmetic on rows of degree < 4.

/// Irregular planar-ish network with parameters varied per road/edge, so a
/// kernel that misindexes the SoA or packed arrays cannot luck into the
/// right answer (every road's parameters differ).
rtf::RtfModel VariedModel(const graph::Graph& g) {
  rtf::RtfModel model(g, 1);
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    model.SetMu(0, r, 30.0 + 40.0 * ((r * 29) % 97) / 97.0);
    model.SetSigma(0, r, 2.0 + 3.0 * ((r * 13) % 11) / 11.0);
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    model.SetRho(0, e, 0.2 + 0.7 * ((e * 17) % 23) / 23.0);
  }
  return model;
}

graph::Graph TestNetwork(int num_roads) {
  util::Rng rng(11);
  graph::RoadNetworkOptions net;
  net.num_roads = num_roads;
  return *graph::RoadNetwork(net, rng);
}

/// Runs a fixed number of sweeps (epsilon too small to ever converge), so
/// every kernel performs exactly the same relaxations and the final fields
/// are comparable sweep for sweep. Eight sweeps: the production kernel's
/// first over-relaxation estimate comes after sweep 8, and from sweep 9 on
/// it leaves plain Eq. (18) by design.
GspResult RunKernel(const rtf::RtfModel& model, GspKernel kernel) {
  GspOptions options;
  options.kernel = kernel;
  options.epsilon = 1e-300;
  options.max_sweeps = 8;
  const SpeedPropagator propagator(model, options);
  std::vector<graph::RoadId> sampled;
  std::vector<double> speeds;
  for (graph::RoadId r = 0; r < model.num_roads(); r += 37) {
    sampled.push_back(r);
    speeds.push_back(model.Mu(0, r) - 7.5);
  }
  const auto result = propagator.Propagate(0, sampled, speeds);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *result;
}

void ExpectBitIdentical(const GspResult& got, const GspResult& want) {
  ASSERT_EQ(got.speeds.size(), want.speeds.size());
  for (size_t i = 0; i < want.speeds.size(); ++i) {
    EXPECT_EQ(got.speeds[i], want.speeds[i]) << "road " << i;
  }
}

void ExpectWithinRelative(const GspResult& got, const GspResult& want,
                          double tolerance) {
  ASSERT_EQ(got.speeds.size(), want.speeds.size());
  for (size_t i = 0; i < want.speeds.size(); ++i) {
    const double scale = std::max(1.0, std::fabs(want.speeds[i]));
    EXPECT_NEAR(got.speeds[i], want.speeds[i], tolerance * scale)
        << "road " << i;
  }
}

TEST(GspKernelGoldenTest, UnrolledWithinToleranceOfReference) {
  const graph::Graph g = TestNetwork(431);
  const rtf::RtfModel model = VariedModel(g);
  ExpectWithinRelative(RunKernel(model, GspKernel::kUnrolled),
                       RunKernel(model, GspKernel::kReference), 1e-12);
}

TEST(GspKernelGoldenTest, LowDegreeRowsStayBitIdentical) {
  // Path graph: every degree is <= 2 < 4, so the unrolled kernel must take
  // the reference's association on every row and match bit for bit.
  const graph::Graph g = *graph::PathNetwork(64);
  const rtf::RtfModel model = VariedModel(g);
  ExpectBitIdentical(RunKernel(model, GspKernel::kUnrolled),
                     RunKernel(model, GspKernel::kReference));
}

TEST(GspKernelGoldenTest, DegenerateSigmaIsClampedNotPropagated) {
  // Regression for the NaN-poisoning bug: an unguarded 1/sigma^2 turns a
  // degenerate parameter into inf/NaN and poisons every speed downstream
  // of it. Both kernels must clamp instead, keep the whole field finite,
  // and agree within the kernel tolerance (the clamp is part of the shared
  // arithmetic, not a per-kernel patch).
  const graph::Graph g = TestNetwork(431);
  for (const double bad :
       {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    rtf::RtfModel model = VariedModel(g);
    model.SetSigma(0, 17, bad);
    const uint64_t clamps_before = rtf::InvVarianceClampCount();
    const GspResult reference = RunKernel(model, GspKernel::kReference);
    EXPECT_GT(rtf::InvVarianceClampCount(), clamps_before);
    for (const double speed : reference.speeds) {
      ASSERT_TRUE(std::isfinite(speed)) << "bad sigma " << bad;
    }
    const GspResult unrolled = RunKernel(model, GspKernel::kUnrolled);
    for (const double speed : unrolled.speeds) {
      ASSERT_TRUE(std::isfinite(speed));
    }
    ExpectWithinRelative(unrolled, reference, 1e-12);
  }
}

}  // namespace
}  // namespace crowdrtse::gsp
