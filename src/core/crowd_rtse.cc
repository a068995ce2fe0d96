#include "core/crowd_rtse.h"

#include "graph/bfs.h"
#include "gsp/uncertainty.h"
#include "util/thread_pool.h"
#include "util/trace.h"

#include <algorithm>
#include <string>
#include <utility>

namespace crowdrtse::core {

CrowdRtse::CrowdRtse(const graph::Graph& graph,
                     const traffic::HistoryStore& history,
                     rtf::RtfModel model, const CrowdRtseConfig& config)
    : graph_(&graph),
      history_(&history),
      config_(config),
      model_(std::make_shared<rtf::RtfModel>(std::move(model))) {
  rtf::CorrelationCacheOptions cache_options = config_.correlation_cache;
  if (cache_options.expected_num_roads <= 0) {
    cache_options.expected_num_roads = graph.num_roads();
  }
  // Persisted tables must match the configured closure shape, not whatever
  // the caller left in the cache options.
  cache_options.expected_hop_radius = config_.correlation_hop_radius;
  if (config_.refine_with_ccd) {
    // A persisted table cannot prove it was computed from the refined
    // parameters, so warm-starting would silently skip refinement.
    cache_options.persist_dir.clear();
  }
  correlation_cache_ =
      std::make_shared<rtf::CorrelationCache>(std::move(cache_options));
}

util::Result<CrowdRtse> CrowdRtse::BuildOffline(
    const graph::Graph& graph, const traffic::HistoryStore& history,
    const CrowdRtseConfig& config) {
  if (!(config.theta > 0.0 && config.theta <= 1.0)) {
    return util::Status::InvalidArgument("theta must be in (0, 1]");
  }
  if (config.correlation_hop_radius < 0) {
    return util::Status::InvalidArgument(
        "correlation_hop_radius must be >= 0");
  }
  if (config.correlation_hop_radius > 0 &&
      config.path_mode != rtf::PathWeightMode::kNegLog) {
    return util::Status::InvalidArgument(
        "correlation_hop_radius > 0 supports the kNegLog path mode only");
  }
  util::Result<rtf::RtfModel> model =
      rtf::EstimateByMoments(graph, history, config.moments);
  if (!model.ok()) return model.status();
  CrowdRtse system(graph, history, std::move(*model), config);
  if (config.warm_start_correlations) {
    // Loads whatever a previous run persisted; the cache is shared across
    // copies/moves of the returned object, so the warm tables survive.
    system.correlation_cache_->WarmStart(system.model_->num_slots());
  }
  return system;
}

util::Result<rtf::CorrelationCache::TablePtr> CrowdRtse::CorrelationsFor(
    int slot) {
  if (slot < 0 || slot >= model_->num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  return correlation_cache_->GetOrCompute(
      slot,
      [this](int s) -> util::Result<rtf::CorrelationTable> {
        if (config_.refine_with_ccd) {
          // Refinement mutates the shared model, so it runs under the CCD
          // mutex and touches only slot s's parameters. The table is then
          // computed from a snapshot taken under the same lock: the cache
          // runs compute callbacks for different cold slots concurrently,
          // and another slot's in-flight refinement must not mutate the
          // model mid-Compute.
          util::Result<rtf::RtfModel> snapshot =
              [&]() -> util::Result<rtf::RtfModel> {
            std::lock_guard<std::mutex> lock(ccd_state_->mutex);
            if (ccd_state_->refined_slots.count(s) == 0) {
              const rtf::CcdTrainer trainer(*graph_, *history_, config_.ccd);
              util::Result<rtf::CcdReport> report =
                  trainer.TrainSlot(*model_, s);
              if (!report.ok()) return report.status();
              model_->ClampParameters(s);
              ccd_state_->refined_slots.insert(s);
            }
            return *model_;
          }();
          if (!snapshot.ok()) return snapshot.status();
          return rtf::CorrelationTable::Compute(
              *snapshot, s, config_.path_mode, &util::ThreadPool::Shared(),
              config_.correlation_hop_radius);
        }
        // Without refinement the model is immutable after BuildOffline, so
        // reading it lock-free here is safe.
        return rtf::CorrelationTable::Compute(*model_, s, config_.path_mode,
                                              &util::ThreadPool::Shared(),
                                              config_.correlation_hop_radius);
      });
}

util::Result<int> CrowdRtse::RefineSlot(int slot) {
  if (slot < 0 || slot >= model_->num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  const int num_edges = model_->num_edges();
  // Refine under the CCD mutex (the trainer mutates the shared model) and
  // snapshot the post-refinement edge correlations under the same lock, so
  // the patch below works from a consistent view even if another slot's
  // lazy refinement runs concurrently.
  std::vector<graph::EdgeId> changed_edges;
  std::vector<double> edge_rho(static_cast<size_t>(num_edges));
  {
    std::lock_guard<std::mutex> lock(ccd_state_->mutex);
    std::vector<double> old_rho(static_cast<size_t>(num_edges));
    for (graph::EdgeId e = 0; e < num_edges; ++e) {
      old_rho[static_cast<size_t>(e)] = model_->Rho(slot, e);
    }
    const rtf::CcdTrainer trainer(*graph_, *history_, config_.ccd);
    util::Result<rtf::CcdReport> report = trainer.TrainSlot(*model_, slot);
    if (!report.ok()) return report.status();
    model_->ClampParameters(slot);
    ccd_state_->refined_slots.insert(slot);
    for (graph::EdgeId e = 0; e < num_edges; ++e) {
      const double rho = model_->Rho(slot, e);
      edge_rho[static_cast<size_t>(e)] = rho;
      if (rho != old_rho[static_cast<size_t>(e)]) {
        changed_edges.push_back(e);
      }
    }
  }
  if (changed_edges.empty()) {
    // Gamma_R depends on the edge correlations only; mu/sigma shifts need
    // no table maintenance.
    return 0;
  }
  if (config_.correlation_hop_radius > 0 &&
      config_.incremental_gamma_refresh) {
    const std::vector<graph::RoadId> affected =
        rtf::AffectedCorrelationRows(*graph_, changed_edges,
                                     config_.correlation_hop_radius);
    const rtf::CorrelationCache::PatchOutcome outcome =
        correlation_cache_->PatchInPlace(
            slot,
            [this, &edge_rho, &affected](const rtf::CorrelationTable& current)
                -> util::Result<rtf::CorrelationTable> {
              return current.RefreshedRows(*graph_, edge_rho, affected,
                                           &util::ThreadPool::Shared());
            });
    if (outcome == rtf::CorrelationCache::PatchOutcome::kPatched) {
      return static_cast<int>(affected.size());
    }
    // Nothing resident (or a race superseded the patch): the entry is
    // invalidated and the next lookup recomputes from the refined model.
    return -1;
  }
  correlation_cache_->Invalidate(slot);
  return -1;
}

std::vector<double> CrowdRtse::SigmaWeights(
    int slot, const std::vector<graph::RoadId>& queried_roads) const {
  std::vector<double> weights;
  weights.reserve(queried_roads.size());
  for (graph::RoadId r : queried_roads) {
    weights.push_back(model_->Sigma(slot, r));
  }
  return weights;
}

std::vector<double> CrowdRtse::PeriodicMeans(
    int slot, const std::vector<graph::RoadId>& roads) const {
  std::vector<double> means;
  means.reserve(roads.size());
  for (graph::RoadId r : roads) {
    means.push_back(model_->Mu(slot, r));
  }
  return means;
}

std::vector<graph::RoadId> PositiveGainCandidates(
    const graph::Graph& graph, const rtf::CorrelationTable& table,
    const std::vector<graph::RoadId>& queried_roads,
    const std::vector<graph::RoadId>& worker_roads) {
  // Roads that can correlate with the query: every road (dense table) or
  // the query's C-hop ball, sorted for a membership test.
  std::vector<graph::RoadId> ball;
  const bool sparse = table.hop_radius() > 0;
  if (sparse) {
    ball = graph::RoadsWithinHops(graph, queried_roads, table.hop_radius());
    std::sort(ball.begin(), ball.end());
  }
  std::vector<graph::RoadId> kept;
  for (graph::RoadId c : worker_roads) {
    if (c < 0 || c >= table.num_roads()) {
      kept.push_back(c);
      continue;
    }
    if (sparse && (ball.empty() || c < ball.front() || c > ball.back() ||
                   !std::binary_search(ball.begin(), ball.end(), c))) {
      continue;
    }
    if (table.RoadSetCorr(c, queried_roads) > 0.0) kept.push_back(c);
  }
  return kept;
}

util::Result<ocs::OcsSolution> CrowdRtse::SelectRoads(
    int slot, const std::vector<graph::RoadId>& queried_roads,
    const std::vector<graph::RoadId>& worker_roads,
    const crowd::CostModel& costs, int budget, SelectorKind selector) {
  util::Result<rtf::CorrelationCache::TablePtr> table = [&] {
    util::trace::Span span("ocs.correlations");
    span.Annotate("slot", static_cast<int64_t>(slot));
    return CorrelationsFor(slot);
  }();
  if (!table.ok()) return table.status();
  // `*table` is held for the whole solve: OcsProblem keeps a raw reference,
  // and the shared_ptr outlives it even if the cache evicts the slot.
  const std::vector<graph::RoadId>* candidates = &worker_roads;
  std::vector<graph::RoadId> pruned;
  bool queried_in_range = true;
  for (graph::RoadId q : queried_roads) {
    if (q < 0 || q >= (*table)->num_roads()) queried_in_range = false;
  }
  // With an invalid queried set, skip pruning and let OcsProblem::Create
  // produce its usual rejection.
  if (config_.prune_zero_gain_candidates && queried_in_range) {
    pruned = PositiveGainCandidates(*graph_, **table, queried_roads,
                                    worker_roads);
    candidates = &pruned;
  }
  util::Result<ocs::OcsProblem> problem = ocs::OcsProblem::Create(
      **table, queried_roads, SigmaWeights(slot, queried_roads),
      *candidates, costs, budget, config_.theta);
  if (!problem.ok()) return problem.status();
  util::trace::Span span("ocs.select");
  span.Annotate("candidates",
                static_cast<int64_t>(problem->candidate_roads().size()));
  switch (selector) {
    case SelectorKind::kHybridGreedy:
      return ocs::HybridGreedy(*problem);
    case SelectorKind::kRatioGreedy:
      return ocs::RatioGreedy(*problem);
    case SelectorKind::kObjectiveGreedy:
      return ocs::ObjectiveGreedy(*problem);
    case SelectorKind::kLazyHybridGreedy:
      return ocs::LazyHybridGreedy(*problem);
  }
  return util::Status::InvalidArgument("unknown selector");
}

util::Result<gsp::GspResult> CrowdRtse::Estimate(
    int slot, const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<double>& sampled_speeds) const {
  const gsp::SpeedPropagator propagator(*model_, config_.gsp);
  return propagator.Propagate(slot, sampled_roads, sampled_speeds);
}

util::Result<CrowdRtse::ConfidentEstimate> CrowdRtse::EstimateWithConfidence(
    int slot, const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<double>& sampled_speeds) const {
  util::Result<gsp::GspResult> estimate =
      Estimate(slot, sampled_roads, sampled_speeds);
  if (!estimate.ok()) return estimate.status();
  util::Result<std::vector<double>> variance =
      gsp::LocalConditionalVariances(*model_, slot, sampled_roads);
  if (!variance.ok()) return variance.status();
  ConfidentEstimate out;
  out.estimate = std::move(*estimate);
  out.variance = std::move(*variance);
  return out;
}

util::Result<CrowdRtse::QueryOutcome> CrowdRtse::AnswerQuery(
    int slot, const std::vector<graph::RoadId>& queried_roads,
    const std::vector<graph::RoadId>& worker_roads,
    const crowd::CostModel& costs, int budget,
    crowd::CrowdSimulator& crowd_sim, const traffic::DayMatrix& truth,
    SelectorKind selector) {
  QueryOutcome outcome;
  util::Result<ocs::OcsSolution> selection = SelectRoads(
      slot, queried_roads, worker_roads, costs, budget, selector);
  if (!selection.ok()) return selection.status();
  outcome.selection = std::move(*selection);

  util::Result<crowd::CrowdRound> round =
      crowd_sim.Probe(outcome.selection.roads, costs, truth, slot);
  if (!round.ok()) return round.status();
  outcome.round = std::move(*round);

  std::vector<double> probed;
  probed.reserve(outcome.round.probes.size());
  for (const crowd::ProbeResult& p : outcome.round.probes) {
    probed.push_back(p.probed_kmh);
  }
  util::Result<gsp::GspResult> estimate =
      Estimate(slot, outcome.selection.roads, probed);
  if (!estimate.ok()) return estimate.status();
  outcome.estimate = std::move(*estimate);
  return outcome;
}

}  // namespace crowdrtse::core
