#ifndef CROWDRTSE_CORE_CROWD_RTSE_H_
#define CROWDRTSE_CORE_CROWD_RTSE_H_

#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "crowd/cost_model.h"
#include "crowd/crowd_simulator.h"
#include "graph/graph.h"
#include "gsp/propagation.h"
#include "ocs/greedy_selectors.h"
#include "ocs/ocs_problem.h"
#include "rtf/ccd_trainer.h"
#include "rtf/correlation_cache.h"
#include "rtf/correlation_table.h"
#include "rtf/moment_estimator.h"
#include "rtf/rtf_model.h"
#include "traffic/history_store.h"
#include "util/status.h"

namespace crowdrtse::core {

/// End-to-end configuration of the CrowdRTSE pipeline.
struct CrowdRtseConfig {
  /// Offline stage: closed-form moment estimation, optionally refined by
  /// the paper's CCD trainer (Alg. 1) on the slots you query.
  rtf::MomentEstimatorOptions moments;
  bool refine_with_ccd = false;
  rtf::CcdOptions ccd;
  /// Path-correlation reduction for Gamma_R (Eq. 8-10).
  rtf::PathWeightMode path_mode = rtf::PathWeightMode::kNegLog;

  /// 0 (the default) keeps the paper-exact dense Gamma_R closure. C > 0
  /// switches to the sparse C-hop-bounded closure: corr(i, j) is the max
  /// path product over paths of at most C edges and exactly 0 beyond —
  /// O(n * ball) memory instead of O(n^2), the only feasible form at
  /// metropolitan road counts, and the locality contract that lets a
  /// partition halo reproduce shard-local correlations exactly.
  int correlation_hop_radius = 0;

  /// Drop OCS candidates whose Gamma_R correlation to every queried road
  /// is zero before the greedy solve. Off by default: the paper's greedy
  /// spends leftover budget on zero-gain candidates, and the seed selectors
  /// preserve that behaviour. With the sparse hop-bounded closure this
  /// pruning keeps candidate pools small (the C-hop ball of the query) and
  /// makes shard-local selection identical to global selection.
  bool prune_zero_gain_candidates = false;

  /// Gamma_R cache behaviour: memory budget (bytes; 0 = unlimited, the
  /// pre-cache behaviour), warm-start persistence directory, lock sharding
  /// and Dijkstra fan-out width. Persistence is ignored when
  /// refine_with_ccd is set — a persisted table cannot prove it was
  /// computed from the refined parameters.
  rtf::CorrelationCacheOptions correlation_cache;
  /// Eagerly reload persisted Gamma_R tables during BuildOffline (no-op
  /// without correlation_cache.persist_dir), so a restarted engine does not
  /// re-pay one Dijkstra per road per warm slot.
  bool warm_start_correlations = true;

  /// When RefineSlot changes a slot's edge correlations and the closure is
  /// sparse (correlation_hop_radius > 0), patch the cached Gamma_R in
  /// place: recompute only the rows within C-1 hops of a changed edge
  /// (provably the only rows that can move) instead of invalidating and
  /// re-running one bounded closure per road. Exact — the patched table
  /// equals a full rebuild bit for bit. Dense closures always take the
  /// full-invalidate path regardless (one edge can shift any dense entry).
  bool incremental_gamma_refresh = true;

  /// Online stage defaults.
  double theta = 0.92;  // redundancy threshold (paper's tuned value)
  gsp::GspOptions gsp;
};

/// Which OCS algorithm answers the selection step. The lazy variant
/// returns the same objective value as Hybrid-Greedy via lazy submodular
/// evaluation (~10x faster on the 607-road instances) and is what the
/// serving layer defaults to.
enum class SelectorKind {
  kHybridGreedy,
  kRatioGreedy,
  kObjectiveGreedy,
  kLazyHybridGreedy,
};

/// The OCS candidates that can add coverage: the roads of `worker_roads`,
/// in the caller's order, whose road-set correlation to `queried_roads` is
/// positive (CrowdRtseConfig::prune_zero_gain_candidates). Out-of-range ids
/// pass through so OcsProblem::Create still rejects them. `queried_roads`
/// must be in range and `graph` must be the graph `table` was built on.
/// With a sparse table (hop radius C > 0) only roads within C hops of the
/// queried set are scored: the table is exactly 0 beyond C hops and hop
/// distance is symmetric, so the result equals a full scan while the
/// correlation lookups scale with the query's C-hop ball, not the city.
std::vector<graph::RoadId> PositiveGainCandidates(
    const graph::Graph& graph, const rtf::CorrelationTable& table,
    const std::vector<graph::RoadId>& queried_roads,
    const std::vector<graph::RoadId>& worker_roads);

/// The CrowdRTSE system façade (paper Fig. 1):
///
///   offline:  BuildOffline() trains the RTF over the historical record and
///             caches per-slot road-road correlation closures Gamma_R;
///   online:   SelectRoads() solves OCS for a query (which roads to probe),
///             the caller launches crowdsourcing (e.g. crowd::CrowdSimulator)
///             and feeds the probed speeds to Estimate(), which runs GSP and
///             returns realtime speeds for the whole network.
class CrowdRtse {
 public:
  /// Trains RTF from `history` over `graph` (both must outlive the object;
  /// if refine_with_ccd is set only queried slots are refined, lazily).
  static util::Result<CrowdRtse> BuildOffline(
      const graph::Graph& graph, const traffic::HistoryStore& history,
      const CrowdRtseConfig& config);

  const graph::Graph& graph() const { return *graph_; }
  const rtf::RtfModel& model() const { return *model_; }
  const CrowdRtseConfig& config() const { return config_; }

  /// The cached correlation closure for `slot` (computed on first use —
  /// ~one Dijkstra per road, fanned out on util::ThreadPool::Shared()).
  /// Thread-safe and non-blocking across slots: concurrent first touches of
  /// the same cold slot coalesce onto one computation, while other slots —
  /// warm or cold — proceed untouched. The shared_ptr keeps the table alive
  /// even if the cache's memory budget evicts it meanwhile. With
  /// refine_with_ccd set, a slot's first touch additionally refines it:
  /// refinement is serialized on an internal mutex, writes only that slot's
  /// parameters, and the table is computed from a snapshot taken under the
  /// lock — so concurrent CorrelationsFor/SelectRoads/Serve are safe
  /// without pre-warming. The one remaining caveat: Estimate() reads the
  /// model without that lock, so don't call it directly (bypassing
  /// SelectRoads) for a slot whose first refinement may be in flight on
  /// another thread.
  util::Result<rtf::CorrelationCache::TablePtr> CorrelationsFor(int slot);

  /// Hit/miss/eviction counters and cold-compute latency of the Gamma_R
  /// cache (surfaced by server::EngineStats::Report).
  rtf::CorrelationCache::StatsSnapshot CorrelationCacheStats() const {
    return correlation_cache_->stats();
  }

  /// The Gamma_R cache itself (e.g. for WarmStart or Invalidate).
  rtf::CorrelationCache& correlation_cache() { return *correlation_cache_; }

  /// Runs the CCD trainer on `slot` (whether or not refine_with_ccd is
  /// set; the slot is marked refined so lazy refinement will not repeat
  /// it) and brings the cached Gamma_R closure up to date with the new
  /// parameters. With a sparse closure and incremental_gamma_refresh the
  /// resident table is patched in place — only the rows that can have
  /// moved are recomputed; otherwise the slot is invalidated and the next
  /// lookup recomputes in full. Returns the number of Gamma_R rows
  /// recomputed by the incremental path, or -1 when the full-invalidate
  /// path was taken (0 = no edge correlation changed, nothing to do).
  util::Result<int> RefineSlot(int slot);

  /// Online step 1 — OCS: choose which worker-covered roads to probe for
  /// the given query, budget and (config) theta.
  util::Result<ocs::OcsSolution> SelectRoads(
      int slot, const std::vector<graph::RoadId>& queried_roads,
      const std::vector<graph::RoadId>& worker_roads,
      const crowd::CostModel& costs, int budget,
      SelectorKind selector = SelectorKind::kHybridGreedy);

  /// True when OCS can gain only from roads within C hops of the query: a
  /// sparse closure (correlation_hop_radius C > 0) with
  /// prune_zero_gain_candidates. The serve path then hands SelectRoads the
  /// covered roads of the query's C-hop ball instead of every covered road
  /// of the map; pruning keeps the same candidates either way.
  bool BallScopedSelection() const {
    return config_.correlation_hop_radius > 0 &&
           config_.prune_zero_gain_candidates;
  }

  /// Online step 3 — GSP: infer every road's speed from the probed data.
  util::Result<gsp::GspResult> Estimate(
      int slot, const std::vector<graph::RoadId>& sampled_roads,
      const std::vector<double>& sampled_speeds) const;

  /// GSP estimate plus a per-road confidence: the local conditional
  /// variance of the GMRF given the probes (cheap lower bound on the exact
  /// posterior variance — see gsp/uncertainty.h). Sampled roads report
  /// zero variance.
  struct ConfidentEstimate {
    gsp::GspResult estimate;
    std::vector<double> variance;
  };
  util::Result<ConfidentEstimate> EstimateWithConfidence(
      int slot, const std::vector<graph::RoadId>& sampled_roads,
      const std::vector<double>& sampled_speeds) const;

  /// Everything a query produced, for inspection.
  struct QueryOutcome {
    ocs::OcsSolution selection;
    crowd::CrowdRound round;
    gsp::GspResult estimate;
  };

  /// Convenience end-to-end answer against a simulated crowd: select roads
  /// (OCS), probe them via `crowd_sim` against `truth`, and propagate (GSP).
  util::Result<QueryOutcome> AnswerQuery(
      int slot, const std::vector<graph::RoadId>& queried_roads,
      const std::vector<graph::RoadId>& worker_roads,
      const crowd::CostModel& costs, int budget,
      crowd::CrowdSimulator& crowd_sim, const traffic::DayMatrix& truth,
      SelectorKind selector = SelectorKind::kHybridGreedy);

  /// Per-query sigma weights: the periodicity intensity of each queried
  /// road at `slot` (the weights of the OCS objective, Eq. 13).
  std::vector<double> SigmaWeights(
      int slot, const std::vector<graph::RoadId>& queried_roads) const;

  /// The RTF periodic means mu_i^t of `roads` at `slot` — the degradation
  /// ladder's fallback estimate for a road whose probes all failed (the
  /// same spatio-temporal prior STC/HTTE fall back on when probe data is
  /// missing).
  std::vector<double> PeriodicMeans(
      int slot, const std::vector<graph::RoadId>& roads) const;

 private:
  /// Lazy CCD bookkeeping, shared across copies like the cache itself.
  struct CcdState {
    std::mutex mutex;
    std::set<int> refined_slots;
  };

  CrowdRtse(const graph::Graph& graph, const traffic::HistoryStore& history,
            rtf::RtfModel model, const CrowdRtseConfig& config);

  const graph::Graph* graph_;
  const traffic::HistoryStore* history_;
  CrowdRtseConfig config_;
  // CrowdRtse stays copyable for Result<CrowdRtse>, so the (mutex-bearing)
  // cache and CCD state live behind shared_ptrs; copies share them. The
  // model is shared too: CCD refinement mutates it, and a copy recomputing
  // an evicted slot that the shared refined_slots set already marks as
  // refined must see those refined parameters, not a private stale copy.
  std::shared_ptr<rtf::RtfModel> model_;
  std::shared_ptr<rtf::CorrelationCache> correlation_cache_;
  std::shared_ptr<CcdState> ccd_state_ = std::make_shared<CcdState>();
};

}  // namespace crowdrtse::core

#endif  // CROWDRTSE_CORE_CROWD_RTSE_H_
