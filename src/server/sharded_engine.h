#ifndef CROWDRTSE_SERVER_SHARDED_ENGINE_H_
#define CROWDRTSE_SERVER_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/crowd_rtse.h"
#include "crowd/cost_model.h"
#include "obs/stage_profiler.h"
#include "crowd/crowd_simulator.h"
#include "crowd/worker.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "partition/partition.h"
#include "server/budget_ledger.h"
#include "server/engine.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "traffic/history_store.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace crowdrtse::server {

/// Knobs of the sharded engine.
struct ShardedEngineOptions {
  /// Behaviour of every per-shard QueryEngine (fault-tolerant dispatch,
  /// propagator pool size, ...). trace_sample_rate governs the ROUTER's
  /// sampling: the router creates one trace per sampled query and the
  /// sub-engines adopt it (their own sampler is zeroed at build), so a
  /// cross-shard query yields a single stitched span tree instead of K
  /// disconnected per-shard traces. Stage profiles work the same way,
  /// for every query.
  QueryEngine::Options engine;
  /// Per-shard crowd simulator behaviour. For sharded-vs-unsharded
  /// bit-identity tests use noiseless worker pools (bias 1, noise 0,
  /// outlier_rate 0) so answers do not depend on the per-shard RNG stream.
  crowd::CrowdSimOptions crowd;
  /// Shard s's simulator draws from util::Rng(crowd_seed + s).
  uint64_t crowd_seed = 0x5eedcafe;
  /// Threads of the cross-shard fan-out util::ThreadPool, the calling
  /// thread included. <= 0 derives min(num_shards, 8). Single-owner
  /// queries never touch the pool: they run inline on the calling thread.
  int fanout_threads = 0;
};

/// K per-partition serving engines behind one cross-shard query router
/// (DESIGN.md §7). Each shard owns the full vertical for its slice of the
/// map — induced subgraph over owned ∪ halo roads, projected history and
/// ground truth, its own RTF model, Gamma_R cache, cost model, worker
/// view, crowd simulator and QueryEngine — so shards share no mutable
/// state and queries on different shards proceed fully in parallel.
///
/// Query routing: a query whose roads are all owned by one shard is
/// served whole by that shard (candidates come from owned ∪ halo, so with
/// halo_radius >= max(2C, C+H+1), sparse Gamma_R, zero-gain pruning and a
/// GSP hop limit the answer is bit-identical to the unsharded engine's).
/// A query spanning owners splits per owner, fans out on the pool, and
/// the partial responses merge: speeds map back to the original request
/// order, probed/underfilled/degraded sets union (sorted, deduplicated),
/// work counts sum, gsp_sweeps takes the max.
///
/// Budget settle-up: the router reserves ONCE from the global ledger
/// (grant B) per query. Sub-engines run against private unlimited-campaign
/// ledgers whose per-query cap equals the global cap; the router caps each
/// sub-request via budget_cap (whole B for a single-owner query, a
/// largest-remainder proportional split for multi-owner), and settles the
/// global reservation with the exact sum of per-shard payments. A
/// multi-owner group whose proportional cap rounds to zero answers from
/// its shard's periodic fallback (spend 0) instead of probing. Failed
/// sub-queries settle their actual spend against their shard ledger; the
/// router then settles the global reservation with the payments of the
/// groups that succeeded.
class ShardedEngine : public Engine {
 public:
  /// Builds the K shard verticals. Everything is copied/projected except
  /// `ledger` and `world`, which are borrowed and must outlive the engine;
  /// `world` is also the identity Serve expects (serving a different
  /// DayMatrix than the one projected at build time would silently answer
  /// from stale shard worlds, so it is rejected).
  ///
  /// Validates partition/graph agreement (road count + edge checksum) and,
  /// when both locality knobs are on (config.correlation_hop_radius C > 0
  /// and config.gsp.hop_limit H > 0) with num_shards > 1, the halo
  /// invariant halo_radius >= max(2C, C + H + 1).
  static util::Result<std::unique_ptr<ShardedEngine>> Create(
      const graph::Graph& graph, const partition::Partition& partition,
      const traffic::HistoryStore& history,
      const core::CrowdRtseConfig& config, const crowd::CostModel& costs,
      const std::vector<crowd::Worker>& workers, BudgetLedger& ledger,
      const traffic::DayMatrix& world, const ShardedEngineOptions& options);

  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  util::Result<QueryResponse> Serve(const QueryRequest& request,
                                    const traffic::DayMatrix& world) override;
  util::Result<QueryResponse> ServePeriodicFallback(
      const QueryRequest& request, const traffic::DayMatrix& world) override;

  /// Drains the router (no new queries, in-flight ones finish), then every
  /// sub-engine. Idempotent; the destructor calls it.
  void Drain() override;
  bool draining() const override { return gate_.draining(); }

  /// Router-level totals plus the per-shard breakdown (EngineStats::shards
  /// holds one entry per shard). Dispatch/report counters aggregate over
  /// the sub-engines.
  EngineStats stats() const override;

  /// Router instruments plus per-shard series under {shard="k"} labels.
  const util::metrics::MetricsRegistry& metrics() const override {
    return metrics_;
  }

  /// Stitched traces of sampled queries: the router samples by its own
  /// query id, installs the trace as the ambient scope around every
  /// sub-serve (fan-out threads included), and collects the finished tree
  /// here — one trace per query with a "shard" child span per owner, so
  /// Frontend's /trace/<id> works identically on both engine kinds.
  const util::trace::TraceCollector& traces() const override {
    return traces_;
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const partition::Partition& partition() const { return partition_; }
  /// Direct access to one shard's engine (tests, trace drill-down).
  QueryEngine& shard_engine(int shard) { return *shards_[shard]->engine; }
  /// Direct access to one shard's CrowdRtse vertical (tests: e.g. comparing
  /// a shard's incrementally patched Gamma_R against a full rebuild).
  core::CrowdRtse& shard_system(int shard) { return *shards_[shard]->system; }

  /// Runs core::CrowdRtse::RefineSlot on every shard: each shard's RTF
  /// parameters for `slot` are CCD-refined against its projected history
  /// and its cached Gamma_R closure is brought up to date (patched in
  /// place when the closure is sparse and incremental_gamma_refresh is on,
  /// invalidated otherwise). Returns one per-shard row count in shard
  /// order, with the same meaning as the single-engine call. Mutates the
  /// shard models, so it must not race with in-flight queries — quiesce
  /// first, like SyncWorkers.
  util::Result<std::vector<int>> RefineSlot(int slot);

  /// Re-projects a fresh global worker snapshot into every shard's local
  /// registry (e.g. after the global WorkerRegistry advanced a slot). Must
  /// not race with in-flight queries — quiesce first, like AdvanceSlot.
  void SyncWorkers(const std::vector<crowd::Worker>& workers);

  /// Re-projects the borrowed global world into every shard's private
  /// world copy. Call after mutating the global DayMatrix in place (e.g. a
  /// scenario incident drops ground-truth speeds mid-run) — Serve checks
  /// only the DayMatrix identity, so stale shard projections would
  /// otherwise keep answering from pre-incident speeds. Must not race with
  /// in-flight queries.
  void SyncWorld();

  /// Distributes a global fault plan to every shard's engine, remapping
  /// per-road specs into shard-local ids (roads outside a shard's members
  /// are dropped for that shard; worker specs and the default spec forward
  /// unchanged). Note that fault *decisions* hash shard-local road ids, so
  /// a faulted scenario is deterministic per engine kind but not
  /// bit-identical across sharded and unsharded runs — except rate-1
  /// fixed-value corruption (coordinated liars), whose outcome does not
  /// depend on the hash draw. Must not race with in-flight queries.
  void SetFaultPlan(const crowd::FaultPlan& plan);

 private:
  /// One shard's vertical. Construction order matters: the engine borrows
  /// everything above it, and CrowdRtse keeps pointers to the subgraph and
  /// history, so Shard lives behind a unique_ptr and is never moved after
  /// BuildShard returns.
  struct Shard {
    partition::ShardLayout layout;  // copy: owned/halo/members remapping
    graph::Subgraph sub;            // induced over layout.members
    traffic::HistoryStore history;  // projected to members
    traffic::DayMatrix world;       // projected "today"
    crowd::CostModel costs;
    std::unique_ptr<core::CrowdRtse> system;
    std::unique_ptr<WorkerRegistry> registry;
    std::unique_ptr<BudgetLedger> ledger;  // unlimited campaign, global cap
    std::unique_ptr<crowd::CrowdSimulator> crowd_sim;
    std::unique_ptr<QueryEngine> engine;
  };

  ShardedEngine(partition::Partition partition, BudgetLedger& ledger,
                const traffic::DayMatrix& world,
                const ShardedEngineOptions& options);

  static util::Status BuildShard(Shard& shard, const graph::Graph& graph,
                                 const traffic::HistoryStore& history,
                                 const core::CrowdRtseConfig& config,
                                 const crowd::CostModel& costs,
                                 const std::vector<crowd::Worker>& workers,
                                 const traffic::DayMatrix& world,
                                 int per_query_cap, int shard_index,
                                 const ShardedEngineOptions& options);

  /// Projects the global worker snapshot into `layout`-local ids,
  /// preserving the global order (population order breaks ties in the
  /// worker index, so a shard hires as the unsharded engine would).
  static std::vector<crowd::Worker> ProjectWorkers(
      const partition::ShardLayout& layout,
      const std::vector<crowd::Worker>& workers);

  /// Rejects a request for another world than the one the shards were
  /// projected from, or of the wrong shape (ValidateQuery).
  util::Status CheckRequest(const QueryRequest& request,
                            const traffic::DayMatrix& world) const;
  /// Maps a sub-response's local road ids to global ids in place.
  void GlobalizeResponse(const Shard& shard, QueryResponse& response) const;

  partition::Partition partition_;
  BudgetLedger& ledger_;
  const traffic::DayMatrix* world_;
  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Runs a multi-owner query's groups; concurrent Serve calls share it.
  util::ThreadPool fanout_;

  std::atomic<int64_t> next_query_id_{1};
  ServeGate gate_;

  util::metrics::MetricsRegistry metrics_;
  util::trace::TraceCollector traces_;
  /// Router-owned stage profiler: the merge stage records here directly,
  /// and sub-engine stages flow in through the ambient scope the router
  /// installs around sub-serves.
  obs::StageProfiler profiler_;
  ServeCounters counters_;
  util::metrics::Counter* queries_cross_shard_ = nullptr;
};

}  // namespace crowdrtse::server

#endif  // CROWDRTSE_SERVER_SHARDED_ENGINE_H_
