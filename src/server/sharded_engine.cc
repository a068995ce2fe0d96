#include "server/sharded_engine.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "graph/graph_io.h"
#include "obs/flight_recorder.h"
#include "util/timer.h"

namespace crowdrtse::server {

namespace {

/// Groups the queried roads by owner shard: returns the owners in
/// ascending order and fills `group_indices[s]` with the request positions
/// of shard s's roads, so merged answers stay aligned.
std::vector<int> GroupByOwner(const partition::Partition& partition,
                              const QueryRequest& request,
                              std::vector<std::vector<size_t>>& group_indices) {
  group_indices.assign(static_cast<size_t>(partition.num_shards), {});
  std::vector<int> owners;
  for (size_t i = 0; i < request.queried.size(); ++i) {
    const int s = partition.OwnerOf(request.queried[i]);
    if (group_indices[static_cast<size_t>(s)].empty()) owners.push_back(s);
    group_indices[static_cast<size_t>(s)].push_back(i);
  }
  std::sort(owners.begin(), owners.end());
  return owners;
}

/// The roads of `request` at `indices`, in the shard's local ids.
QueryRequest SubRequest(const partition::ShardLayout& layout,
                        const QueryRequest& request,
                        const std::vector<size_t>& indices, int budget_cap) {
  QueryRequest sub;
  sub.slot = request.slot;
  sub.selector = request.selector;
  sub.budget_cap = budget_cap;
  sub.queried.reserve(indices.size());
  for (size_t idx : indices) {
    sub.queried.push_back(layout.LocalId(request.queried[idx]));
  }
  return sub;
}

/// One owner shard's share of a routed query: its sub-request, budget cap
/// and the positions of its roads in the original request.
struct GroupRun {
  int shard = 0;
  int cap = 0;
  const std::vector<size_t>* indices = nullptr;
  QueryRequest sub;
  util::Status status = util::Status::Ok();
  QueryResponse response;
  bool ok = false;
};

/// Merges the (globalized) answers of a cross-shard query's groups: speeds
/// (and variances when `merge_variances`) back at their request positions,
/// probed/underfilled/degraded sets unioned, payments and work summed, the
/// dispatch span and GSP sweeps at their maximum.
QueryResponse MergeGroups(const QueryRequest& request,
                          const std::vector<GroupRun>& runs,
                          bool merge_variances) {
  QueryResponse response;
  response.queried_speeds.assign(request.queried.size(), 0.0);
  if (merge_variances) {
    response.queried_variances.assign(request.queried.size(), 0.0);
  }
  std::vector<std::pair<graph::RoadId, crowd::DegradeReason>> degraded;
  for (const GroupRun& run : runs) {
    for (size_t j = 0; j < run.indices->size(); ++j) {
      const size_t idx = (*run.indices)[j];
      response.queried_speeds[idx] = run.response.queried_speeds[j];
      if (merge_variances && j < run.response.queried_variances.size()) {
        response.queried_variances[idx] = run.response.queried_variances[j];
      }
    }
    response.probed_roads.insert(response.probed_roads.end(),
                                 run.response.probed_roads.begin(),
                                 run.response.probed_roads.end());
    response.underfilled_roads.insert(response.underfilled_roads.end(),
                                      run.response.underfilled_roads.begin(),
                                      run.response.underfilled_roads.end());
    for (size_t d = 0; d < run.response.degraded_roads.size(); ++d) {
      degraded.emplace_back(run.response.degraded_roads[d],
                            d < run.response.degraded_reasons.size()
                                ? run.response.degraded_reasons[d]
                                : crowd::DegradeReason::kLoadShed);
    }
    response.paid += run.response.paid;
    response.dispatch_span_ms =
        std::max(response.dispatch_span_ms, run.response.dispatch_span_ms);
    response.gsp_sweeps =
        std::max(response.gsp_sweeps, run.response.gsp_sweeps);
    response.work += run.response.work;
  }
  // Halo roads near a cut can be probed by two shards; the merged
  // provenance reports each road once.
  std::sort(response.probed_roads.begin(), response.probed_roads.end());
  response.probed_roads.erase(std::unique(response.probed_roads.begin(),
                                          response.probed_roads.end()),
                              response.probed_roads.end());
  std::sort(response.underfilled_roads.begin(),
            response.underfilled_roads.end());
  response.underfilled_roads.erase(
      std::unique(response.underfilled_roads.begin(),
                  response.underfilled_roads.end()),
      response.underfilled_roads.end());
  std::sort(degraded.begin(), degraded.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  degraded.erase(std::unique(degraded.begin(), degraded.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 degraded.end());
  response.degraded_roads.reserve(degraded.size());
  response.degraded_reasons.reserve(degraded.size());
  for (const auto& [road, reason] : degraded) {
    response.degraded_roads.push_back(road);
    response.degraded_reasons.push_back(reason);
  }
  return response;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction

ShardedEngine::ShardedEngine(partition::Partition partition,
                             BudgetLedger& ledger,
                             const traffic::DayMatrix& world,
                             const ShardedEngineOptions& options)
    : partition_(std::move(partition)),
      ledger_(ledger),
      world_(&world),
      options_(options),
      fanout_(options.fanout_threads > 0
                  ? options.fanout_threads
                  : std::min(partition_.num_shards, 8)),
      traces_(util::trace::TraceCollector::Options{
          options.engine.trace_ring_size, options.engine.trace_slow_log_size}),
      profiler_(&metrics_),
      counters_(metrics_) {
  queries_cross_shard_ = &metrics_.GetCounter(
      "crowdrtse_queries_cross_shard_total",
      "queries whose roads spanned more than one owner shard");
  metrics_.RegisterCallbackGauge(
      "crowdrtse_ledger_reserved_outstanding",
      "budget units earmarked by in-flight reservations",
      [this] { return ledger_.reserved_outstanding(); });
  metrics_.RegisterCallbackGauge(
      "crowdrtse_ledger_remaining_units",
      "campaign budget not yet spent or reserved",
      [this] { return ledger_.remaining(); });
  metrics_.RegisterCallbackGauge(
      "crowdrtse_traces_collected", "sampled stitched traces collected",
      [this] { return traces_.collected(); });
}

std::vector<crowd::Worker> ShardedEngine::ProjectWorkers(
    const partition::ShardLayout& layout,
    const std::vector<crowd::Worker>& workers) {
  std::vector<crowd::Worker> local;
  for (const crowd::Worker& w : workers) {
    if (w.road < 0) continue;
    const graph::RoadId local_road = layout.LocalId(w.road);
    if (local_road == graph::kInvalidRoad) continue;
    crowd::Worker projected = w;
    projected.road = local_road;
    local.push_back(projected);
  }
  return local;
}

util::Status ShardedEngine::BuildShard(
    Shard& shard, const graph::Graph& graph,
    const traffic::HistoryStore& history,
    const core::CrowdRtseConfig& config, const crowd::CostModel& costs,
    const std::vector<crowd::Worker>& workers,
    const traffic::DayMatrix& world, int per_query_cap, int shard_index,
    const ShardedEngineOptions& options) {
  const partition::ShardLayout& layout = shard.layout;
  const int num_members = layout.num_members();

  util::Result<graph::Subgraph> sub =
      graph::InducedSubgraph(graph, layout.members);
  if (!sub.ok()) return sub.status();
  shard.sub = std::move(*sub);

  // Projections: per-road data restricted to members, local id = position
  // in the sorted member list (the monotone mapping every exactness
  // argument leans on).
  shard.history = traffic::HistoryStore(num_members, history.num_days(),
                                        history.num_slots());
  for (int day = 0; day < history.num_days(); ++day) {
    for (int slot = 0; slot < history.num_slots(); ++slot) {
      for (int local = 0; local < num_members; ++local) {
        shard.history.At(day, slot, local) =
            history.At(day, slot, layout.members[static_cast<size_t>(local)]);
      }
    }
  }
  shard.world = traffic::DayMatrix(world.num_slots(), num_members);
  for (int slot = 0; slot < world.num_slots(); ++slot) {
    for (int local = 0; local < num_members; ++local) {
      shard.world.At(slot, local) =
          world.At(slot, layout.members[static_cast<size_t>(local)]);
    }
  }
  std::vector<int> local_costs(static_cast<size_t>(num_members));
  for (int local = 0; local < num_members; ++local) {
    local_costs[static_cast<size_t>(local)] =
        costs.Cost(layout.members[static_cast<size_t>(local)]);
  }
  util::Result<crowd::CostModel> cost_model =
      crowd::CostModel::FromCosts(std::move(local_costs));
  if (!cost_model.ok()) return cost_model.status();
  shard.costs = std::move(*cost_model);

  // Per-shard model: moment estimation is a pure per-road/per-edge
  // function of the member series, so training on the projection equals
  // the global parameters restricted to the shard.
  core::CrowdRtseConfig shard_config = config;
  if (!shard_config.correlation_cache.persist_dir.empty()) {
    shard_config.correlation_cache.persist_dir +=
        "/shard" + std::to_string(shard_index);
  }
  util::Result<core::CrowdRtse> system = core::CrowdRtse::BuildOffline(
      shard.sub.graph, shard.history, shard_config);
  if (!system.ok()) return system.status();
  shard.system = std::make_unique<core::CrowdRtse>(std::move(*system));

  shard.registry = std::make_unique<WorkerRegistry>(
      shard.sub.graph, ProjectWorkers(layout, workers),
      WorkerRegistryOptions{}, options.crowd_seed + 0x9e37 +
                                  static_cast<uint64_t>(shard_index));
  // Private unlimited-campaign ledger: the global campaign is enforced
  // once, by the router's reservation; the shard cap mirrors the global
  // per-query cap so min(cap, sub budget_cap) reproduces the unsharded
  // spend budget.
  shard.ledger = std::make_unique<BudgetLedger>(-1, per_query_cap);
  shard.crowd_sim = std::make_unique<crowd::CrowdSimulator>(
      options.crowd,
      util::Rng(options.crowd_seed + static_cast<uint64_t>(shard_index)));
  // The router owns trace sampling and stage profiling for sharded
  // serving: sub-engines adopt the ambient scopes it installs around each
  // sub-serve. Their trace sampler is zeroed so a cross-shard query cannot
  // also collect K disconnected per-shard traces under local query ids.
  QueryEngine::Options sub_options = options.engine;
  sub_options.trace_sample_rate = 0.0;
  shard.engine = std::make_unique<QueryEngine>(
      *shard.system, *shard.registry, *shard.ledger, shard.costs,
      *shard.crowd_sim, sub_options);
  return util::Status::Ok();
}

util::Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const graph::Graph& graph, const partition::Partition& partition,
    const traffic::HistoryStore& history,
    const core::CrowdRtseConfig& config, const crowd::CostModel& costs,
    const std::vector<crowd::Worker>& workers, BudgetLedger& ledger,
    const traffic::DayMatrix& world, const ShardedEngineOptions& options) {
  if (partition.num_roads != graph.num_roads()) {
    return util::Status::InvalidArgument(
        "partition covers " + std::to_string(partition.num_roads) +
        " roads but the graph has " + std::to_string(graph.num_roads()));
  }
  if (partition.graph_checksum != graph::EdgeListChecksum(graph)) {
    return util::Status::InvalidArgument(
        "partition checksum does not match the graph's edge list — the "
        "partition was computed for a different map");
  }
  if (history.num_roads() != graph.num_roads()) {
    return util::Status::InvalidArgument(
        "history road count does not match the graph");
  }
  if (world.num_roads() != graph.num_roads()) {
    return util::Status::InvalidArgument(
        "world road count does not match the graph");
  }
  if (world.num_slots() != history.num_slots()) {
    return util::Status::InvalidArgument(
        "world slot count does not match the history");
  }
  if (costs.num_roads() != graph.num_roads()) {
    return util::Status::InvalidArgument(
        "cost model road count does not match the graph");
  }
  const int hop_c = config.correlation_hop_radius;
  const int hop_h = config.gsp.hop_limit;
  if (partition.num_shards > 1 && hop_c > 0 && hop_h > 0) {
    const int required = std::max(2 * hop_c, hop_c + hop_h + 1);
    if (partition.halo_radius < required) {
      return util::Status::InvalidArgument(
          "halo_radius " + std::to_string(partition.halo_radius) +
          " breaks the locality contract: need >= max(2C, C+H+1) = " +
          std::to_string(required) + " for correlation radius C=" +
          std::to_string(hop_c) + " and GSP hop limit H=" +
          std::to_string(hop_h));
    }
  }

  std::unique_ptr<ShardedEngine> engine(
      new ShardedEngine(partition, ledger, world, options));
  engine->shards_.reserve(static_cast<size_t>(partition.num_shards));
  for (int s = 0; s < partition.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->layout = engine->partition_.shards[static_cast<size_t>(s)];
    const util::Status built = BuildShard(
        *shard, graph, history, config, costs, workers, world,
        ledger.per_query_cap(), s, options);
    if (!built.ok()) return built;
    engine->shards_.push_back(std::move(shard));
  }

  // Per-shard observability: one labeled series per shard on top of the
  // router aggregates. Callback gauges read the sub-engine at render time.
  for (int s = 0; s < engine->num_shards(); ++s) {
    QueryEngine* sub = engine->shards_[static_cast<size_t>(s)]->engine.get();
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    engine->metrics_.RegisterCallbackGauge(
        "crowdrtse_shard_queries_served" + label,
        "queries served by this shard's engine",
        [sub] { return sub->stats().queries_served; });
    engine->metrics_.RegisterCallbackGauge(
        "crowdrtse_shard_queries_failed" + label,
        "queries failed by this shard's engine",
        [sub] { return sub->stats().queries_failed; });
    engine->metrics_.RegisterCallbackGauge(
        "crowdrtse_shard_roads_degraded" + label,
        "roads degraded inside this shard",
        [sub] { return sub->stats().roads_degraded; });
    engine->metrics_.RegisterCallbackGauge(
        "crowdrtse_shard_gamma_resident_bytes" + label,
        "resident Gamma_R cache footprint of this shard",
        [sub] { return sub->stats().gamma_cache.resident_bytes; });
    const int64_t owned = static_cast<int64_t>(
        engine->shards_[static_cast<size_t>(s)]->layout.owned.size());
    const int64_t members = static_cast<int64_t>(
        engine->shards_[static_cast<size_t>(s)]->layout.members.size());
    engine->metrics_.RegisterCallbackGauge(
        "crowdrtse_shard_owned_roads" + label,
        "roads this shard answers for", [owned] { return owned; });
    engine->metrics_.RegisterCallbackGauge(
        "crowdrtse_shard_member_roads" + label,
        "owned + halo roads in this shard's subgraph",
        [members] { return members; });
  }
  return engine;
}

ShardedEngine::~ShardedEngine() { Drain(); }

// ---------------------------------------------------------------------------
// Serving

void ShardedEngine::Drain() {
  gate_.Drain();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->engine) shard->engine->Drain();
  }
}

util::Status ShardedEngine::CheckRequest(
    const QueryRequest& request, const traffic::DayMatrix& world) const {
  if (&world != world_) {
    return util::Status::InvalidArgument(
        "sharded engine can only serve the world its shards were "
        "projected from");
  }
  return ValidateQuery(request, world_->num_slots(), partition_.num_roads);
}

void ShardedEngine::GlobalizeResponse(const Shard& shard,
                                      QueryResponse& response) const {
  const auto to_global = [&shard](std::vector<graph::RoadId>& roads) {
    for (graph::RoadId& r : roads) {
      r = shard.layout.members[static_cast<size_t>(r)];
    }
  };
  // Sorted local lists stay sorted: the local order IS the ascending
  // global order of the members.
  to_global(response.probed_roads);
  to_global(response.underfilled_roads);
  to_global(response.degraded_roads);
}

util::Result<QueryResponse> ShardedEngine::Serve(
    const QueryRequest& request, const traffic::DayMatrix& world) {
  util::Timer serve_timer;
  const ServeGate::Admission admission(gate_);
  if (!admission) {
    return counters_.Reject(util::Status::FailedPrecondition(
        "engine draining: no new queries admitted"));
  }
  const util::Status valid = CheckRequest(request, world);
  if (!valid.ok()) return counters_.Reject(valid);

  const int64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);

  // Router-owned sampling: one trace per sampled query, stitched across
  // every shard it touches. The ambient ScopedTrace makes the sub-engines
  // adopt this trace (their own sampling is zeroed at build), and
  // root_span below is what the fan-out threads parent their per-shard
  // spans under.
  std::shared_ptr<util::trace::Trace> trace;
  if (util::trace::ShouldSample(options_.engine.trace_sample_rate,
                                static_cast<uint64_t>(query_id))) {
    trace = std::make_shared<util::trace::Trace>(query_id,
                                                 options_.engine.clock);
  }
  struct Collect {
    util::trace::TraceCollector& collector;
    std::shared_ptr<util::trace::Trace> trace;
    ~Collect() {
      if (trace) collector.Collect(std::move(trace));
    }
  } collect{traces_, trace};
  std::optional<util::trace::ScopedTrace> scoped;
  if (trace) scoped.emplace(trace.get());
  util::trace::Span serve_span("serve");
  serve_span.Annotate("engine", "sharded");
  serve_span.Annotate("slot", static_cast<int64_t>(request.slot));
  serve_span.Annotate("queried",
                      static_cast<int64_t>(request.queried.size()));
  const int64_t root_span = util::trace::ActiveSpanId();
  // Stage profiling aggregates under the router's query id across every
  // shard.
  obs::ScopedProfile profile(&profiler_, query_id);

  const int granted = ledger_.Reserve(query_id);
  if (granted <= 0) {
    serve_span.Annotate("outcome", "budget_denied");
    return counters_.Reject(util::Status::FailedPrecondition(
        "campaign budget exhausted: " + ledger_.Report()));
  }
  const int spend_budget =
      request.budget_cap > 0 ? std::min(granted, request.budget_cap)
                             : granted;

  std::vector<std::vector<size_t>> group_indices;
  const std::vector<int> owners =
      GroupByOwner(partition_, request, group_indices);

  // A single-owner query — the common, exactness-bearing case — is one
  // group with the full spend budget, run inline on the calling thread.
  const bool cross_shard = owners.size() > 1;
  if (cross_shard) {
    queries_cross_shard_->Increment();
    obs::RecordEvent(obs::EventKind::kShardSplit, query_id,
                     static_cast<int64_t>(owners.size()), spend_budget);
  }

  // Largest-remainder proportional budget split over group sizes; the
  // caps sum exactly to spend_budget. A group whose cap rounds to zero
  // answers from its shard's periodic fallback (spend 0).
  const size_t total_roads = request.queried.size();
  std::vector<int> caps(owners.size(), 0);
  {
    int assigned = 0;
    for (size_t g = 0; g < owners.size(); ++g) {
      const size_t size =
          group_indices[static_cast<size_t>(owners[g])].size();
      caps[g] = static_cast<int>(
          (static_cast<int64_t>(spend_budget) *
           static_cast<int64_t>(size)) /
          static_cast<int64_t>(total_roads));
      assigned += caps[g];
    }
    for (size_t g = 0; assigned < spend_budget; g = (g + 1) % owners.size()) {
      ++caps[g];
      ++assigned;
    }
  }

  std::vector<GroupRun> runs(owners.size());
  for (size_t g = 0; g < owners.size(); ++g) {
    GroupRun& run = runs[g];
    run.shard = owners[g];
    run.cap = caps[g];
    run.indices = &group_indices[static_cast<size_t>(owners[g])];
    run.sub = SubRequest(shards_[static_cast<size_t>(run.shard)]->layout,
                         request, *run.indices, run.cap);
  }

  const auto run_group = [this, &trace, root_span, query_id](GroupRun& run) {
    // A fan-out pool thread carries no ambient trace/profile scope:
    // install the router's, parenting this thread's spans under the root
    // "serve" span so the per-shard subtree stitches into one tree. The
    // calling thread, which runs groups too, already carries the trace.
    std::optional<util::trace::ScopedTrace> adopt;
    if (trace && util::trace::ActiveTrace() != trace.get()) {
      adopt.emplace(trace.get(), root_span);
    }
    obs::ScopedProfile profile_scope(&profiler_, query_id);
    util::trace::Span shard_span("shard");
    shard_span.Annotate("shard", static_cast<int64_t>(run.shard));
    shard_span.Annotate("cap", static_cast<int64_t>(run.cap));
    obs::ScopedShard shard_scope(run.shard);
    Shard& shard = *shards_[static_cast<size_t>(run.shard)];
    util::Result<QueryResponse> result =
        run.cap > 0 ? shard.engine->Serve(run.sub, shard.world)
                    : shard.engine->ServePeriodicFallback(run.sub,
                                                          shard.world);
    if (result.ok()) {
      run.response = std::move(*result);
      GlobalizeResponse(shard, run.response);
      run.ok = true;
    } else {
      run.status = result.status();
    }
    shard_span.Annotate("outcome", run.ok ? "served" : "failed");
  };

  fanout_.ParallelFor(runs.size(), [&run_group, &runs](size_t begin,
                                                       size_t end) {
    for (size_t g = begin; g < end; ++g) run_group(runs[g]);
  });

  int total_paid = 0;
  for (const GroupRun& run : runs) {
    if (run.ok) total_paid += run.response.paid;
  }
  for (const GroupRun& run : runs) {
    if (!run.ok) {
      // The groups that did run were really paid; the failed group settled
      // its own spend against its shard ledger before reporting.
      (void)ledger_.Settle(query_id, granted, total_paid);
      serve_span.Annotate("outcome", "failed_shard");
      return counters_.Fail(run.status, total_paid);
    }
  }

  QueryResponse response;
  if (cross_shard) {
    util::trace::Span merge_span("merge");
    merge_span.Annotate("owners", static_cast<int64_t>(owners.size()));
    obs::StageTimer merge_timer(obs::Stage::kMerge);
    response = MergeGroups(request, runs,
                           options_.engine.fault_tolerant_dispatch);
    merge_timer.Stop();
    merge_span.End();
    obs::RecordEvent(obs::EventKind::kShardMerge, query_id, total_paid,
                     static_cast<int64_t>(owners.size()));
  } else {
    response = std::move(runs[0].response);
  }
  response.query_id = query_id;
  response.granted_budget = granted;

  const util::Status settled =
      ledger_.Settle(query_id, granted, response.paid);
  if (!settled.ok()) {
    serve_span.Annotate("outcome", "failed_settle");
    return counters_.Fail(settled);
  }
  counters_.Served(response, serve_timer.ElapsedMillis());
  serve_span.Annotate("paid", static_cast<int64_t>(response.paid));
  serve_span.Annotate("outcome", "served");
  serve_span.End();
  if (trace) response.trace_summary = util::trace::Summarize(*trace);
  return response;
}

util::Result<QueryResponse> ShardedEngine::ServePeriodicFallback(
    const QueryRequest& request, const traffic::DayMatrix& world) {
  util::Timer serve_timer;
  const ServeGate::Admission admission(gate_);
  if (!admission) {
    return counters_.Reject(util::Status::FailedPrecondition(
        "engine draining: no new queries admitted"));
  }
  const util::Status valid = CheckRequest(request, world);
  if (!valid.ok()) return counters_.Reject(valid);

  const int64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::vector<size_t>> group_indices;
  const std::vector<int> owners =
      GroupByOwner(partition_, request, group_indices);

  std::vector<GroupRun> runs(owners.size());
  for (size_t g = 0; g < owners.size(); ++g) {
    Shard& shard = *shards_[static_cast<size_t>(owners[g])];
    runs[g].indices = &group_indices[static_cast<size_t>(owners[g])];
    util::Result<QueryResponse> served = shard.engine->ServePeriodicFallback(
        SubRequest(shard.layout, request, *runs[g].indices, 0), shard.world);
    if (!served.ok()) return counters_.Fail(served.status());
    runs[g].response = std::move(*served);
    GlobalizeResponse(shard, runs[g].response);
  }
  QueryResponse response =
      MergeGroups(request, runs, /*merge_variances=*/true);
  response.query_id = query_id;
  counters_.Shed(response, serve_timer.ElapsedMillis());
  return response;
}

// ---------------------------------------------------------------------------
// Introspection

EngineStats ShardedEngine::stats() const {
  EngineStats snapshot;
  counters_.Fill(snapshot);
  snapshot.shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const EngineStats sub = shards_[s]->engine->stats();
    snapshot.crowd_retries += sub.crowd_retries;
    snapshot.crowd_reassignments += sub.crowd_reassignments;
    snapshot.crowd_deadline_misses += sub.crowd_deadline_misses;
    snapshot.reports_late += sub.reports_late;
    snapshot.reports_duplicate += sub.reports_duplicate;
    snapshot.reports_outlier += sub.reports_outlier;
    snapshot.gamma_cache.hits += sub.gamma_cache.hits;
    snapshot.gamma_cache.misses += sub.gamma_cache.misses;
    snapshot.gamma_cache.coalesced += sub.gamma_cache.coalesced;
    snapshot.gamma_cache.evictions += sub.gamma_cache.evictions;
    snapshot.gamma_cache.warm_loads += sub.gamma_cache.warm_loads;
    snapshot.gamma_cache.persist_failures += sub.gamma_cache.persist_failures;
    snapshot.gamma_cache.resident_tables += sub.gamma_cache.resident_tables;
    snapshot.gamma_cache.resident_bytes += sub.gamma_cache.resident_bytes;
    ShardStats entry;
    entry.shard = static_cast<int>(s);
    entry.queries_served = sub.queries_served;
    entry.queries_rejected = sub.queries_rejected;
    entry.queries_failed = sub.queries_failed;
    entry.roads_degraded = sub.roads_degraded;
    entry.gamma_cache_bytes = sub.gamma_cache.resident_bytes;
    snapshot.shards.push_back(entry);
  }
  return snapshot;
}

void ShardedEngine::SyncWorkers(const std::vector<crowd::Worker>& workers) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->registry->ReplaceWorkers(ProjectWorkers(shard->layout, workers));
  }
}

void ShardedEngine::SyncWorld() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const partition::ShardLayout& layout = shard->layout;
    for (int slot = 0; slot < world_->num_slots(); ++slot) {
      for (int local = 0; local < layout.num_members(); ++local) {
        shard->world.At(slot, local) =
            world_->At(slot, layout.members[static_cast<size_t>(local)]);
      }
    }
  }
}

void ShardedEngine::SetFaultPlan(const crowd::FaultPlan& plan) {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    crowd::FaultPlan local(plan.default_spec(), plan.seed());
    for (const auto& [road, spec] : plan.road_specs()) {
      const graph::RoadId local_id = shard->layout.LocalId(road);
      if (local_id != graph::kInvalidRoad) local.SetRoadSpec(local_id, spec);
    }
    for (const auto& [worker, spec] : plan.worker_specs()) {
      local.SetWorkerSpec(worker, spec);
    }
    shard->engine->SetFaultPlan(local);
  }
}

util::Result<std::vector<int>> ShardedEngine::RefineSlot(int slot) {
  std::vector<int> rows_per_shard;
  rows_per_shard.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    util::Result<int> rows = shards_[s]->system->RefineSlot(slot);
    if (!rows.ok()) {
      return util::Status(rows.status().code(),
                          "shard " + std::to_string(s) + ": " +
                              std::string(rows.status().message()));
    }
    rows_per_shard.push_back(*rows);
  }
  return rows_per_shard;
}

}  // namespace crowdrtse::server
