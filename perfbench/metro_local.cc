// metro_local: one unsharded QueryEngine over the 60k-road metro world,
// driven by two closed-loop clients in slot waves.

#include <memory>
#include <vector>

#include "closed_loop.h"
#include "harness.h"
#include "metro_world.h"
#include "server/budget_ledger.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "traced_pass.h"
#include "util/timer.h"
#include "workloads.h"

namespace crowdrtse::perfbench {
namespace {

constexpr int kClients = 2;
/// At most two probed roads per 8-road query: most of every answer comes
/// from GSP propagation, so mape_pct averages over many estimated roads
/// instead of the few queried roads that lost their workers to drift.
constexpr int kPerQueryCap = 4;
constexpr int kQueriesPerClientPerWave = 4;
constexpr int kReplayWaves = 4;
constexpr int kReplayQueriesPerWave = 4;

/// One set-up of the workload. Members are declared in dependency order:
/// the engine borrows everything above it, and CrowdRtse keeps pointers
/// into the world, so the stack lives behind a unique_ptr and never moves.
struct LocalStack {
  MetroWorld world;
  std::unique_ptr<core::CrowdRtse> system;
  std::unique_ptr<server::WorkerRegistry> registry;
  std::unique_ptr<server::BudgetLedger> ledger;
  crowd::CostModel costs;
  std::unique_ptr<crowd::CrowdSimulator> crowd_sim;
  std::unique_ptr<server::QueryEngine> engine;
  double warm_ms_per_slot = 0.0;
};

std::unique_ptr<LocalStack> SetUp(uint64_t seed) {
  auto stack = std::make_unique<LocalStack>();
  stack->world = BuildMetroWorld();
  const int n = stack->world.graph.num_roads();
  util::Result<core::CrowdRtse> system = core::CrowdRtse::BuildOffline(
      stack->world.graph, stack->world.history, MetroConfig());
  Require(system.ok(), "metro RTF build");
  stack->system = std::make_unique<core::CrowdRtse>(std::move(*system));

  // Workers drift and churn with the seed; spawned replacements are as
  // noiseless as the initial population.
  server::WorkerRegistryOptions registry_options;
  registry_options.min_bias = 1.0;
  registry_options.max_bias = 1.0;
  registry_options.min_noise_kmh = 0.0;
  registry_options.max_noise_kmh = 0.0;
  stack->registry = std::make_unique<server::WorkerRegistry>(
      stack->world.graph, NoiselessWorkers(n, kMetroWorkersPerRoad),
      registry_options, seed);
  stack->ledger = std::make_unique<server::BudgetLedger>(
      /*campaign_budget=*/-1, kPerQueryCap);
  stack->costs = crowd::CostModel::Constant(n, 2);
  stack->crowd_sim = std::make_unique<crowd::CrowdSimulator>(
      NoiselessCrowd(), util::Rng(seed));
  server::QueryEngine::Options options;
  options.propagator_pool_size = kClients;
  stack->engine = std::make_unique<server::QueryEngine>(
      *stack->system, *stack->registry, *stack->ledger, stack->costs,
      *stack->crowd_sim, options);

  // A fresh registry lists its workers in road order; drift and churn mix
  // it, and the registry's full scans slow down about 2x as it mixes (over
  // the first ~100 slots). Serving starts from the steady, mixed state.
  for (int i = 0; i < kMixSlots; ++i) stack->registry->AdvanceSlot();

  util::Timer warm;
  for (int slot = 0; slot < kMetroSlots; ++slot) {
    Require(stack->system->CorrelationsFor(slot).ok(), "Gamma_R warm-up");
  }
  stack->warm_ms_per_slot = warm.ElapsedMillis() / kMetroSlots;
  return stack;
}

}  // namespace

Report RunMetroLocal(const Flags& flags) {
  std::unique_ptr<LocalStack> stack;
  const SetUpTimes setup = RepeatSetUp(
      flags, [&] { stack.reset(); }, [&] { stack = SetUp(flags.seed); });
  LocalStack& s = *stack;
  const int n = s.world.graph.num_roads();

  LoadShape shape;
  shape.client_threads = kClients;
  shape.server_threads = kClients;
  shape.gamma_threads = NumCores();
  shape.CheckFitsMachine();
  shape.Print();

  WaveShape waves;
  waves.clients = kClients;
  waves.queries_per_client_per_wave = kQueriesPerClientPerWave;
  for (int slot = 0; slot < kMetroSlots; ++slot) waves.slots.push_back(slot);
  const auto pick = [n](util::Rng& rng) {
    return AdjacentRoads(rng, n, kMetroQuerySize);
  };
  const int64_t misses_before = s.system->CorrelationCacheStats().misses;
  const WindowResult window = RunWaves(*s.engine, *s.registry, s.world.truth,
                                       waves, pick, flags.seed,
                                       flags.seconds);
  const int64_t misses_in_window =
      s.system->CorrelationCacheStats().misses - misses_before;
  Require(misses_in_window == 0, "no Gamma_R miss inside the timed window");
  const server::EngineStats stats = s.engine->stats();
  CheckAccounting(stats, *s.ledger, window.attempts, window.paid);

  Report report;
  report.attempted = window.attempts;
  report.served = stats.queries_served;
  report.rejected = stats.queries_rejected;
  report.failed = stats.queries_failed;

  // The traced pass replays the first queries of client 0's stream, one
  // wave per slot; it also runs (on fewer queries) with tracing off, so
  // every run proves the fidelity of the replayed path.
  util::Rng replay_rng(flags.seed * 7919);
  std::vector<ReplayWave> replay;
  const int replay_waves = flags.trace ? kReplayWaves : 1;
  const int replay_per_wave = flags.trace ? kReplayQueriesPerWave : 2;
  for (int w = 0; w < replay_waves; ++w) {
    ReplayWave wave;
    for (int q = 0; q < replay_per_wave; ++q) {
      server::QueryRequest request;
      request.slot = w % kMetroSlots;
      request.queried = pick(replay_rng);
      wave.push_back(request);
    }
    replay.push_back(std::move(wave));
  }
  InProcessStack in_process;
  in_process.system = s.system.get();
  in_process.registry = s.registry.get();
  in_process.ledger = s.ledger.get();
  in_process.engine = s.engine.get();
  in_process.costs = &s.costs;
  in_process.truth = &s.world.truth;
  in_process.crowd = NoiselessCrowd();
  Report untraced_layers;
  const int64_t replay_paid =
      TracedReplay(in_process, replay, /*check_fidelity=*/true,
                   flags.trace ? report : untraced_layers);
  Require(s.ledger->reserved_outstanding() == 0 &&
              s.ledger->total_spent() == window.paid + replay_paid,
          "ledger balances after the traced pass");

  if (flags.trace) {
    report.Set("gamma.warm_ms_per_slot", s.warm_ms_per_slot);
    report.Set("gamma.misses_in_window", misses_in_window);
    report.Set("gamma.resident_mb",
               s.system->CorrelationCacheStats().resident_bytes / 1048576.0);
    return report;
  }
  SetEndToEnd(report, setup, window,
              /*full_service=*/stats.queries_served,
              /*received=*/window.attempts);
  return report;
}

}  // namespace crowdrtse::perfbench
