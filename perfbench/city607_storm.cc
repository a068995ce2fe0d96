// city607_storm: the paper's 607-road semi-synthetic world under a seeded
// drop + delay fault storm, served by fault-tolerant dispatch on a
// SimClock; two closed-loop clients in slot waves.

#include <memory>
#include <vector>

#include "closed_loop.h"
#include "crowd/fault_plan.h"
#include "harness.h"
#include "metro_world.h"
#include "semi_synthetic.h"
#include "server/budget_ledger.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "traced_pass.h"
#include "util/clock.h"
#include "util/timer.h"
#include "workloads.h"

namespace crowdrtse::perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kQueriesPerClientPerWave = 8;
constexpr int kQuerySize = 20;
constexpr int kPerQueryCap = 30;
constexpr int kWorkersPerRoad = 3;
/// Twelve query slots two hours apart, so rush hours and nights both
/// contribute.
constexpr int kSlotStride = 24;
constexpr int kReplayWaves = 6;
constexpr int kReplayQueriesPerWave = 8;

crowd::FaultPlan StormPlan(uint64_t seed) {
  crowd::FaultSpec storm;
  storm.drop_rate = 0.3;
  storm.delay_rate = 0.2;
  return crowd::FaultPlan(storm, seed);
}

struct StormStack {
  bench::SemiSyntheticWorld world;
  std::unique_ptr<core::CrowdRtse> system;
  std::unique_ptr<server::WorkerRegistry> registry;
  std::unique_ptr<server::BudgetLedger> ledger;
  crowd::CostModel costs;
  std::unique_ptr<crowd::CrowdSimulator> crowd_sim;
  util::SimClock clock;
  std::unique_ptr<server::QueryEngine> engine;
  std::vector<int> slots;
  double warm_ms_per_slot = 0.0;
};

std::unique_ptr<StormStack> SetUp(uint64_t seed) {
  auto stack = std::make_unique<StormStack>();
  stack->world = bench::BuildWorld();
  const graph::Graph& network = stack->world.network;
  const int n = network.num_roads();
  // Dense, paper-exact Gamma_R closure (correlation_hop_radius 0).
  util::Result<core::CrowdRtse> system = core::CrowdRtse::BuildOffline(
      network, stack->world.history, core::CrowdRtseConfig{});
  Require(system.ok(), "607-road RTF build");
  stack->system = std::make_unique<core::CrowdRtse>(std::move(*system));

  // Three workers per road with seeded persistent bias and noise; churned
  // replacements draw from the same ranges.
  server::WorkerRegistryOptions registry_options;
  util::Rng worker_rng(seed ^ 0x607);
  std::vector<crowd::Worker> workers;
  for (graph::RoadId r = 0; r < n; ++r) {
    for (int k = 0; k < kWorkersPerRoad; ++k) {
      crowd::Worker w;
      w.id = static_cast<crowd::WorkerId>(workers.size());
      w.road = r;
      w.bias = worker_rng.UniformDouble(registry_options.min_bias,
                                        registry_options.max_bias);
      w.noise_kmh = worker_rng.UniformDouble(registry_options.min_noise_kmh,
                                             registry_options.max_noise_kmh);
      workers.push_back(w);
    }
  }
  stack->registry = std::make_unique<server::WorkerRegistry>(
      network, std::move(workers), registry_options, seed);
  stack->ledger = std::make_unique<server::BudgetLedger>(
      /*campaign_budget=*/-1, kPerQueryCap);
  stack->costs = crowd::CostModel::Constant(n, 2);
  stack->crowd_sim = std::make_unique<crowd::CrowdSimulator>(
      crowd::CrowdSimOptions{}, util::Rng(seed));
  server::QueryEngine::Options options;
  options.propagator_pool_size = kClients;
  options.fault_tolerant_dispatch = true;
  options.fault_plan = StormPlan(seed);
  options.clock = &stack->clock;
  stack->engine = std::make_unique<server::QueryEngine>(
      *stack->system, *stack->registry, *stack->ledger, stack->costs,
      *stack->crowd_sim, options);

  // Serve from a mixed population, as metro_local does (kMixSlots).
  for (int i = 0; i < kMixSlots; ++i) stack->registry->AdvanceSlot();

  for (int slot = 0; slot < stack->world.truth.num_slots();
       slot += kSlotStride) {
    stack->slots.push_back(slot);
  }
  util::Timer warm;
  for (int slot : stack->slots) {
    Require(stack->system->CorrelationsFor(slot).ok(), "Gamma_R warm-up");
  }
  stack->warm_ms_per_slot =
      warm.ElapsedMillis() / static_cast<double>(stack->slots.size());
  return stack;
}

}  // namespace

Report RunCity607Storm(const Flags& flags) {
  std::unique_ptr<StormStack> stack;
  const SetUpTimes setup = RepeatSetUp(
      flags, [&] { stack.reset(); }, [&] { stack = SetUp(flags.seed); });
  StormStack& s = *stack;
  const int n = s.world.network.num_roads();

  LoadShape shape;
  shape.client_threads = kClients;
  shape.server_threads = kClients;
  shape.gamma_threads = NumCores();
  shape.CheckFitsMachine();
  shape.Print();

  WaveShape waves;
  waves.clients = kClients;
  waves.queries_per_client_per_wave = kQueriesPerClientPerWave;
  waves.slots = s.slots;
  const auto pick = [n](util::Rng& rng) {
    std::vector<graph::RoadId> roads;
    for (int r : rng.SampleWithoutReplacement(n, kQuerySize)) {
      roads.push_back(r);
    }
    return roads;
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
  std::printf("storm: %lld retries, %lld roads degraded over %lld queries\n",
              static_cast<long long>(stats.crowd_retries),
              static_cast<long long>(stats.roads_degraded),
              static_cast<long long>(stats.queries_served));

  Report report;
  report.attempted = window.attempts;
  report.served = stats.queries_served;
  report.rejected = stats.queries_rejected;
  report.failed = stats.queries_failed;
  if (!flags.trace) {
    SetEndToEnd(report, setup, window,
                /*full_service=*/stats.queries_served,
                /*received=*/window.attempts);
    return report;
  }

  util::Rng replay_rng(flags.seed * 7919);
  std::vector<ReplayWave> replay;
  for (int w = 0; w < kReplayWaves; ++w) {
    ReplayWave wave;
    for (int q = 0; q < kReplayQueriesPerWave; ++q) {
      server::QueryRequest request;
      request.slot = s.slots[static_cast<size_t>(w) % s.slots.size()];
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
  in_process.fault_tolerant_dispatch = true;
  in_process.faults = StormPlan(flags.seed);
  const int64_t replay_paid =
      TracedReplay(in_process, replay, /*check_fidelity=*/false, report);
  Require(s.ledger->reserved_outstanding() == 0 &&
              s.ledger->total_spent() == window.paid + replay_paid,
          "ledger balances after the traced pass");
  report.Set("gamma.warm_ms_per_slot", s.warm_ms_per_slot);
  report.Set("gamma.misses_in_window", misses_in_window);
  report.Set("gamma.resident_mb",
             s.system->CorrelationCacheStats().resident_bytes / 1048576.0);
  return report;
}

}  // namespace crowdrtse::perfbench
