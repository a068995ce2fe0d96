#ifndef CROWDRTSE_PERFBENCH_CLOSED_LOOP_H_
#define CROWDRTSE_PERFBENCH_CLOSED_LOOP_H_

// Closed-loop slot waves over one in-process engine (metro_local,
// city607_storm): within a wave every client sends its queries back to
// back for the wave's slot; between waves the clients quiesce and the
// worker registry advances one slot, the engine's documented contract for
// WorkerRegistry::AdvanceSlot.

#include <cstdint>
#include <functional>
#include <vector>

#include "harness.h"
#include "server/budget_ledger.h"
#include "server/engine.h"
#include "server/worker_registry.h"
#include "traffic/history_store.h"
#include "util/rng.h"

namespace crowdrtse::perfbench {

struct WaveShape {
  int clients = 2;
  int queries_per_client_per_wave = 4;
  /// Slot of wave w is slots[w % slots.size()].
  std::vector<int> slots;
};

/// Draws the roads of one query from a client's private stream.
using RoadPicker = std::function<std::vector<graph::RoadId>(util::Rng&)>;

/// Runs waves until `seconds` of wall time have passed (the last wave
/// completes). Client
/// c draws from util::Rng(seed * 7919 + c). Every response is checked:
/// served, finite, one speed per queried road, paid within its grant.
WindowResult RunWaves(server::Engine& engine,
                      server::WorkerRegistry& registry,
                      const traffic::DayMatrix& truth, const WaveShape& shape,
                      const RoadPicker& pick, uint64_t seed, double seconds);

/// The accounting invariants after a window: served + rejected + failed
/// == attempts with nothing rejected or failed, no reservation left open,
/// and the ledger's spend equal to the sum of response payments.
void CheckAccounting(const server::EngineStats& stats,
                     const server::BudgetLedger& ledger, int64_t attempts,
                     int64_t response_paid);

}  // namespace crowdrtse::perfbench

#endif  // CROWDRTSE_PERFBENCH_CLOSED_LOOP_H_
