#ifndef CROWDRTSE_PERFBENCH_TRACED_PASS_H_
#define CROWDRTSE_PERFBENCH_TRACED_PASS_H_

// The single-threaded traced pass of the in-process workloads. For each
// replayed query it first times the engine's own Serve, then replays the
// same query layer by layer through each layer's public function —
// WorkerRegistry::CoveredRoads, CrowdRtse::CorrelationsFor / SelectRoads,
// crowd::AssignTasks, CrowdSimulator::ProbeWithAssignments or
// DispatchController::Run, CrowdRtse::Estimate, BudgetLedger::Settle —
// timing each call. Spans are recorded from the benchmark's side of each
// layer boundary; nothing inside the program is instrumented.

#include <vector>

#include "core/crowd_rtse.h"
#include "crowd/cost_model.h"
#include "crowd/crowd_simulator.h"
#include "crowd/dispatch_controller.h"
#include "crowd/fault_plan.h"
#include "harness.h"
#include "server/budget_ledger.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "traffic/history_store.h"

namespace crowdrtse::perfbench {

/// Borrowed parts of one in-process serving stack, as the engine was
/// built over them.
struct InProcessStack {
  core::CrowdRtse* system = nullptr;
  server::WorkerRegistry* registry = nullptr;
  server::BudgetLedger* ledger = nullptr;
  server::QueryEngine* engine = nullptr;
  const crowd::CostModel* costs = nullptr;
  const traffic::DayMatrix* truth = nullptr;
  /// Options of the engine's crowd simulator (the replay builds its own).
  crowd::CrowdSimOptions crowd;
  /// Fault-tolerant dispatch with default DispatchOptions, as the engine
  /// runs it (city607_storm), or the single-shot probe.
  bool fault_tolerant_dispatch = false;
  crowd::FaultPlan faults;
};

/// One wave of replayed queries (all at one slot); the registry advances
/// one slot after each wave, timed as registry.advance_ms.
using ReplayWave = std::vector<server::QueryRequest>;

/// Replays `waves` and sets every in-process per-layer metric on `out`.
/// With `check_fidelity` (noiseless crowd, single-shot probe) the
/// replayed probe set and queried speeds must equal Serve's bit for bit.
/// Returns the sum of the Serve payments it caused, so the caller's
/// ledger checks still balance.
int64_t TracedReplay(const InProcessStack& stack,
                     const std::vector<ReplayWave>& waves,
                     bool check_fidelity, Report& out);

}  // namespace crowdrtse::perfbench

#endif  // CROWDRTSE_PERFBENCH_TRACED_PASS_H_
