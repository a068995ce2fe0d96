#include "traced_pass.h"

#include <algorithm>
#include <cstring>

#include "crowd/task_assignment.h"
#include "util/clock.h"
#include "util/timer.h"

namespace crowdrtse::perfbench {

int64_t TracedReplay(const InProcessStack& stack,
                     const std::vector<ReplayWave>& waves,
                     bool check_fidelity, Report& out) {
  Samples serve, covered, covered_roads, lookup, select, selected, assign,
      probe, dispatch, retries, degraded, propagate, sweeps, reached, settle,
      advance;
  crowd::CrowdSimulator sim(stack.crowd, util::Rng(0x7ace));
  server::BudgetLedger trace_ledger(-1, stack.ledger->per_query_cap());
  util::SimClock clock;
  const std::vector<crowd::Worker>& workers = stack.registry->workers();
  int64_t serve_paid = 0;
  int64_t trace_query_id = 1;

  for (const ReplayWave& wave : waves) {
    for (const server::QueryRequest& request : wave) {
      const int slot = request.slot;
      util::Timer timer;
      const util::Result<server::QueryResponse> response =
          stack.engine->Serve(request, *stack.truth);
      serve.Add(timer.ElapsedMillis());
      Require(response.ok(), "traced query served");
      serve_paid += response->paid;

      std::vector<graph::RoadId> queried = request.queried;
      std::sort(queried.begin(), queried.end());
      queried.erase(std::unique(queried.begin(), queried.end()),
                    queried.end());

      timer.Reset();
      const std::vector<graph::RoadId> roads =
          stack.registry->CoveredRoads();
      covered.Add(timer.ElapsedMillis());
      covered_roads.Add(static_cast<double>(roads.size()));

      timer.Reset();
      Require(stack.system->CorrelationsFor(slot).ok(), "Gamma_R lookup");
      lookup.Add(timer.ElapsedMillis());

      const int budget = stack.ledger->per_query_cap();
      timer.Reset();
      const util::Result<ocs::OcsSolution> selection =
          stack.system->SelectRoads(slot, queried, roads, *stack.costs,
                                    budget, request.selector);
      select.Add(timer.ElapsedMillis());
      Require(selection.ok(), "replayed OCS selection");
      selected.Add(static_cast<double>(selection->roads.size()));

      timer.Reset();
      const util::Result<crowd::AssignmentPlan> plan =
          crowd::AssignTasks(selection->roads, *stack.costs, workers);
      assign.Add(timer.ElapsedMillis());
      Require(plan.ok(), "replayed task assignment");

      crowd::CrowdRound round;
      if (stack.fault_tolerant_dispatch) {
        const crowd::DispatchController controller(crowd::DispatchOptions{},
                                                   &clock);
        timer.Reset();
        util::Result<crowd::DispatchRound> dispatched = controller.Run(
            *plan, workers, *stack.costs, stack.faults,
            [&](const crowd::Worker& worker, graph::RoadId road) {
              return sim.GenerateAnswer(worker, road, *stack.truth, slot);
            });
        dispatch.Add(timer.ElapsedMillis());
        Require(dispatched.ok(), "replayed dispatch round");
        retries.Add(dispatched->stats.retries);
        degraded.Add(static_cast<double>(dispatched->degraded_roads.size()));
        round = std::move(dispatched->round);
      } else {
        timer.Reset();
        util::Result<crowd::CrowdRound> probed =
            sim.ProbeWithAssignments(*plan, workers, *stack.truth, slot);
        probe.Add(timer.ElapsedMillis());
        Require(probed.ok(), "replayed probe round");
        round = std::move(*probed);
      }
      std::vector<graph::RoadId> probed_roads;
      std::vector<double> probed_speeds;
      for (const crowd::ProbeResult& p : round.probes) {
        probed_roads.push_back(p.road);
        probed_speeds.push_back(p.probed_kmh);
      }

      timer.Reset();
      const util::Result<gsp::GspResult> estimate =
          stack.system->Estimate(slot, probed_roads, probed_speeds);
      propagate.Add(timer.ElapsedMillis());
      Require(estimate.ok(), "replayed GSP estimate");
      sweeps.Add(estimate->sweeps);
      reached.Add(static_cast<double>(
          std::count_if(estimate->hops.begin(), estimate->hops.end(),
                        [](int hop) { return hop >= 0; })));

      Require(trace_ledger.Reserve(trace_query_id) == budget,
              "replay ledger grant");
      timer.Reset();
      Require(trace_ledger.Settle(trace_query_id, budget, round.total_paid)
                  .ok(),
              "replay ledger settle");
      settle.Add(timer.ElapsedMillis());
      ++trace_query_id;

      if (check_fidelity) {
        Require(probed_roads == response->probed_roads,
                "fidelity: replayed probed roads equal Serve's");
        std::vector<double> speeds;
        for (graph::RoadId r : request.queried) {
          speeds.push_back(estimate->speeds[static_cast<size_t>(r)]);
        }
        Require(speeds.size() == response->queried_speeds.size() &&
                    std::memcmp(speeds.data(),
                                response->queried_speeds.data(),
                                speeds.size() * sizeof(double)) == 0,
                "fidelity: replayed queried speeds equal Serve's bit for "
                "bit");
      }
    }
    util::Timer timer;
    stack.registry->AdvanceSlot();
    advance.Add(timer.ElapsedMillis());
  }

  out.Set("registry.covered_ms", covered.Mean());
  out.Set("registry.covered_roads", covered_roads.Mean());
  out.Set("registry.workers_scanned", stack.registry->num_workers());
  out.Set("registry.advance_ms", advance.Mean());
  out.Set("crowd.assign_ms", assign.Mean());
  out.Set("crowd.probe_ms", probe.Mean());
  out.Set("crowd.dispatch_ms", dispatch.Mean());
  out.Set("crowd.retries_per_query", retries.Mean());
  out.Set("crowd.degraded_per_query", degraded.Mean());
  out.Set("ocs.select_ms", select.Mean());
  out.Set("ocs.candidates", covered_roads.Mean());
  out.Set("ocs.selected", selected.Mean());
  out.Set("gsp.propagate_ms", propagate.Mean());
  out.Set("gsp.sweeps", sweeps.Mean());
  out.Set("gsp.roads_reached", reached.Mean());
  out.Set("gamma.lookup_ms", lookup.Mean());
  out.Set("ledger.settle_ms", settle.Mean());
  out.Set("engine.serve_ms", serve.Mean());
  // SelectRoads includes its own Gamma_R lookup, so lookup is not added.
  const double attributed = covered.Mean() + select.Mean() + assign.Mean() +
                            probe.Mean() + dispatch.Mean() +
                            propagate.Mean() + settle.Mean();
  out.Set("engine.unattributed_share", 1.0 - attributed / serve.Mean());
  return serve_paid;
}

}  // namespace crowdrtse::perfbench
