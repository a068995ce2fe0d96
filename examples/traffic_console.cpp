// traffic_console: a file-based command-line front end over the library,
// mirroring how an operator would run the offline and online stages as
// separate jobs.
//
//   traffic_console generate-network <roads> <seed> <out.edges>
//   traffic_console simulate-history <net.edges> <days> <seed> <out.hist>
//   traffic_console train-model      <net.edges> <in.hist> <out.rtf>
//   traffic_console export-day       <in.hist> <day> <out.csv>
//   traffic_console serve-demo       <net.edges> <in.hist> <queries> <budget>
//   traffic_console --scenario       <pack.scn> [single|sharded|both] [seed]
//
// With no arguments it runs the full pipeline in a temp directory as a
// self-demo.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/crowd_rtse.h"
#include "core/theta_tuner.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "rtf/moment_estimator.h"
#include "rtf/rtf_serialization.h"
#include "scenario/pack.h"
#include "scenario/runner.h"
#include "server/budget_ledger.h"
#include "server/query_engine.h"
#include "server/worker_registry.h"
#include "traffic/history_io.h"
#include "traffic/traffic_simulator.h"
#include "util/rng.h"
#include "util/string_util.h"

using namespace crowdrtse;  // NOLINT — example brevity

namespace {

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int GenerateNetwork(int roads, uint64_t seed, const std::string& out) {
  util::Rng rng(seed);
  graph::RoadNetworkOptions options;
  options.num_roads = roads;
  const auto network = graph::RoadNetwork(options, rng);
  if (!network.ok()) return Fail(network.status());
  if (auto s = graph::WriteEdgeListFile(out, *network); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s: %d roads, %d adjacencies\n", out.c_str(),
              network->num_roads(), network->num_edges());
  return 0;
}

int SimulateHistory(const std::string& net_path, int days, uint64_t seed,
                    const std::string& out) {
  const auto network = graph::ReadEdgeListFile(net_path);
  if (!network.ok()) return Fail(network.status());
  traffic::TrafficModelOptions options;
  options.num_days = days;
  const traffic::TrafficSimulator simulator(*network, options, seed);
  const traffic::HistoryStore history = simulator.GenerateHistory();
  if (auto s = traffic::HistorySerializer::SaveToFile(history, out);
      !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s: %zu records (%d days x %d slots x %d roads)\n",
              out.c_str(), history.num_records(), history.num_days(),
              history.num_slots(), history.num_roads());
  return 0;
}

int TrainModel(const std::string& net_path, const std::string& hist_path,
               const std::string& out) {
  const auto network = graph::ReadEdgeListFile(net_path);
  if (!network.ok()) return Fail(network.status());
  const auto history = traffic::HistorySerializer::LoadFromFile(hist_path);
  if (!history.ok()) return Fail(history.status());
  const auto model = rtf::EstimateByMoments(*network, *history, {});
  if (!model.ok()) return Fail(model.status());
  if (auto s = rtf::RtfSerializer::SaveToFile(*model, out); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s: RTF over %d roads x %d slots\n", out.c_str(),
              model->num_roads(), model->num_slots());
  return 0;
}

int ExportDay(const std::string& hist_path, int day,
              const std::string& out) {
  const auto history = traffic::HistorySerializer::LoadFromFile(hist_path);
  if (!history.ok()) return Fail(history.status());
  const auto records = traffic::ExtractDay(*history, day);
  if (records.empty()) {
    return Fail(util::Status::OutOfRange("day out of range"));
  }
  std::ofstream file(out, std::ios::trunc);
  if (!file) return Fail(util::Status::IoError("cannot open " + out));
  file << traffic::RecordsToCsv(records);
  std::printf("wrote %s: %zu records of day %d\n", out.c_str(),
              records.size(), day);
  return 0;
}

int ServeDemo(const std::string& net_path, const std::string& hist_path,
              int num_queries, int budget, uint64_t world_seed) {
  const auto network = graph::ReadEdgeListFile(net_path);
  if (!network.ok()) return Fail(network.status());
  const auto history = traffic::HistorySerializer::LoadFromFile(hist_path);
  if (!history.ok()) return Fail(history.status());

  auto system = core::CrowdRtse::BuildOffline(*network, *history, {});
  if (!system.ok()) return Fail(system.status());

  // Today's "real" traffic: one more simulated day beyond the history.
  traffic::TrafficModelOptions traffic_options;
  traffic_options.num_days = history->num_days();
  const traffic::TrafficSimulator simulator(*network, traffic_options,
                                            world_seed);
  const traffic::DayMatrix today =
      simulator.GenerateEvaluationDay();

  server::WorkerRegistryOptions registry_options;
  registry_options.num_workers = network->num_roads() * 3;
  server::WorkerRegistry registry(*network, registry_options, 5);
  server::BudgetLedger ledger(/*campaign_budget=*/budget * num_queries,
                              /*per_query_cap=*/budget);
  const crowd::CostModel costs =
      crowd::CostModel::Constant(network->num_roads(), 2);
  crowd::CrowdSimulator crowd_sim({}, util::Rng(9));
  server::QueryEngine engine(*system, registry, ledger, costs, crowd_sim);

  util::Rng rng(17);
  for (int q = 0; q < num_queries; ++q) {
    server::QueryRequest request;
    request.slot = rng.UniformInt(0, traffic::kSlotsPerDay - 1);
    for (int pick : rng.SampleWithoutReplacement(network->num_roads(), 8)) {
      request.queried.push_back(pick);
    }
    const auto response = engine.Serve(request, today);
    if (!response.ok()) return Fail(response.status());
    const auto quality = eval::ComputeQuality(
        [&] {
          std::vector<double> all(
              static_cast<size_t>(network->num_roads()), 0.0);
          for (size_t i = 0; i < request.queried.size(); ++i) {
            all[static_cast<size_t>(request.queried[i])] =
                response->queried_speeds[i];
          }
          return all;
        }(),
        today.SlotSpeeds(request.slot), request.queried);
    std::printf(
        "query %lld  slot %3d  probed %2zu roads  paid %2d  MAPE %.3f\n",
        static_cast<long long>(response->query_id), request.slot,
        response->probed_roads.size(), response->paid, quality->mape);
    registry.AdvanceSlot();
  }
  std::printf("%s\n%s\n", engine.stats().Report().c_str(),
              ledger.Report().c_str());
  return 0;
}

int TuneThetaCommand(const std::string& net_path,
                     const std::string& hist_path, int budget) {
  const auto network = graph::ReadEdgeListFile(net_path);
  if (!network.ok()) return Fail(network.status());
  const auto history = traffic::HistorySerializer::LoadFromFile(hist_path);
  if (!history.ok()) return Fail(history.status());
  core::ThetaTunerOptions options;
  options.budget = budget;
  options.query_size = std::min(50, network->num_roads() / 2);
  options.validation_days = std::min(3, history->num_days() / 3);
  if (options.validation_days < 1) {
    return Fail(util::Status::FailedPrecondition(
        "history too short to hold out validation days"));
  }
  const crowd::CostModel costs =
      crowd::CostModel::Constant(network->num_roads(), 2);
  const auto tuned = core::TuneTheta(*network, *history, costs, options);
  if (!tuned.ok()) return Fail(tuned.status());
  for (const core::ThetaScore& score : tuned->scores) {
    std::printf("theta %.2f -> validation MAPE %.4f%s\n", score.theta,
                score.mape,
                score.theta == tuned->best_theta ? "   <-- tuned" : "");
  }
  return 0;
}

// Replays a declarative .scn stress pack (scenarios/ in the repo) against
// the serving stack and prints the per-phase envelope verdicts. The same
// packs run in CI via tools/scenario_runner; this is the operator's view.
int RunScenarioPack(const std::string& pack_path, const std::string& engine,
                    uint64_t seed) {
  const auto pack = scenario::LoadPackFile(pack_path);
  if (!pack.ok()) return Fail(pack.status());
  std::vector<scenario::RunnerOptions::EngineKind> kinds;
  if (engine == "single" || engine == "both") {
    kinds.push_back(scenario::RunnerOptions::EngineKind::kSingle);
  }
  if (engine == "sharded" || engine == "both") {
    kinds.push_back(scenario::RunnerOptions::EngineKind::kSharded);
  }
  if (kinds.empty()) {
    return Fail(util::Status::InvalidArgument(
        "engine must be single, sharded, or both; got '" + engine + "'"));
  }
  bool all_passed = true;
  for (const auto kind : kinds) {
    scenario::RunnerOptions options;
    options.engine = kind;
    options.seed = seed;
    const auto report = scenario::RunScenario(*pack, options);
    if (!report.ok()) return Fail(report.status());
    std::printf("%s", report->Summary().c_str());
    all_passed = all_passed && report->AllPassed();
  }
  return all_passed ? 0 : 1;
}

int SelfDemo() {
  const std::string dir = "/tmp/crowdrtse_console";
  (void)std::system(("mkdir -p " + dir).c_str());
  const std::string net = dir + "/city.edges";
  const std::string hist = dir + "/city.hist";
  std::printf("== self demo: generate -> simulate -> train -> serve ==\n");
  if (int rc = GenerateNetwork(180, 42, net); rc != 0) return rc;
  if (int rc = SimulateHistory(net, 10, 7, hist); rc != 0) return rc;
  if (int rc = TrainModel(net, hist, dir + "/city.rtf"); rc != 0) return rc;
  if (int rc = ExportDay(hist, 0, dir + "/day0.csv"); rc != 0) return rc;
  if (int rc = TuneThetaCommand(net, hist, 20); rc != 0) return rc;
  return ServeDemo(net, hist, 5, 12, /*world_seed=*/7);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const auto arg_int = [&](size_t i) {
    return *util::ParseInt(args.at(i));
  };
  if (args.empty()) return SelfDemo();
  const std::string& command = args[0];
  if (command == "generate-network" && args.size() == 4) {
    return GenerateNetwork(arg_int(1),
                           static_cast<uint64_t>(arg_int(2)), args[3]);
  }
  if (command == "simulate-history" && args.size() == 5) {
    return SimulateHistory(args[1], arg_int(2),
                           static_cast<uint64_t>(arg_int(3)), args[4]);
  }
  if (command == "train-model" && args.size() == 4) {
    return TrainModel(args[1], args[2], args[3]);
  }
  if (command == "export-day" && args.size() == 4) {
    return ExportDay(args[1], arg_int(2), args[3]);
  }
  if (command == "tune-theta" && args.size() == 4) {
    return TuneThetaCommand(args[1], args[2], arg_int(3));
  }
  if (command == "serve-demo" && args.size() == 6) {
    return ServeDemo(args[1], args[2], arg_int(3), arg_int(4),
                     static_cast<uint64_t>(arg_int(5)));
  }
  if ((command == "--scenario" || command == "scenario") &&
      args.size() >= 2 && args.size() <= 4) {
    const std::string engine = args.size() >= 3 ? args[2] : "single";
    const uint64_t seed =
        args.size() == 4 ? static_cast<uint64_t>(arg_int(3)) : 0;
    return RunScenarioPack(args[1], engine, seed);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  traffic_console                               (self demo)\n"
               "  traffic_console generate-network R SEED OUT\n"
               "  traffic_console simulate-history NET DAYS SEED OUT\n"
               "  traffic_console train-model NET HIST OUT\n"
               "  traffic_console export-day HIST DAY OUT\n"
               "  traffic_console tune-theta NET HIST BUDGET\n"
               "  traffic_console serve-demo NET HIST QUERIES BUDGET SEED\n"
               "    (SEED must match the simulate-history seed)\n"
               "  traffic_console --scenario PACK [single|sharded|both] "
               "[seed]\n"
               "    (replays a scenarios/*.scn stress pack)\n");
  return 2;
}
