// Scenario runner behavior: bit-exact replay from a seed, envelope
// verdicts wired into reports, incidents visibly moving the served
// estimates, fault swaps visibly degrading probes, and the runner's own
// validation of packs it cannot replay faithfully.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/json.h"
#include "scenario/pack.h"
#include "scenario/runner.h"

namespace crowdrtse::scenario {
namespace {

constexpr char kBasePack[] = R"(
[scenario]
name = runner_base
seed = 11
slots_per_day = 32

[map]
A-B-C
|   |
D-E-F

[tags]
E: class=local

[workers]
per_road = 4
noiseless = true

[timeline]
at=4 phase name=early
at=5 storm queries=4 size=2 roads=all
at=12 phase name=late
at=13 storm queries=4 size=2 roads=all

[envelope]
min_served = 8
max_failed = 0
max_mape = 0.05
)";

Pack MustParse(const std::string& text) {
  auto pack = ParsePack(text);
  EXPECT_TRUE(pack.ok()) << pack.status().ToString();
  return *pack;
}

#ifndef CROWDRTSE_SCENARIO_DIR
#error "build must define CROWDRTSE_SCENARIO_DIR"
#endif

// Pinned replay digests of every committed pack at its own seed, on both
// engines. --check-replay only compares two runs of the same build, so a
// change that shifts every answer would pass it; this table catches that.
// A deliberate change to the answers (a new RNG stream, a new kernel
// association) re-baselines the table in its own commit.
TEST(ScenarioRunnerTest, CommittedPackDigestsArePinned) {
  struct Pinned {
    const char* pack;
    uint64_t single;
    uint64_t sharded;
  };
  constexpr Pinned kPinned[] = {
      {"budget_wave", 0x9f30815a0a1996e3ULL, 0xdf842d7d3e49ef5aULL},
      {"fault_swap", 0xa29a63348644fdf6ULL, 0xa5c1f9b7c075e471ULL},
      {"flash_crowd", 0x652ce47793773f4aULL, 0xe93b4b24ad6d3237ULL},
      {"incident_cascade", 0x7a3d7cf363873dd5ULL, 0xf397d9d56323f32eULL},
      {"liar_cohort", 0x24d055402f1ec447ULL, 0xff23543ec3df8c41ULL},
      {"rush_hour", 0xf2321f9521ccccb9ULL, 0x4445a1ab9256fc54ULL},
      {"worker_starvation", 0x7cc4de7f89f68061ULL, 0x34e3b31f3c6962d7ULL},
  };
  for (const Pinned& pinned : kPinned) {
    auto pack = LoadPackFile(std::string(CROWDRTSE_SCENARIO_DIR) + "/" +
                             pinned.pack + ".scn");
    ASSERT_TRUE(pack.ok()) << pinned.pack << ": " << pack.status().ToString();
    for (const auto kind : {RunnerOptions::EngineKind::kSingle,
                            RunnerOptions::EngineKind::kSharded}) {
      RunnerOptions options;
      options.engine = kind;
      auto report = RunScenario(*pack, options);
      ASSERT_TRUE(report.ok()) << pinned.pack << ": "
                               << report.status().ToString();
      const uint64_t expected =
          kind == RunnerOptions::EngineKind::kSingle ? pinned.single
                                                     : pinned.sharded;
      EXPECT_EQ(report->answers_digest, expected)
          << pinned.pack << " on " << EngineKindName(kind);
    }
  }
}

TEST(ScenarioRunnerTest, ReplayIsByteIdenticalAcrossRuns) {
  const Pack pack = MustParse(kBasePack);
  for (const auto kind : {RunnerOptions::EngineKind::kSingle,
                          RunnerOptions::EngineKind::kSharded}) {
    RunnerOptions options;
    options.engine = kind;
    auto first = RunScenario(pack, options);
    auto second = RunScenario(pack, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(first->answers_digest, second->answers_digest)
        << EngineKindName(kind);
    EXPECT_EQ(first->ToJson(), second->ToJson()) << EngineKindName(kind);
    EXPECT_TRUE(first->AllPassed()) << first->ToJson();
  }
}

TEST(ScenarioRunnerTest, SeedChangesTheReplay) {
  const Pack pack = MustParse(kBasePack);
  RunnerOptions options;
  auto base = RunScenario(pack, options);
  options.seed = 12345;
  auto reseeded = RunScenario(pack, options);
  ASSERT_TRUE(base.ok() && reseeded.ok());
  EXPECT_NE(base->answers_digest, reseeded->answers_digest);
  EXPECT_EQ(reseeded->seed, 12345u);
}

TEST(ScenarioRunnerTest, PhasesSliceTheRunAndEnvelopesBindToThem) {
  const Pack pack = MustParse(kBasePack);
  auto report = RunScenario(pack, RunnerOptions{});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->phases.size(), 2u);
  EXPECT_EQ(report->phases[0].name, "early");
  EXPECT_EQ(report->phases[1].name, "late");
  EXPECT_EQ(report->phases[0].metrics.attempts, 4);
  EXPECT_EQ(report->phases[1].metrics.attempts, 4);
  EXPECT_FALSE(report->phases[0].checked);  // no [envelope:early] block
  EXPECT_TRUE(report->total.checked);
  EXPECT_EQ(report->total.metrics.attempts, 8);
  EXPECT_EQ(report->total.metrics.served, 8);
}

TEST(ScenarioRunnerTest, ImpossibleEnvelopeFailsTheRun) {
  std::string text = kBasePack;
  text.replace(text.find("min_served = 8"), 14, "min_served = 99");
  const Pack pack = MustParse(text);
  auto report = RunScenario(pack, RunnerOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->AllPassed());
  ASSERT_EQ(report->total.failures.size(), 1u);
  EXPECT_NE(report->total.failures[0].find("min_served"), std::string::npos);
  // The failure shows up in the serialized report too.
  EXPECT_NE(report->ToJson().find("\"passed\":false"), std::string::npos);
}

TEST(ScenarioRunnerTest, EnvelopeFailureDumpsTheFlightRecorder) {
  std::string text = kBasePack;
  text.replace(text.find("min_served = 8"), 14, "min_served = 99");
  const Pack pack = MustParse(text);
  const std::string dump_path =
      ::testing::TempDir() + "/runner_envelope_failure.flight.json";
  std::remove(dump_path.c_str());
  RunnerOptions options;
  options.flight_dump_path = dump_path;
  auto report = RunScenario(pack, options);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->AllPassed());

  std::ifstream in(dump_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "no flight dump at " << dump_path;
  std::ostringstream content;
  content << in.rdbuf();
  const auto doc = net::json::Parse(content.str());
  ASSERT_TRUE(doc.ok()) << "flight dump is not JSON";
  // The recorder was cleared at run start, so the dump covers exactly this
  // replay: budget activity of the failing run must be present, and the
  // events must arrive already ordered by the global sequence.
  const auto& events = doc->Find("events")->AsArray();
  ASSERT_FALSE(events.empty());
  bool saw_budget = false;
  int64_t previous_seq = 0;
  for (const auto& event : events) {
    const int64_t seq = *event.Find("seq")->AsInt();
    EXPECT_GT(seq, previous_seq) << "dump not replayable in order";
    previous_seq = seq;
    if (event.Find("kind")->AsString() == "budget.reserve") saw_budget = true;
  }
  EXPECT_TRUE(saw_budget);
  // The dump never leaks into the deterministic report JSON.
  EXPECT_EQ(report->ToJson().find("flight"), std::string::npos);
  std::remove(dump_path.c_str());
}

TEST(ScenarioRunnerTest, PassingRunWritesNoFlightDump) {
  const Pack pack = MustParse(kBasePack);
  const std::string dump_path =
      ::testing::TempDir() + "/runner_envelope_pass.flight.json";
  std::remove(dump_path.c_str());
  RunnerOptions options;
  options.flight_dump_path = dump_path;
  auto report = RunScenario(pack, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->AllPassed());
  std::ifstream in(dump_path);
  EXPECT_FALSE(in.good()) << "passing run must not dump";
}

// An incident must move the *served answers*, not just internal state:
// the same storm on the incident road returns visibly slower speeds
// while the incident is active, on both engines.
TEST(ScenarioRunnerTest, IncidentDropsServedSpeeds) {
  constexpr char kIncidentPack[] = R"(
[scenario]
name = runner_incident
seed = 13
slots_per_day = 32

[map]
A-B-C
|   |
D-E-F

[workers]
per_road = 4
noiseless = true

[timeline]
at=4 phase name=before
at=5 storm queries=3 size=1 roads=list:E
at=12 phase name=during
at=12 incident road=E drop=0.6 duration=10 spillover=0
at=13 storm queries=3 size=1 roads=list:E
)";
  const Pack pack = MustParse(kIncidentPack);
  for (const auto kind : {RunnerOptions::EngineKind::kSingle,
                          RunnerOptions::EngineKind::kSharded}) {
    RunnerOptions options;
    options.engine = kind;
    options.keep_responses = true;
    auto report = RunScenario(pack, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->records.size(), 6u);
    double before = 0.0, during = 0.0;
    for (size_t i = 0; i < 3; ++i) {
      before += report->records[i].response.queried_speeds[0];
      during += report->records[i + 3].response.queried_speeds[0];
    }
    EXPECT_LT(during, 0.7 * before) << EngineKindName(kind);
  }
}

// Swapping in a drop-everything fault plan mid-run must push probes down
// the degradation ladder — and clearing it must restore clean service.
TEST(ScenarioRunnerTest, FaultSwapDegradesThenClears) {
  constexpr char kFaultPack[] = R"(
[scenario]
name = runner_faults
seed = 17
slots_per_day = 32

[map]
A-B-C
|   |
D-E-F

[workers]
per_road = 4
noiseless = true

[engine]
fault_tolerant = true

[timeline]
at=4 phase name=clean
at=5 storm queries=3 size=2 roads=all
at=12 phase name=broken
at=12 faults drop=1.0 roads=all
at=13 storm queries=3 size=2 roads=all
at=20 phase name=healed
at=20 faults clear=true
at=21 storm queries=3 size=2 roads=all
)";
  const Pack pack = MustParse(kFaultPack);
  auto report = RunScenario(pack, RunnerOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->phases.size(), 3u);
  EXPECT_EQ(report->phases[0].metrics.roads_degraded, 0);
  // Every probe of the broken phase dropped: every selected road degraded.
  EXPECT_GT(report->phases[1].metrics.roads_degraded, 0);
  EXPECT_EQ(report->phases[1].metrics.roads_probed, 0);
  EXPECT_EQ(report->phases[2].metrics.roads_degraded, 0);
  // Degraded probes are never paid.
  EXPECT_EQ(report->phases[1].metrics.paid, 0);
  EXPECT_GT(report->phases[2].metrics.paid, 0);
}

TEST(ScenarioRunnerTest, RejectsFaultEventsOnNonFaultTolerantPack) {
  std::string text = kBasePack;
  text.replace(text.find("at=5 storm queries=4 size=2 roads=all"),
               std::string("at=5 storm queries=4 size=2 roads=all").size(),
               "at=5 faults drop=0.5 roads=all");
  const Pack pack = MustParse(text);
  auto report = RunScenario(pack, RunnerOptions{});
  EXPECT_FALSE(report.ok());
}

TEST(ScenarioRunnerTest, WorkerChurnShrinksAndGrowsThePopulation) {
  const Pack pack = MustParse(kBasePack);
  auto fixture = BuildFixture(pack);
  ASSERT_TRUE(fixture.ok());
  const auto workers = BuildWorkerPopulation(pack, *fixture, pack.seed);
  EXPECT_EQ(workers.size(),
            static_cast<size_t>(4 * fixture->graph.num_roads()));
  // Same seed, same population — worker construction is replay-stable.
  const auto again = BuildWorkerPopulation(pack, *fixture, pack.seed);
  ASSERT_EQ(workers.size(), again.size());
  for (size_t i = 0; i < workers.size(); ++i) {
    EXPECT_EQ(workers[i].id, again[i].id);
    EXPECT_EQ(workers[i].road, again[i].road);
    EXPECT_DOUBLE_EQ(workers[i].bias, again[i].bias);
  }
}

}  // namespace
}  // namespace crowdrtse::scenario
