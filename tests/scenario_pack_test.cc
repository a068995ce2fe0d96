// Parser tests for the .scn scenario-pack format: a full-feature pack
// parses into the expected structures, and each class of malformed input
// is rejected with a line-numbered error.

#include <string>

#include <gtest/gtest.h>

#include "scenario/pack.h"

namespace crowdrtse::scenario {
namespace {

constexpr char kFullPack[] = R"(# comment
[scenario]
name = full
description = every section exercised
seed = 7
slots_per_day = 24
history_days = 4

[map]
A-B-C
|   |
D-E-F

[tags]
A-B: class=highway len=2.0
E: class=local noise=1.5

[workers]
per_road = 5
noiseless = false
min_bias = 0.95
max_bias = 1.05

[engine]
fault_tolerant = true
campaign_budget = 300
per_query_cap = 12
theta = 0.9
shed_when_dry = true

[sharding]
shards = 3
halo = 4

[timeline]
at=2 phase name=warmup
at=3 storm queries=5 size=2 roads=all
at=5 storm rate=3.5 size=1 roads=list:A,B budget=6
at=8 phase name=chaos
at=8 incident road=E drop=0.4 duration=5 spillover=2
at=9 drift p=0.25
at=10 workers leave=0.5 add=7 roads=district:E:1
at=11 faults drop=0.2 delay=0.1 delay_min_ms=5 delay_max_ms=40 roads=all
at=12 liars road=B cohort=3 value=120
at=20 faults clear=true

[envelope]
min_served = 10
max_mape = 0.1

[envelope:chaos]
zero_silent_drops = true
min_outlier_reports = 2
)";

TEST(PackParserTest, ParsesFullFeaturePack) {
  auto pack = ParsePack(kFullPack);
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();

  EXPECT_EQ(pack->name, "full");
  EXPECT_EQ(pack->seed, 7u);
  EXPECT_EQ(pack->world.slots_per_day, 24);
  EXPECT_EQ(pack->world.history_days, 4);
  EXPECT_NE(pack->sketch.find("A-B-C"), std::string::npos);
  ASSERT_EQ(pack->tags.size(), 2u);
  EXPECT_EQ(pack->tags[0].selector, "A-B");
  EXPECT_EQ(pack->tags[0].tags.at("class"), "highway");
  EXPECT_EQ(pack->workers_per_road, 5);
  EXPECT_FALSE(pack->noiseless);
  EXPECT_TRUE(pack->fault_tolerant);
  EXPECT_EQ(pack->campaign_budget, 300);
  EXPECT_TRUE(pack->shed_when_dry);
  EXPECT_EQ(pack->shards, 3);
  EXPECT_EQ(pack->halo, 4);

  ASSERT_EQ(pack->timeline.size(), 10u);
  EXPECT_EQ(pack->timeline[0].kind, Event::Kind::kPhase);
  EXPECT_EQ(pack->timeline[0].name, "warmup");
  EXPECT_EQ(pack->timeline[1].kind, Event::Kind::kStorm);
  EXPECT_EQ(pack->timeline[1].queries, 5);
  EXPECT_EQ(pack->timeline[2].rate, 3.5);
  ASSERT_EQ(pack->timeline[2].roads.kind, RoadsSpec::Kind::kList);
  EXPECT_EQ(pack->timeline[2].roads.names,
            (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(pack->timeline[2].budget, 6);
  EXPECT_EQ(pack->timeline[4].kind, Event::Kind::kIncident);
  EXPECT_EQ(pack->timeline[4].road, "E");
  EXPECT_EQ(pack->timeline[4].spillover, 2);
  EXPECT_EQ(pack->timeline[5].probability, 0.25);
  EXPECT_EQ(pack->timeline[6].leave, 0.5);
  EXPECT_EQ(pack->timeline[6].add, 7);
  EXPECT_EQ(pack->timeline[6].roads.kind, RoadsSpec::Kind::kDistrict);
  EXPECT_EQ(pack->timeline[6].roads.center, "E");
  EXPECT_EQ(pack->timeline[7].fault.drop_rate, 0.2);
  EXPECT_EQ(pack->timeline[7].fault.delay_max_ms, 40);
  EXPECT_EQ(pack->timeline[8].cohort, 3);
  EXPECT_EQ(pack->timeline[8].value, 120.0);
  EXPECT_TRUE(pack->timeline[9].clear);
  EXPECT_EQ(pack->LastEventSlot(), 20);

  ASSERT_EQ(pack->envelopes.size(), 2u);
  EXPECT_NE(pack->EnvelopeFor(""), nullptr);
  EXPECT_NE(pack->EnvelopeFor("chaos"), nullptr);
  EXPECT_EQ(pack->EnvelopeFor("warmup"), nullptr);
  EXPECT_EQ(pack->EnvelopeFor("chaos")->min_outlier_reports, 2);
}

constexpr char kMinimal[] = R"(
[scenario]
name = tiny
[map]
A-B
[timeline]
at=1 storm queries=1 size=1 roads=all
)";

TEST(PackParserTest, MinimalPackGetsDefaults) {
  auto pack = ParsePack(kMinimal);
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();
  EXPECT_EQ(pack->seed, 1u);
  EXPECT_EQ(pack->world.slots_per_day, 48);
  EXPECT_EQ(pack->workers_per_road, 3);
  EXPECT_TRUE(pack->noiseless);
  EXPECT_FALSE(pack->fault_tolerant);
  EXPECT_EQ(pack->campaign_budget, -1);
  EXPECT_EQ(pack->shards, 4);
  EXPECT_EQ(pack->halo, 0);
  EXPECT_TRUE(pack->envelopes.empty());
}

std::string Rewrite(const std::string& needle, const std::string& repl) {
  std::string text = kMinimal;
  const size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << needle;
  text.replace(pos, needle.size(), repl);
  return text;
}

TEST(PackParserTest, RejectsMissingName) {
  EXPECT_FALSE(ParsePack(Rewrite("name = tiny", "")).ok());
}

TEST(PackParserTest, RejectsPackWithoutMap) {
  EXPECT_FALSE(ParsePack(Rewrite("[map]\nA-B", "")).ok());
}

TEST(PackParserTest, RejectsBothSketchAndGenerator) {
  EXPECT_FALSE(
      ParsePack(Rewrite("[map]\nA-B", "[map]\nA-B\n[generator]\nkind = grid"))
          .ok());
}

TEST(PackParserTest, RejectsUnknownSectionAndKey) {
  EXPECT_FALSE(ParsePack(std::string(kMinimal) + "[surprise]\nx = 1\n").ok());
  EXPECT_FALSE(ParsePack(Rewrite("name = tiny", "name = tiny\nfoo = 1")).ok());
}

TEST(PackParserTest, RejectsUnknownEventKindAndKey) {
  EXPECT_FALSE(ParsePack(Rewrite("storm queries=1 size=1 roads=all",
                                 "earthquake magnitude=7"))
                   .ok());
  EXPECT_FALSE(ParsePack(Rewrite("storm queries=1 size=1 roads=all",
                                 "storm queries=1 wat=2"))
                   .ok());
}

TEST(PackParserTest, RejectsOutOfRangeSlotAndDisorderedTimeline) {
  EXPECT_FALSE(ParsePack(Rewrite("at=1 storm", "at=48 storm")).ok());
  EXPECT_FALSE(ParsePack(Rewrite("at=1 storm", "at=-1 storm")).ok());
  EXPECT_FALSE(
      ParsePack(Rewrite("at=1 storm queries=1 size=1 roads=all",
                        "at=5 storm queries=1 size=1 roads=all\n"
                        "at=4 storm queries=1 size=1 roads=all"))
          .ok());
}

TEST(PackParserTest, RejectsStormWithoutVolumeAndLiarsWithoutCohort) {
  EXPECT_FALSE(
      ParsePack(Rewrite("storm queries=1 size=1 roads=all", "storm size=1"))
          .ok());
  EXPECT_FALSE(ParsePack(Rewrite("storm queries=1 size=1 roads=all",
                                 "liars road=A value=90"))
                   .ok());
}

TEST(PackParserTest, RejectsDuplicatePhaseNamesAndUnknownEnvelopePhase) {
  EXPECT_FALSE(
      ParsePack(Rewrite("at=1 storm queries=1 size=1 roads=all",
                        "at=1 phase name=p\nat=2 phase name=p"))
          .ok());
  EXPECT_FALSE(
      ParsePack(std::string(kMinimal) + "[envelope:ghost]\nmin_served = 1\n")
          .ok());
}

TEST(PackParserTest, RejectsBadRoadsSpecAndBadRates) {
  EXPECT_FALSE(ParsePack(Rewrite("roads=all", "roads=ring:A")).ok());
  EXPECT_FALSE(ParsePack(Rewrite("at=1 storm queries=1 size=1 roads=all",
                                 "at=1 faults drop=1.5"))
                   .ok());
}

// Every bounded [engine] integer is rejected at parse time, naming its key;
// the bound itself still parses.
TEST(PackParserTest, RejectsOutOfRangeEngineIntegers) {
  struct Row {
    const char* key;
    const char* bad;
    const char* lowest_ok;
  };
  const Row rows[] = {
      {"hop_radius", "-1", "0"},    {"gsp_hop_limit", "-1", "0"},
      {"per_query_cap", "-1", "0"}, {"cost_per_road", "0", "1"},
      {"max_attempts", "0", "1"},
  };
  for (const Row& row : rows) {
    const std::string line = std::string(row.key) + " = ";
    const auto rejected =
        ParsePack(std::string(kMinimal) + "[engine]\n" + line + row.bad + "\n");
    ASSERT_FALSE(rejected.ok()) << row.key;
    EXPECT_NE(rejected.status().message().find(row.key), std::string::npos)
        << rejected.status().message();
    EXPECT_TRUE(ParsePack(std::string(kMinimal) + "[engine]\n" + line +
                          row.lowest_ok + "\n")
                    .ok())
        << row.key;
  }
  // campaign_budget < 0 keeps meaning "unlimited".
  const auto unlimited =
      ParsePack(std::string(kMinimal) + "[engine]\ncampaign_budget = -5\n");
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  EXPECT_EQ(unlimited->campaign_budget, -5);
}

TEST(PackParserTest, ResolveRoadsAgainstFixture) {
  auto pack = ParsePack(kFullPack);
  ASSERT_TRUE(pack.ok());
  auto fixture = BuildFixture(*pack);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  ASSERT_EQ(fixture->graph.num_roads(), 6);

  RoadsSpec all;  // kAll
  auto roads = ResolveRoads(all, *fixture);
  ASSERT_TRUE(roads.ok());
  EXPECT_EQ(roads->size(), 6u);

  RoadsSpec list;
  list.kind = RoadsSpec::Kind::kList;
  list.names = {"F", "A"};
  roads = ResolveRoads(list, *fixture);
  ASSERT_TRUE(roads.ok());
  EXPECT_EQ(*roads, (std::vector<graph::RoadId>{0, 5}));  // sorted

  list.names = {"Q"};
  EXPECT_FALSE(ResolveRoads(list, *fixture).ok());

  RoadsSpec district;
  district.kind = RoadsSpec::Kind::kDistrict;
  district.center = "A";
  district.hops = 1;
  roads = ResolveRoads(district, *fixture);
  ASSERT_TRUE(roads.ok());
  // A's 1-hop district: A itself, B (east), D (south).
  EXPECT_EQ(*roads, (std::vector<graph::RoadId>{0, 1, 3}));
}

TEST(PackParserTest, GeneratorPackBuildsGridFixture) {
  auto pack = ParsePack(
      "[scenario]\nname = g\n[generator]\nkind = grid\nrows = 3\ncols = 4\n"
      "[timeline]\nat=1 storm queries=1 size=1 roads=all\n");
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();
  auto fixture = BuildFixture(*pack);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  EXPECT_EQ(fixture->graph.num_roads(), 12);
  EXPECT_EQ(fixture->positions.size(), 12u);
  EXPECT_EQ(fixture->RoadByName("0"), 0);
  EXPECT_EQ(fixture->RoadByName("11"), 11);
}

}  // namespace
}  // namespace crowdrtse::scenario
