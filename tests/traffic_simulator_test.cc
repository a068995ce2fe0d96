#include "traffic/traffic_simulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "graph/generators.h"
#include "util/stats.h"

namespace crowdrtse::traffic {
namespace {

graph::Graph TestGraph() {
  util::Rng rng(11);
  graph::RoadNetworkOptions options;
  options.num_roads = 60;
  return *graph::RoadNetwork(options, rng);
}

TrafficModelOptions FastOptions() {
  TrafficModelOptions options;
  options.num_days = 6;
  return options;
}

TEST(TrafficOptionsTest, Validation) {
  TrafficModelOptions ok;
  EXPECT_TRUE(ValidateTrafficOptions(ok).ok());
  TrafficModelOptions bad = ok;
  bad.num_days = 0;
  EXPECT_FALSE(ValidateTrafficOptions(bad).ok());
  bad = ok;
  bad.max_base_speed = bad.min_base_speed - 1;
  EXPECT_FALSE(ValidateTrafficOptions(bad).ok());
  bad = ok;
  bad.temporal_persistence = 1.0;
  EXPECT_FALSE(ValidateTrafficOptions(bad).ok());
  bad = ok;
  bad.incident_rate_per_road_day = 1.5;
  EXPECT_FALSE(ValidateTrafficOptions(bad).ok());
  bad = ok;
  bad.spatial_mix = -0.1;
  EXPECT_FALSE(ValidateTrafficOptions(bad).ok());
}

TEST(TrafficSimulatorTest, ProfilesWithinConfiguredRanges) {
  const graph::Graph g = TestGraph();
  const TrafficModelOptions options = FastOptions();
  const TrafficSimulator sim(g, options, 1);
  ASSERT_EQ(sim.profiles().size(), static_cast<size_t>(g.num_roads()));
  for (const RoadProfile& p : sim.profiles()) {
    EXPECT_GE(p.base_speed, options.min_base_speed);
    EXPECT_LE(p.base_speed, options.max_base_speed);
    EXPECT_GE(p.noise_scale, options.min_noise_scale);
    EXPECT_LE(p.noise_scale, options.max_noise_scale);
    EXPECT_GE(p.morning_dip, options.min_rush_dip);
    EXPECT_LE(p.morning_dip, options.max_rush_dip);
  }
}

TEST(TrafficSimulatorTest, PeriodicSpeedDipsAtRushHour) {
  const graph::Graph g = TestGraph();
  const TrafficSimulator sim(g, FastOptions(), 2);
  const int rush = SlotOfTime(8, 15);
  const int night = SlotOfTime(3, 0);
  for (graph::RoadId r = 0; r < 10; ++r) {
    EXPECT_LT(sim.PeriodicSpeed(r, rush), sim.PeriodicSpeed(r, night));
  }
}

TEST(TrafficSimulatorTest, DaysAreDeterministic) {
  const graph::Graph g = TestGraph();
  const TrafficSimulator sim(g, FastOptions(), 3);
  const DayMatrix a = sim.GenerateDay(4);
  const DayMatrix b = sim.GenerateDay(4);
  for (int slot = 0; slot < kSlotsPerDay; slot += 37) {
    for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
      EXPECT_DOUBLE_EQ(a.At(slot, r), b.At(slot, r));
    }
  }
}

TEST(TrafficSimulatorTest, DifferentDaysDiffer) {
  const graph::Graph g = TestGraph();
  const TrafficSimulator sim(g, FastOptions(), 3);
  const DayMatrix a = sim.GenerateDay(0);
  const DayMatrix b = sim.GenerateDay(1);
  double max_diff = 0.0;
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    max_diff = std::max(max_diff, std::fabs(a.At(100, r) - b.At(100, r)));
  }
  EXPECT_GT(max_diff, 0.1);
}

TEST(TrafficSimulatorTest, SpeedsRespectFloor) {
  const graph::Graph g = TestGraph();
  TrafficModelOptions options = FastOptions();
  options.incident_rate_per_road_day = 0.5;  // many incidents
  const TrafficSimulator sim(g, options, 5);
  const DayMatrix day = sim.GenerateDay(0);
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
      EXPECT_GE(day.At(slot, r), options.min_speed);
    }
  }
}

TEST(TrafficSimulatorTest, SameSlotAcrossDaysIsPeriodic) {
  // The day-to-day spread around the periodic profile should be on the
  // order of the configured noise scales, far below the profile itself.
  const graph::Graph g = TestGraph();
  TrafficModelOptions options = FastOptions();
  options.num_days = 12;
  options.incident_rate_per_road_day = 0.0;  // isolate the periodic part
  const TrafficSimulator sim(g, options, 6);
  const HistoryStore history = sim.GenerateHistory();
  const int slot = SlotOfTime(12, 0);
  for (graph::RoadId r = 0; r < 10; ++r) {
    util::RunningStats stats;
    for (double v : history.Series(r, slot)) stats.Add(v);
    EXPECT_NEAR(stats.Mean(), sim.PeriodicSpeed(r, slot),
                4.0 * options.max_noise_scale);
    EXPECT_LT(stats.StdDev(), 3.0 * options.max_noise_scale);
  }
}

TEST(TrafficSimulatorTest, AdjacentRoadsCorrelate) {
  // Fluctuations diffuse along the graph: adjacent roads' deviations from
  // their periodic profile must correlate positively on average.
  const graph::Graph g = TestGraph();
  TrafficModelOptions options = FastOptions();
  options.incident_rate_per_road_day = 0.0;
  const TrafficSimulator sim(g, options, 7);
  const DayMatrix day = sim.GenerateDay(0);
  util::RunningStats corr_stats;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [i, j] = g.EdgeEndpoints(e);
    util::RunningCovariance cov;
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      cov.Add(day.At(slot, i) - sim.PeriodicSpeed(i, slot),
              day.At(slot, j) - sim.PeriodicSpeed(j, slot));
    }
    corr_stats.Add(cov.Correlation());
  }
  EXPECT_GT(corr_stats.Mean(), 0.2);
}

TEST(TrafficSimulatorTest, IncidentsCreateAccidentalVariance) {
  // With incidents on, some slots must fall far below the periodic
  // profile — the accidental variance the paper says Per-style methods
  // miss.
  const graph::Graph g = TestGraph();
  TrafficModelOptions options = FastOptions();
  options.incident_rate_per_road_day = 1.0;
  options.incident_severity = 0.6;
  const TrafficSimulator sim(g, options, 8);
  const DayMatrix day = sim.GenerateDay(0);
  int big_drops = 0;
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      if (day.At(slot, r) < 0.6 * sim.PeriodicSpeed(r, slot)) {
        ++big_drops;
        break;
      }
    }
  }
  EXPECT_GT(big_drops, g.num_roads() / 3);
}

TEST(TrafficSimulatorTest, WeekendSeasonalityLightensRush) {
  const graph::Graph g = TestGraph();
  TrafficModelOptions options = FastOptions();
  options.weekend_rush_factor = 0.3;
  options.incident_rate_per_road_day = 0.0;
  const TrafficSimulator sim(g, options, 31);
  const int rush = SlotOfTime(8, 15);
  // Day 5 is a weekend; day 2 a weekday.
  EXPECT_TRUE(TrafficSimulator::IsWeekend(5));
  EXPECT_FALSE(TrafficSimulator::IsWeekend(2));
  for (graph::RoadId r = 0; r < 10; ++r) {
    EXPECT_GT(sim.PeriodicSpeedOnDay(r, rush, 5),
              sim.PeriodicSpeedOnDay(r, rush, 2));
    // Off-peak unaffected (bump ~0 at 03:00).
    EXPECT_NEAR(sim.PeriodicSpeedOnDay(r, SlotOfTime(3, 0), 5),
                sim.PeriodicSpeedOnDay(r, SlotOfTime(3, 0), 2), 0.01);
  }
  // Generated weekend days really are faster through the rush on average.
  const DayMatrix weekday = sim.GenerateDay(2);
  const DayMatrix weekend = sim.GenerateDay(5);
  double weekday_mean = 0.0;
  double weekend_mean = 0.0;
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    weekday_mean += weekday.At(rush, r);
    weekend_mean += weekend.At(rush, r);
  }
  EXPECT_GT(weekend_mean, weekday_mean);
}

TEST(TrafficSimulatorTest, WeekendMixInflatesSigmaEstimates) {
  // Training a single per-slot Gaussian on mixed weekday/weekend data must
  // show up as larger rush-hour sigma — quantifying the regime mixing a
  // 3-month crawl suffers.
  const graph::Graph g = TestGraph();
  TrafficModelOptions mixed = FastOptions();
  mixed.num_days = 14;
  mixed.weekend_rush_factor = 0.2;
  mixed.incident_rate_per_road_day = 0.0;
  TrafficModelOptions uniform = mixed;
  uniform.weekend_rush_factor = 1.0;
  const TrafficSimulator mixed_sim(g, mixed, 33);
  const TrafficSimulator uniform_sim(g, uniform, 33);
  const int rush = SlotOfTime(8, 15);
  double mixed_spread = 0.0;
  double uniform_spread = 0.0;
  const HistoryStore mixed_history = mixed_sim.GenerateHistory();
  const HistoryStore uniform_history = uniform_sim.GenerateHistory();
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    util::RunningStats ms;
    util::RunningStats us;
    for (double v : mixed_history.Series(r, rush)) ms.Add(v);
    for (double v : uniform_history.Series(r, rush)) us.Add(v);
    mixed_spread += ms.StdDev();
    uniform_spread += us.StdDev();
  }
  EXPECT_GT(mixed_spread, uniform_spread);
}

TEST(TrafficSimulatorTest, WeekendFactorValidated) {
  TrafficModelOptions bad;
  bad.weekend_rush_factor = -0.1;
  EXPECT_FALSE(ValidateTrafficOptions(bad).ok());
  bad.weekend_rush_factor = 2.0;
  EXPECT_FALSE(ValidateTrafficOptions(bad).ok());
}

TEST(TrafficSimulatorTest, HistoryAndEvaluationDayDisjoint) {
  const graph::Graph g = TestGraph();
  const TrafficSimulator sim(g, FastOptions(), 9);
  const HistoryStore history = sim.GenerateHistory();
  EXPECT_EQ(history.num_days(), FastOptions().num_days);
  const DayMatrix eval_day = sim.GenerateEvaluationDay();
  // The evaluation day must not replicate any history day.
  for (int day = 0; day < history.num_days(); ++day) {
    double diff = 0.0;
    for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
      diff += std::fabs(eval_day.At(0, r) - history.At(day, 0, r));
    }
    EXPECT_GT(diff, 1e-6);
  }
}

/// FNV-1a over the IEEE bits of `count` doubles, low byte first.
uint64_t Fnv1a(uint64_t hash, const double* values, int count) {
  for (int i = 0; i < count; ++i) {
    const uint64_t bits = std::bit_cast<uint64_t>(values[i]);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 0x100000001B3ULL;
    }
  }
  return hash;
}

/// Digest of a simulator's whole history followed by its first evaluation
/// day, row by row.
uint64_t HistoryDigest(const TrafficSimulator& sim) {
  const HistoryStore history = sim.GenerateHistory();
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (int day = 0; day < history.num_days(); ++day) {
    for (int slot = 0; slot < history.num_slots(); ++slot) {
      hash = Fnv1a(hash, history.SlotPtr(day, slot), history.num_roads());
    }
  }
  const DayMatrix eval_day = sim.GenerateEvaluationDay();
  for (int slot = 0; slot < eval_day.num_slots(); ++slot) {
    hash = Fnv1a(hash, eval_day.SlotPtr(slot), eval_day.num_roads());
  }
  return hash;
}

// Pins the generator's output bit for bit: any change to its arithmetic or
// draw order (not just to its statistics) moves these digests.
TEST(TrafficSimulatorTest, HistoryDigestIsPinned) {
  // The paper-scale world the benches build: 607 roads, 30 days.
  util::Rng net_rng(42);
  graph::RoadNetworkOptions net_options;
  net_options.num_roads = 607;
  const graph::Graph city = *graph::RoadNetwork(net_options, net_rng);
  const TrafficSimulator city_sim(city, TrafficModelOptions{}, 43);
  EXPECT_EQ(HistoryDigest(city_sim), 0x7CDADB1A1F405D18ULL);

  // A lighter weekend rush, so the weekend factor is exercised too.
  const graph::Graph g = TestGraph();
  TrafficModelOptions weekend = FastOptions();
  weekend.num_days = 9;
  weekend.weekend_rush_factor = 0.6;
  const TrafficSimulator weekend_sim(g, weekend, 7);
  EXPECT_EQ(HistoryDigest(weekend_sim), 0xDC4F4C1A0A53C0B9ULL);
}

}  // namespace
}  // namespace crowdrtse::traffic
