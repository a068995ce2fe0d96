#include "scenario/world.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/bfs.h"
#include "util/rng.h"

namespace crowdrtse::scenario {

namespace {

/// One Gaussian rush window: fractional dip weight of `slot` for a rush
/// centered at `center_hours` with ~1.5h half-width, scaled onto the
/// scenario's (possibly shortened) day.
double RushWeight(int slot, int slots_per_day, double center_hours) {
  const double center = slots_per_day * (center_hours / 24.0);
  const double sigma = slots_per_day * (1.5 / 24.0);
  const double z = (static_cast<double>(slot) - center) / sigma;
  return std::exp(-0.5 * z * z);
}

/// One generated day: periodic profile + AR(1) fluctuation diffused one
/// pass over the graph so neighbours co-move.
void GenerateDay(const MapFixture& fixture, const WorldOptions& options,
                 util::Rng& rng, traffic::DayMatrix& day) {
  const int num_roads = fixture.graph.num_roads();
  const double a = options.temporal_persistence;
  const double innovation_scale = std::sqrt(std::max(0.0, 1.0 - a * a));
  std::vector<double> fluctuation(static_cast<size_t>(num_roads), 0.0);
  std::vector<double> mixed(static_cast<size_t>(num_roads), 0.0);
  for (int slot = 0; slot < options.slots_per_day; ++slot) {
    for (int r = 0; r < num_roads; ++r) {
      const double noise = fixture.profiles[static_cast<size_t>(r)].noise_kmh;
      fluctuation[static_cast<size_t>(r)] =
          a * fluctuation[static_cast<size_t>(r)] +
          innovation_scale * rng.Normal(0.0, noise);
    }
    for (int r = 0; r < num_roads; ++r) {
      const auto neighbors = fixture.graph.Neighbors(r);
      double neighbor_sum = 0.0;
      for (const graph::Adjacency& adj : neighbors) {
        neighbor_sum += fluctuation[static_cast<size_t>(adj.neighbor)];
      }
      const double neighbor_mean =
          neighbors.empty()
              ? fluctuation[static_cast<size_t>(r)]
              : neighbor_sum / static_cast<double>(neighbors.size());
      mixed[static_cast<size_t>(r)] =
          (1.0 - options.spatial_mix) * fluctuation[static_cast<size_t>(r)] +
          options.spatial_mix * neighbor_mean;
    }
    for (int r = 0; r < num_roads; ++r) {
      const double speed =
          PeriodicSpeed(fixture.profiles[static_cast<size_t>(r)], slot,
                        options.slots_per_day) +
          mixed[static_cast<size_t>(r)];
      day.At(slot, r) = std::max(options.min_speed, speed);
    }
  }
}

}  // namespace

util::Status ValidateWorldOptions(const WorldOptions& options) {
  if (options.history_days < 2) {
    return util::Status::InvalidArgument(
        "scenario history needs >= 2 days to estimate variances");
  }
  if (options.slots_per_day < 4) {
    return util::Status::InvalidArgument("slots_per_day must be >= 4");
  }
  if (options.temporal_persistence < 0.0 ||
      options.temporal_persistence >= 1.0) {
    return util::Status::InvalidArgument(
        "temporal_persistence must lie in [0, 1)");
  }
  if (options.spatial_mix < 0.0 || options.spatial_mix > 1.0) {
    return util::Status::InvalidArgument("spatial_mix must lie in [0, 1]");
  }
  if (options.min_speed <= 0.0) {
    return util::Status::InvalidArgument("min_speed must be positive");
  }
  return util::Status::Ok();
}

double PeriodicSpeed(const RoadProfile& profile, int slot,
                     int slots_per_day) {
  const double morning = RushWeight(slot, slots_per_day, 8.5);
  const double evening = RushWeight(slot, slots_per_day, 17.5);
  const double dip =
      profile.morning_dip * morning + profile.evening_dip * evening;
  return profile.base_kmh * (1.0 - std::min(0.95, dip));
}

util::Result<ScenarioWorld> BuildScenarioWorld(const MapFixture& fixture,
                                               const WorldOptions& options,
                                               uint64_t seed) {
  if (auto s = ValidateWorldOptions(options); !s.ok()) return s;
  const int num_roads = fixture.graph.num_roads();
  if (static_cast<size_t>(num_roads) != fixture.profiles.size()) {
    return util::Status::InvalidArgument(
        "fixture profiles do not cover every road");
  }
  ScenarioWorld world;
  world.history = traffic::HistoryStore(num_roads, options.history_days,
                                        options.slots_per_day);
  // Each day draws from its own forked stream, keyed by the day index —
  // day d is a pure function of (fixture, options, seed, d).
  for (int day = 0; day < options.history_days; ++day) {
    traffic::DayMatrix matrix(options.slots_per_day, num_roads);
    util::Rng rng(seed + 1000003ULL * static_cast<uint64_t>(day + 1));
    GenerateDay(fixture, options, rng, matrix);
    if (auto s = world.history.SetDay(day, matrix); !s.ok()) return s;
  }
  world.truth = traffic::DayMatrix(options.slots_per_day, num_roads);
  util::Rng rng(seed +
                1000003ULL * static_cast<uint64_t>(options.history_days + 1));
  GenerateDay(fixture, options, rng, world.truth);
  return world;
}

util::Status ApplyIncident(const graph::Graph& graph, graph::RoadId road,
                           int from_slot, int duration, double severity,
                           int spillover_hops, double min_speed,
                           traffic::DayMatrix& truth) {
  if (!graph.IsValidRoad(road)) {
    return util::Status::InvalidArgument("incident road out of range");
  }
  if (from_slot < 0 || from_slot >= truth.num_slots() || duration <= 0) {
    return util::Status::InvalidArgument(
        "incident window must start inside the day and last >= 1 slot");
  }
  if (severity <= 0.0 || severity >= 1.0) {
    return util::Status::InvalidArgument("incident severity must be in (0,1)");
  }
  graph::StampedBfs bfs;
  const graph::RoadId source[] = {road};
  bfs.Run(graph, source);
  const int last_slot =
      std::min(truth.num_slots(), from_slot + duration);
  const int max_hop = std::min(spillover_hops, bfs.num_levels() - 1);
  for (int hop = 0; hop <= max_hop; ++hop) {
    // Congestion spills outward at half strength per hop.
    const double factor = 1.0 - severity * std::pow(0.5, hop);
    for (int32_t k = bfs.level_offsets()[static_cast<size_t>(hop)];
         k < bfs.level_offsets()[static_cast<size_t>(hop) + 1]; ++k) {
      const graph::RoadId r = bfs.order()[static_cast<size_t>(k)];
      for (int slot = from_slot; slot < last_slot; ++slot) {
        truth.At(slot, r) = std::max(min_speed, truth.At(slot, r) * factor);
      }
    }
  }
  return util::Status::Ok();
}

}  // namespace crowdrtse::scenario
