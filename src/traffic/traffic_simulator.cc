#include "traffic/traffic_simulator.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace crowdrtse::traffic {

namespace {

// Gaussian bump centred at `center` slots with width `width` slots.
double Bump(int slot, double center, double width) {
  const double d = (static_cast<double>(slot) - center) / width;
  return std::exp(-0.5 * d * d);
}

constexpr double kMorningCenter = 8.25 * 60.0 / kMinutesPerSlot;   // ~08:15
constexpr double kEveningCenter = 18.0 * 60.0 / kMinutesPerSlot;   // ~18:00
constexpr double kRushWidth = 1.25 * 60.0 / kMinutesPerSlot;       // ~75 min

// The morning and evening rush weights of one slot; they depend on the slot
// alone, so a day generator evaluates them once per slot, not per road.
struct RushBumps {
  double morning = 0.0;
  double evening = 0.0;
};

RushBumps RushBumpsAt(int slot) {
  return {Bump(slot, kMorningCenter, kRushWidth),
          Bump(slot, kEveningCenter, kRushWidth)};
}

// The periodic speed of a road whose rush dips are scaled by `factor`.
double PeriodicSpeedOf(const RoadProfile& p, double factor, RushBumps bumps,
                       double min_speed) {
  const double dip = factor * (p.morning_dip * bumps.morning +
                               p.evening_dip * bumps.evening);
  return std::max(min_speed, p.base_speed * (1.0 - std::min(dip, 0.9)));
}

}  // namespace

util::Status ValidateTrafficOptions(const TrafficModelOptions& options) {
  if (options.num_days <= 0) {
    return util::Status::InvalidArgument("num_days must be positive");
  }
  if (options.min_base_speed <= 0.0 ||
      options.max_base_speed < options.min_base_speed) {
    return util::Status::InvalidArgument("bad base speed range");
  }
  if (options.min_rush_dip < 0.0 || options.max_rush_dip > 0.95 ||
      options.max_rush_dip < options.min_rush_dip) {
    return util::Status::InvalidArgument("bad rush dip range");
  }
  if (options.min_noise_scale < 0.0 ||
      options.max_noise_scale < options.min_noise_scale) {
    return util::Status::InvalidArgument("bad noise scale range");
  }
  if (options.temporal_persistence < 0.0 ||
      options.temporal_persistence >= 1.0) {
    return util::Status::InvalidArgument(
        "temporal_persistence must be in [0, 1)");
  }
  if (options.spatial_mix < 0.0 || options.spatial_mix > 1.0) {
    return util::Status::InvalidArgument("spatial_mix must be in [0, 1]");
  }
  if (options.incident_rate_per_road_day < 0.0 ||
      options.incident_rate_per_road_day > 1.0) {
    return util::Status::InvalidArgument("incident rate must be in [0, 1]");
  }
  if (options.incident_severity < 0.0 || options.incident_severity >= 1.0) {
    return util::Status::InvalidArgument(
        "incident severity must be in [0, 1)");
  }
  if (options.weekend_rush_factor < 0.0 ||
      options.weekend_rush_factor > 1.5) {
    return util::Status::InvalidArgument(
        "weekend_rush_factor must be in [0, 1.5]");
  }
  return util::Status::Ok();
}

TrafficSimulator::TrafficSimulator(const graph::Graph& graph,
                                   const TrafficModelOptions& options,
                                   uint64_t seed)
    : graph_(graph), options_(options), seed_(seed) {
  CROWDRTSE_CHECK(ValidateTrafficOptions(options).ok());
  util::Rng rng(seed);
  profiles_.resize(static_cast<size_t>(graph.num_roads()));
  for (auto& profile : profiles_) {
    profile.base_speed =
        rng.UniformDouble(options.min_base_speed, options.max_base_speed);
    profile.morning_dip =
        rng.UniformDouble(options.min_rush_dip, options.max_rush_dip);
    profile.evening_dip =
        rng.UniformDouble(options.min_rush_dip, options.max_rush_dip);
    profile.noise_scale =
        rng.UniformDouble(options.min_noise_scale, options.max_noise_scale);
  }
}

double TrafficSimulator::PeriodicSpeed(graph::RoadId road, int slot) const {
  return PeriodicSpeedOnDay(road, slot, /*day=*/0);
}

double TrafficSimulator::PeriodicSpeedOnDay(graph::RoadId road, int slot,
                                            int day) const {
  return PeriodicSpeedOf(profiles_[static_cast<size_t>(road)],
                         RushFactorOnDay(day), RushBumpsAt(slot),
                         options_.min_speed);
}

DayMatrix TrafficSimulator::GenerateDay(int day) const {
  const int n = graph_.num_roads();
  DayMatrix out(kSlotsPerDay, n);
  // Each day gets its own deterministic stream.
  util::Rng rng(seed_ ^ (0xD1B54A32D192ED03ULL *
                         (static_cast<uint64_t>(day) + 1)));

  // --- incidents scheduled for the day --------------------------------
  // incident_drop[slot * n + road] accumulates fractional severity.
  std::vector<double> incident_drop(
      static_cast<size_t>(kSlotsPerDay) * static_cast<size_t>(n), 0.0);
  // Roads one incident's spillover has reached: a day-scoped marker,
  // cleared after each incident at the roads it marked only.
  std::vector<char> seen(static_cast<size_t>(n), 0);
  std::vector<graph::RoadId> marked;
  for (graph::RoadId r = 0; r < n; ++r) {
    if (!rng.Bernoulli(options_.incident_rate_per_road_day)) continue;
    const int start = rng.UniformInt(0, kSlotsPerDay - 1);
    const int end = std::min(kSlotsPerDay,
                             start + options_.incident_duration_slots);
    // Severity decays by half per hop of spillover.
    std::vector<graph::RoadId> frontier{r};
    seen[static_cast<size_t>(r)] = 1;
    marked.assign(1, r);
    double severity = options_.incident_severity;
    for (int hop = 0; hop <= options_.incident_spillover_hops && severity > 0.01;
         ++hop) {
      for (graph::RoadId road : frontier) {
        for (int slot = start; slot < end; ++slot) {
          incident_drop[static_cast<size_t>(slot) * static_cast<size_t>(n) +
                        static_cast<size_t>(road)] += severity;
        }
      }
      std::vector<graph::RoadId> next;
      for (graph::RoadId road : frontier) {
        for (const graph::Adjacency& adj : graph_.Neighbors(road)) {
          if (!seen[static_cast<size_t>(adj.neighbor)]) {
            seen[static_cast<size_t>(adj.neighbor)] = 1;
            marked.push_back(adj.neighbor);
            next.push_back(adj.neighbor);
          }
        }
      }
      frontier = std::move(next);
      severity *= 0.5;
    }
    for (graph::RoadId road : marked) seen[static_cast<size_t>(road)] = 0;
  }

  // --- spatio-temporal latent fluctuation -----------------------------
  const double phi = options_.temporal_persistence;
  const double innovation_scale = std::sqrt(1.0 - phi * phi);
  std::vector<double> z(static_cast<size_t>(n));
  std::vector<double> noise(static_cast<size_t>(n));
  std::vector<double> smoothed(static_cast<size_t>(n));
  for (auto& v : z) v = rng.Normal();

  const double rush_factor = RushFactorOnDay(day);
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    const RushBumps bumps = RushBumpsAt(slot);
    // Innovation: iid noise diffused over the graph so neighbours co-move.
    for (auto& v : noise) v = rng.Normal();
    for (int pass = 0; pass < options_.spatial_smoothing_passes; ++pass) {
      for (graph::RoadId r = 0; r < n; ++r) {
        const auto neighbors = graph_.Neighbors(r);
        if (neighbors.empty()) {
          smoothed[static_cast<size_t>(r)] = noise[static_cast<size_t>(r)];
          continue;
        }
        double avg = 0.0;
        for (const graph::Adjacency& adj : neighbors) {
          avg += noise[static_cast<size_t>(adj.neighbor)];
        }
        avg /= static_cast<double>(neighbors.size());
        smoothed[static_cast<size_t>(r)] =
            (1.0 - options_.spatial_mix) * noise[static_cast<size_t>(r)] +
            options_.spatial_mix * avg;
      }
      noise.swap(smoothed);
    }
    double* speeds = out.SlotPtr(slot);
    const double* slot_drop = incident_drop.data() +
                              static_cast<size_t>(slot) *
                                  static_cast<size_t>(n);
    for (graph::RoadId r = 0; r < n; ++r) {
      const size_t i = static_cast<size_t>(r);
      z[i] = phi * z[i] + innovation_scale * noise[i];
      const RoadProfile& profile = profiles_[i];
      const double periodic =
          PeriodicSpeedOf(profile, rush_factor, bumps, options_.min_speed);
      const double drop = std::min(0.9, slot_drop[i]);
      const double speed =
          periodic * (1.0 - drop) + profile.noise_scale * z[i];
      speeds[r] = std::max(options_.min_speed, speed);
    }
  }
  return out;
}

HistoryStore TrafficSimulator::GenerateHistory() const {
  HistoryStore store(graph_.num_roads(), options_.num_days, kSlotsPerDay);
  for (int day = 0; day < options_.num_days; ++day) {
    const DayMatrix matrix = GenerateDay(day);
    CROWDRTSE_CHECK(store.SetDay(day, matrix).ok());
  }
  return store;
}

DayMatrix TrafficSimulator::GenerateEvaluationDay(int offset) const {
  return GenerateDay(options_.num_days + offset);
}

}  // namespace crowdrtse::traffic
