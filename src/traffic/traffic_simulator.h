#ifndef CROWDRTSE_TRAFFIC_TRAFFIC_SIMULATOR_H_
#define CROWDRTSE_TRAFFIC_TRAFFIC_SIMULATOR_H_

#include <vector>

#include "graph/graph.h"
#include "traffic/history_store.h"
#include "traffic/time_slots.h"
#include "util/rng.h"
#include "util/status.h"

namespace crowdrtse::traffic {

/// Knobs of the synthetic traffic ground truth. The simulator substitutes
/// for the paper's crawled Hong Kong speed feed (see DESIGN.md §2); it
/// produces the three statistical ingredients CrowdRTSE exploits:
///  * periodicity  — each road has a recurrent daily profile (free-flow base
///    dipping through morning/evening rush), with per-road "periodicity
///    intensity" (the sigma of day-to-day deviations);
///  * correlation  — fluctuations are diffused along the network so adjacent
///    roads co-move (a flow system);
///  * accidents    — random incidents push speeds far from the profile, the
///    accidental variance the paper says periodicity-only methods miss.
struct TrafficModelOptions {
  int num_days = 30;  // 607 roads * 288 slots * 30 days = 5,244,480 records

  // Per-road free-flow base speed, uniform in [min, max] km/h.
  double min_base_speed = 25.0;
  double max_base_speed = 90.0;

  // Rush-hour profile: fractional dip magnitudes, uniform per road.
  double min_rush_dip = 0.15;
  double max_rush_dip = 0.55;

  // Day-to-day noise scale (km/h): the per-road "periodicity intensity".
  // Small -> strongly periodic road; large -> weakly periodic road.
  double min_noise_scale = 1.0;
  double max_noise_scale = 12.0;

  // AR(1) persistence of the latent fluctuation across consecutive slots.
  double temporal_persistence = 0.95;

  // Spatial coupling: smoothing passes of the innovation noise over the
  // graph; each pass mixes `spatial_mix` of the neighbour average in.
  int spatial_smoothing_passes = 3;
  double spatial_mix = 0.7;

  // Incidents: per-road per-day probability, fractional severity and
  // duration. Severity decays by half per hop as congestion spills over.
  double incident_rate_per_road_day = 0.12;
  double incident_severity = 0.55;
  int incident_duration_slots = 12;  // one hour
  int incident_spillover_hops = 1;

  // Weekend seasonality (off by default so the paper-shaped benches keep a
  // single daily regime): on days with day % 7 in {5, 6} the rush-hour
  // dips are scaled by this factor (< 1 = lighter weekend rush). The
  // paper's 3-month crawl inevitably mixes such regimes; enabling this
  // lets tests quantify what that does to the per-slot sigma estimates.
  double weekend_rush_factor = 1.0;

  // Hard floor so speeds stay physical.
  double min_speed = 2.0;
};

/// Per-road latent parameters drawn once at construction; exposed so tests
/// can assert the generated data matches the intended statistics.
struct RoadProfile {
  double base_speed = 0.0;
  double morning_dip = 0.0;   // fractional
  double evening_dip = 0.0;   // fractional
  double noise_scale = 0.0;   // km/h, periodicity intensity
};

/// Deterministic spatio-temporal traffic ground-truth generator.
///
/// Day `d` is a pure function of (seed, d): historical days and held-out
/// evaluation days can be generated independently and reproducibly.
class TrafficSimulator {
 public:
  /// Draws per-road profiles with `seed`. The graph reference must outlive
  /// the simulator.
  TrafficSimulator(const graph::Graph& graph,
                   const TrafficModelOptions& options, uint64_t seed);

  const TrafficModelOptions& options() const { return options_; }
  const std::vector<RoadProfile>& profiles() const { return profiles_; }

  /// The deterministic periodic component of road `r` at slot `t` on a
  /// weekday (what an infinite weekday history would estimate as mu_r^t,
  /// up to incident bias).
  double PeriodicSpeed(graph::RoadId road, int slot) const;

  /// Day-aware periodic component (applies the weekend factor when `day`
  /// falls on a weekend).
  double PeriodicSpeedOnDay(graph::RoadId road, int slot, int day) const;

  /// True when `day` is a weekend under the simulator's 7-day week.
  static bool IsWeekend(int day) { return day % 7 == 5 || day % 7 == 6; }

  /// Generates the full ground truth of day `day`.
  DayMatrix GenerateDay(int day) const;

  /// Generates options().num_days consecutive days as the offline history H.
  HistoryStore GenerateHistory() const;

  /// Convenience: a held-out evaluation day that never appears in the
  /// history (day index = num_days + offset).
  DayMatrix GenerateEvaluationDay(int offset = 0) const;

 private:
  /// Scale of the rush-hour dips on `day`: the weekend factor on weekends,
  /// 1 otherwise.
  double RushFactorOnDay(int day) const {
    return IsWeekend(day) ? options_.weekend_rush_factor : 1.0;
  }

  const graph::Graph& graph_;
  TrafficModelOptions options_;
  uint64_t seed_;
  std::vector<RoadProfile> profiles_;
};

/// Validates option ranges (probabilities in [0,1], positive speeds, ...).
util::Status ValidateTrafficOptions(const TrafficModelOptions& options);

}  // namespace crowdrtse::traffic

#endif  // CROWDRTSE_TRAFFIC_TRAFFIC_SIMULATOR_H_
