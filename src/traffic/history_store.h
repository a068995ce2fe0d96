#ifndef CROWDRTSE_TRAFFIC_HISTORY_STORE_H_
#define CROWDRTSE_TRAFFIC_HISTORY_STORE_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "traffic/speed_record.h"
#include "traffic/time_slots.h"
#include "util/status.h"

namespace crowdrtse::traffic {

/// A full day of speeds: slot-major matrix (slot, road) -> speed. The
/// simulator produces these and the evaluation harness uses one as the
/// realtime ground truth.
class DayMatrix {
 public:
  DayMatrix() = default;
  DayMatrix(int num_slots, int num_roads)
      : num_slots_(num_slots),
        num_roads_(num_roads),
        data_(static_cast<size_t>(num_slots) * static_cast<size_t>(num_roads),
              0.0) {}

  int num_slots() const { return num_slots_; }
  int num_roads() const { return num_roads_; }

  double& At(int slot, graph::RoadId road) {
    return data_[static_cast<size_t>(slot) * static_cast<size_t>(num_roads_) +
                 static_cast<size_t>(road)];
  }
  double At(int slot, graph::RoadId road) const {
    return data_[static_cast<size_t>(slot) * static_cast<size_t>(num_roads_) +
                 static_cast<size_t>(road)];
  }

  /// Contiguous speeds of all roads in `slot`.
  const double* SlotPtr(int slot) const {
    return data_.data() +
           static_cast<size_t>(slot) * static_cast<size_t>(num_roads_);
  }
  double* SlotPtr(int slot) {
    return data_.data() +
           static_cast<size_t>(slot) * static_cast<size_t>(num_roads_);
  }

  /// Copy of one slot's speed vector.
  std::vector<double> SlotSpeeds(int slot) const {
    return {SlotPtr(slot), SlotPtr(slot) + num_roads_};
  }

 private:
  int num_slots_ = 0;
  int num_roads_ = 0;
  std::vector<double> data_;
};

/// The historical record H: num_days full days of per-slot speeds. Layout is
/// (day, slot, road) flat-major, so each (day, slot) is one contiguous road
/// row: parameter inference streams whole rows (SlotPtr) rather than one
/// road's series at a stride.
class HistoryStore {
 public:
  HistoryStore() = default;
  HistoryStore(int num_roads, int num_days, int num_slots = kSlotsPerDay);

  int num_roads() const { return num_roads_; }
  int num_days() const { return num_days_; }
  int num_slots() const { return num_slots_; }
  size_t num_records() const { return data_.size(); }

  double& At(int day, int slot, graph::RoadId road) {
    return data_[Index(day, slot, road)];
  }
  double At(int day, int slot, graph::RoadId road) const {
    return data_[Index(day, slot, road)];
  }

  /// Contiguous speeds of all roads on `day` in `slot`.
  const double* SlotPtr(int day, int slot) const {
    return data_.data() + Index(day, slot, 0);
  }
  double* SlotPtr(int day, int slot) {
    return data_.data() + Index(day, slot, 0);
  }

  /// Installs an entire day at once.
  util::Status SetDay(int day, const DayMatrix& matrix);

  /// The speeds of (road, slot) across all days — the periodic sample of
  /// one road.
  std::vector<double> Series(graph::RoadId road, int slot) const;

  /// Appends individual records (e.g. parsed from CSV). Out-of-range fields
  /// are rejected.
  util::Status AddRecord(const SpeedRecord& record);

 private:
  size_t Index(int day, int slot, graph::RoadId road) const {
    return (static_cast<size_t>(day) * static_cast<size_t>(num_slots_) +
            static_cast<size_t>(slot)) *
               static_cast<size_t>(num_roads_) +
           static_cast<size_t>(road);
  }

  int num_roads_ = 0;
  int num_days_ = 0;
  int num_slots_ = 0;
  std::vector<double> data_;
};

}  // namespace crowdrtse::traffic

#endif  // CROWDRTSE_TRAFFIC_HISTORY_STORE_H_
