#include "traffic/history_store.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace crowdrtse::traffic {

HistoryStore::HistoryStore(int num_roads, int num_days, int num_slots)
    : num_roads_(num_roads),
      num_days_(num_days),
      num_slots_(num_slots),
      data_(static_cast<size_t>(num_roads) * static_cast<size_t>(num_days) *
                static_cast<size_t>(num_slots),
            0.0) {}

util::Status HistoryStore::SetDay(int day, const DayMatrix& matrix) {
  if (day < 0 || day >= num_days_) {
    return util::Status::OutOfRange("day out of range: " +
                                    std::to_string(day));
  }
  if (matrix.num_roads() != num_roads_ || matrix.num_slots() != num_slots_) {
    return util::Status::InvalidArgument("day matrix shape mismatch");
  }
  for (int slot = 0; slot < num_slots_; ++slot) {
    std::copy_n(matrix.SlotPtr(slot), num_roads_, SlotPtr(day, slot));
  }
  return util::Status::Ok();
}

std::vector<double> HistoryStore::Series(graph::RoadId road, int slot) const {
  CROWDRTSE_CHECK(road >= 0 && road < num_roads_);
  CROWDRTSE_CHECK(slot >= 0 && slot < num_slots_);
  std::vector<double> series(static_cast<size_t>(num_days_));
  for (int day = 0; day < num_days_; ++day) {
    series[static_cast<size_t>(day)] = data_[Index(day, slot, road)];
  }
  return series;
}

util::Status HistoryStore::AddRecord(const SpeedRecord& record) {
  if (record.day < 0 || record.day >= num_days_) {
    return util::Status::OutOfRange("record day out of range");
  }
  if (record.slot < 0 || record.slot >= num_slots_) {
    return util::Status::OutOfRange("record slot out of range");
  }
  if (record.road < 0 || record.road >= num_roads_) {
    return util::Status::OutOfRange("record road out of range");
  }
  data_[Index(record.day, record.slot, record.road)] = record.speed_kmh;
  return util::Status::Ok();
}

}  // namespace crowdrtse::traffic
