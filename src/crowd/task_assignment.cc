#include "crowd/task_assignment.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

namespace crowdrtse::crowd {

namespace {

/// A small sorted key -> position table, probed once per worker. A
/// 4096-bit hashed presence filter rejects almost every probe before the
/// binary search, so the per-worker cost is one well-predicted branch.
template <typename Key>
class SortedKeys {
 public:
  explicit SortedKeys(const std::vector<Key>& keys) {
    entries_.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      entries_.emplace_back(keys[i], i);
      const uint32_t bit = Bit(keys[i]);
      filter_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    std::sort(entries_.begin(), entries_.end());
  }

  /// Calls fn with every position in the original key vector holding
  /// `key`, ascending.
  template <typename Fn>
  void ForEachPosition(Key key, Fn&& fn) const {
    const uint32_t bit = Bit(key);
    if ((filter_[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) return;
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const std::pair<Key, size_t>& e, Key k) { return e.first < k; });
    for (; it != entries_.end() && it->first == key; ++it) fn(it->second);
  }

 private:
  static uint32_t Bit(Key key) {
    return static_cast<uint32_t>(key) & (kFilterBits - 1);
  }

  static constexpr uint32_t kFilterBits = 4096;
  std::vector<std::pair<Key, size_t>> entries_;
  std::array<uint64_t, kFilterBits / 64> filter_{};
};

}  // namespace

RoundWorkers GatherWorkers(const std::vector<WorkerId>& ids,
                           const std::vector<graph::RoadId>& roads,
                           const std::vector<Worker>& workers) {
  RoundWorkers out;
  out.by_id.assign(ids.size(), nullptr);
  out.on_road.resize(roads.size());
  const SortedKeys<WorkerId> id_lookup(ids);
  const SortedKeys<graph::RoadId> road_lookup(roads);
  for (const Worker& w : workers) {
    bool listed = false;
    id_lookup.ForEachPosition(w.id, [&](size_t i) {
      out.by_id[i] = &w;
      listed = true;
    });
    if (listed) continue;
    road_lookup.ForEachPosition(
        w.road, [&](size_t j) { out.on_road[j].push_back(&w); });
  }
  for (std::vector<const Worker*>& bucket : out.on_road) {
    std::sort(bucket.begin(), bucket.end(),
              [](const Worker* a, const Worker* b) {
                return a->noise_kmh != b->noise_kmh
                           ? a->noise_kmh < b->noise_kmh
                           : a->id < b->id;
              });
  }
  return out;
}

util::Result<AssignmentPlan> AssignTasks(
    const std::vector<graph::RoadId>& selected_roads,
    const CostModel& costs, const std::vector<Worker>& workers) {
  std::set<graph::RoadId> seen;
  for (graph::RoadId r : selected_roads) {
    if (r < 0) {
      return util::Status::InvalidArgument("invalid selected road");
    }
    if (r >= costs.num_roads()) {
      return util::Status::InvalidArgument(
          "selected road missing from cost model: " + std::to_string(r));
    }
    if (!seen.insert(r).second) {
      return util::Status::InvalidArgument("duplicate selected road: " +
                                           std::to_string(r));
    }
  }

  // Bucket the workers on the selected roads, cleanest reporters first.
  const std::vector<std::vector<const Worker*>> by_road =
      GatherWorkers({}, selected_roads, workers).on_road;
  AssignmentPlan plan;
  for (size_t i = 0; i < selected_roads.size(); ++i) {
    const graph::RoadId road = selected_roads[i];
    const std::vector<const Worker*>& bucket = by_road[i];
    const int quota = std::max(1, costs.Cost(road));
    const int hired = std::min(quota, static_cast<int>(bucket.size()));
    for (int k = 0; k < hired; ++k) {
      TaskAssignment task;
      task.worker = bucket[static_cast<size_t>(k)]->id;
      task.road = road;
      task.payment_units = 1;
      plan.total_payment += task.payment_units;
      plan.assignments.push_back(task);
    }
    if (hired < quota) plan.underfilled_roads.push_back(road);
  }
  return plan;
}

}  // namespace crowdrtse::crowd
