#include "crowd/worker_index.h"

#include <algorithm>

namespace crowdrtse::crowd {

const std::vector<Worker>& WorkerIndex::workers() const {
  static const std::vector<Worker> kNone;
  return workers_ != nullptr ? *workers_ : kNone;
}

void WorkerIndex::Rebuild(const std::vector<Worker>& workers,
                          int num_roads) {
  workers_ = &workers;
  num_roads = std::max(num_roads, 0);
  const auto in_range = [num_roads](graph::RoadId r) {
    return r >= 0 && r < num_roads;
  };

  // Counting sort by road: count, prefix-sum, place in population order,
  // then shift the advanced offsets back to bucket starts.
  offsets_.assign(static_cast<size_t>(num_roads) + 1, 0);
  for (const Worker& w : workers) {
    if (in_range(w.road)) ++offsets_[static_cast<size_t>(w.road) + 1];
  }
  for (size_t r = 1; r < offsets_.size(); ++r) offsets_[r] += offsets_[r - 1];
  slots_.resize(static_cast<size_t>(offsets_.back()));
  for (size_t i = 0; i < workers.size(); ++i) {
    const graph::RoadId road = workers[i].road;
    if (!in_range(road)) continue;
    slots_[static_cast<size_t>(offsets_[static_cast<size_t>(road)]++)] =
        static_cast<int32_t>(i);
  }
  for (size_t r = offsets_.size() - 1; r > 0; --r) {
    offsets_[r] = offsets_[r - 1];
  }
  offsets_[0] = 0;

  // Cleanest reporter first; ties keep population order.
  const auto cleaner = [&workers](int32_t a, int32_t b) {
    const Worker& wa = workers[static_cast<size_t>(a)];
    const Worker& wb = workers[static_cast<size_t>(b)];
    if (wa.noise_kmh != wb.noise_kmh) return wa.noise_kmh < wb.noise_kmh;
    if (wa.id != wb.id) return wa.id < wb.id;
    return a < b;
  };
  for (size_t r = 0; r + 1 < offsets_.size(); ++r) {
    if (offsets_[r + 1] - offsets_[r] > 1) {
      std::sort(slots_.begin() + offsets_[r], slots_.begin() + offsets_[r + 1],
                cleaner);
    }
  }

  // Id table, filled in population order so a later duplicate overwrites.
  if (workers.empty()) {
    id_table_.clear();
    id_shift_ = 64;
    return;
  }
  int bits = 1;
  while ((size_t{1} << bits) < 2 * workers.size()) ++bits;
  id_shift_ = 64 - bits;
  id_table_.assign(size_t{1} << bits, -1);
  const size_t mask = id_table_.size() - 1;
  for (size_t i = 0; i < workers.size(); ++i) {
    size_t h = HashId(workers[i].id, id_shift_);
    while (id_table_[h] != -1 &&
           workers[static_cast<size_t>(id_table_[h])].id != workers[i].id) {
      h = (h + 1) & mask;
    }
    id_table_[h] = static_cast<int32_t>(i);
  }
}

const Worker* WorkerIndex::FindById(WorkerId id) const {
  if (id_table_.empty()) return nullptr;
  const size_t mask = id_table_.size() - 1;
  for (size_t h = HashId(id, id_shift_);; h = (h + 1) & mask) {
    const int32_t slot = id_table_[h];
    if (slot == -1) return nullptr;
    const Worker& w = (*workers_)[static_cast<size_t>(slot)];
    if (w.id == id) return &w;
  }
}

}  // namespace crowdrtse::crowd
