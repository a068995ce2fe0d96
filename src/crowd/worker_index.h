#ifndef CROWDRTSE_CROWD_WORKER_INDEX_H_
#define CROWDRTSE_CROWD_WORKER_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crowd/worker.h"
#include "graph/graph.h"

namespace crowdrtse::crowd {

/// A road-bucketed index over one worker population, so a crowdsourcing
/// round reads the workers on its selected roads instead of walking the
/// population.
///
/// Invariants after Rebuild(workers, num_roads):
///  - Road buckets are CSR: the workers on road r are the positions
///    slots[offsets[r], offsets[r+1]) into `workers`, one entry per worker
///    whose road lies in [0, num_roads); a worker off that range is in no
///    bucket (no selected road can name it) but is still found by id.
///  - Each bucket is sorted by (noise_kmh, id, position): cleanest reporter
///    first, the order task assignment hires in and dispatch reassigns in.
///  - FindById(id) returns the worker that is last in population order
///    among those carrying `id` (a later duplicate wins), or null.
///
/// The index borrows `workers`: the vector must outlive it and must not be
/// modified between Rebuild calls. A rebuild costs O(num_roads +
/// population); lookups cost O(bucket) and O(1) expected.
class WorkerIndex {
 public:
  /// Indexes `workers` over roads [0, num_roads).
  WorkerIndex(const std::vector<Worker>& workers, int num_roads) {
    Rebuild(workers, num_roads);
  }

  /// Indexes `workers` over roads [0, num_roads) (num_roads >= 0).
  void Rebuild(const std::vector<Worker>& workers, int num_roads);

  const std::vector<Worker>& workers() const;
  int num_roads() const {
    return static_cast<int>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Positions into workers() of the workers on `road`, cleanest first;
  /// empty for a road off the index.
  std::span<const int32_t> SlotsOn(graph::RoadId road) const {
    if (road < 0 || road >= num_roads()) return {};
    const size_t r = static_cast<size_t>(road);
    return std::span<const int32_t>(slots_).subspan(
        static_cast<size_t>(offsets_[r]),
        static_cast<size_t>(offsets_[r + 1] - offsets_[r]));
  }

  /// Number of workers on `road` (0 for a road off the index).
  int CountOn(graph::RoadId road) const {
    if (road < 0 || road >= num_roads()) return 0;
    const size_t r = static_cast<size_t>(road);
    return offsets_[r + 1] - offsets_[r];
  }

  /// The last worker in population order whose id is `id`, or null.
  const Worker* FindById(WorkerId id) const;

 private:
  static uint32_t HashId(WorkerId id, int shift) {
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(id)) *
         0x9e3779b97f4a7c15ull) >>
        shift);
  }

  const std::vector<Worker>* workers_ = nullptr;
  std::vector<int32_t> offsets_;  // num_roads + 1
  std::vector<int32_t> slots_;    // bucketed positions into *workers_
  /// Open-addressing id table: positions into *workers_, -1 = empty. Its
  /// size is a power of two >= 2 x population; id_shift_ = 64 - log2(size).
  std::vector<int32_t> id_table_;
  int id_shift_ = 64;
};

}  // namespace crowdrtse::crowd

#endif  // CROWDRTSE_CROWD_WORKER_INDEX_H_
