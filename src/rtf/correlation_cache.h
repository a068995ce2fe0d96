#ifndef CROWDRTSE_RTF_CORRELATION_CACHE_H_
#define CROWDRTSE_RTF_CORRELATION_CACHE_H_

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "rtf/correlation_table.h"
#include "util/metrics.h"
#include "util/status.h"

namespace crowdrtse::rtf {

/// Behaviour knobs of the Gamma_R cache.
struct CorrelationCacheOptions {
  /// Upper bound, in bytes of CorrelationTable::MemoryBytes(), on the
  /// resident tables. 0 (the default) disables eviction, preserving the
  /// grow-without-bound behaviour of the pre-cache code. When the budget is
  /// smaller than a single table, that table is still kept (evicting the
  /// only copy would just thrash).
  std::size_t memory_budget_bytes = 0;

  /// Directory for warm-start persistence. When non-empty, every computed
  /// table is saved as `<persist_dir>/gamma_slot_<slot>.bin` and cache
  /// misses first try to reload from there (see also WarmStart), so a
  /// process restart does not re-pay one Dijkstra per road per slot.
  /// Empty (the default) disables persistence.
  std::string persist_dir;

  /// When > 0, warm-loaded files whose road count differs are rejected
  /// (they were computed against a different network) and recomputed.
  int expected_num_roads = 0;

  /// Expected CorrelationTable::hop_radius() of warm-loaded files: 0 for
  /// dense tables, C for the sparse C-hop-bounded closure. Files computed
  /// under a different radius are rejected and recomputed — a dense table
  /// masquerading as a sparse one (or a wider/narrower radius) would
  /// silently change OCS candidate pruning.
  int expected_hop_radius = 0;
};

/// Concurrent, memory-budgeted, persistent cache of per-slot Gamma_R
/// closures. This replaces the map-under-one-global-mutex in CrowdRtse: a
/// cold-slot computation (~one Dijkstra per road, n^2 doubles) no longer
/// stalls queries for other slots.
///
///   - Sharded per-slot locking: every slot has its own entry mutex; a
///     lookup touches one shard map lock (briefly) plus that entry lock.
///   - Singleflight compute: concurrent first touches of the *same* slot
///     coalesce onto one computation — the first arrival computes, the rest
///     wait on the entry's condition variable; other slots never block.
///   - No pool of its own: a compute callback fans its Dijkstra runs out
///     on whatever util::ThreadPool it chooses (CrowdRtse passes
///     ThreadPool::Shared(), which takes concurrent callers).
///   - LRU eviction: tables are evicted least-recently-used when resident
///     bytes exceed the budget. Lookups hand out shared_ptrs, so a reader
///     holding a table keeps it alive across eviction.
///   - Warm persistence: computed tables are saved to persist_dir and
///     reloaded on miss or eagerly via WarmStart.
///
/// Thread-safe for any number of concurrent GetOrCompute/Invalidate/stats
/// callers. The compute callback runs outside all cache locks and may be
/// invoked concurrently for *different* slots — it must be safe for that
/// (pure functions of an immutable model are; see CrowdRtse for the CCD
/// caveat).
class CorrelationCache {
 public:
  /// Result handle: shared ownership so eviction can never invalidate a
  /// table a reader is still using.
  using TablePtr = std::shared_ptr<const CorrelationTable>;

  /// Computes the table for `slot`.
  using ComputeFn = std::function<util::Result<CorrelationTable>(int slot)>;

  /// Point-in-time cache statistics (counters are monotonic since
  /// construction; resident_* reflect the current moment).
  struct StatsSnapshot {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t coalesced = 0;        // same-slot first touches that waited
    int64_t evictions = 0;
    int64_t warm_loads = 0;       // misses satisfied from persist_dir
    int64_t persist_failures = 0; // unreadable/mismatched/unwritable files
    int64_t patches = 0;           // PatchInPlace calls that patched
    int64_t patch_fallbacks = 0;   // PatchInPlace calls that invalidated
    int64_t resident_tables = 0;
    int64_t resident_bytes = 0;
    util::metrics::LatencySnapshot compute_latency;

    /// One-line counters plus the compute-latency distribution.
    std::string ToString() const;
  };

  explicit CorrelationCache(CorrelationCacheOptions options = {});
  /// Calls Drain(): destruction while another thread is mid-compute would
  /// otherwise tear the entries down under that thread.
  ~CorrelationCache();

  CorrelationCache(const CorrelationCache&) = delete;
  CorrelationCache& operator=(const CorrelationCache&) = delete;

  /// Blocks until no GetOrCompute slow path (warm load or compute) is in
  /// flight. Callers must still stop issuing new lookups themselves —
  /// Drain does not reject them, it only waits out the current ones; the
  /// serving layer's QueryEngine::Drain provides the admission stop.
  void Drain();

  /// Returns the cached table for `slot`, warm-loading or computing it via
  /// `compute` on a miss. Errors are returned to every coalesced waiter but
  /// not cached — the next call retries.
  util::Result<TablePtr> GetOrCompute(int slot, const ComputeFn& compute);

  /// Drops the cached table for `slot` (and its persisted file), e.g. after
  /// the model parameters it was computed from changed. No-op when absent.
  /// A compute already in flight for the slot is not interrupted, but its
  /// result is discarded (not cached, not persisted) and recomputed from
  /// the post-invalidation state — stale tables never resurface.
  void Invalidate(int slot);

  /// What a PatchInPlace attempt did.
  enum class PatchOutcome {
    kPatched,      // resident table transformed and reinstalled
    kInvalidated,  // nothing usable to patch (absent table, in-flight
                   // compute, or a concurrent Invalidate won): the entry is
                   // invalidated and the next lookup recomputes in full
    kError,        // the patch function failed; entry left invalidated
  };

  /// Transforms the resident table for `slot` into its successor, e.g. an
  /// incremental Gamma_R refresh after CCD changed a few parameters.
  using PatchFn = std::function<util::Result<CorrelationTable>(
      const CorrelationTable& current)>;

  /// Invalidate-with-a-shortcut: semantically equivalent to Invalidate
  /// followed by the next GetOrCompute, but the new table is derived from
  /// the resident one by `patch` (rows-only recompute) instead of from
  /// scratch. The generation is bumped exactly as Invalidate does — any
  /// compute in flight for the slot discards its (stale) result — and
  /// concurrent lookups park on the singleflight gate until the patched
  /// table is installed, so the pre-patch table is never served once this
  /// call has begun. Falls back to plain Invalidate when there is nothing
  /// resident to patch.
  PatchOutcome PatchInPlace(int slot, const PatchFn& patch);

  /// Eagerly loads persisted tables for slots [0, num_slots) until the
  /// memory budget is reached. Returns the number of tables loaded.
  int WarmStart(int num_slots);

  StatsSnapshot stats() const;

  const CorrelationCacheOptions& options() const { return options_; }

  /// `<persist_dir>/gamma_slot_<slot>.bin`; empty when persistence is off.
  std::string PersistPath(int slot) const;

 private:
  struct Entry {
    std::mutex mutex;
    std::condition_variable computed;
    bool computing = false;
    /// Bumped by Invalidate so an in-flight compute started against the
    /// old parameters discards its result instead of resurrecting them.
    uint64_t generation = 0;
    util::Status error;  // outcome handed to coalesced waiters (never OK
                         // while table is null after a finished compute)
    TablePtr table;
  };
  struct Shard {
    std::mutex mutex;
    std::map<int, std::shared_ptr<Entry>> entries;
  };
  struct LruNode {
    std::list<int>::iterator position;
    std::size_t bytes = 0;
  };
  /// Registers one slow path (warm load, compute or patch) with the drain
  /// gate for its lifetime; its decrement is the slow path's last access
  /// to the cache.
  class InFlight {
   public:
    explicit InFlight(CorrelationCache& cache);
    ~InFlight();
    InFlight(const InFlight&) = delete;
    InFlight& operator=(const InFlight&) = delete;

   private:
    CorrelationCache& cache_;
  };

  /// Lock shards the per-slot entries spread over; the per-slot state
  /// itself is locked per entry regardless.
  static constexpr int kNumShards = 16;

  std::shared_ptr<Entry> EntryFor(int slot);
  /// Moves `slot` to the LRU front if still resident.
  void Touch(int slot);
  /// Accounts a newly resident table and evicts LRU victims over budget.
  void Publish(int slot, const TablePtr& table);
  /// Tries persist_dir; returns nullptr when absent/invalid.
  TablePtr TryLoadPersisted(int slot);
  void Persist(int slot, const CorrelationTable& table);

  CorrelationCacheOptions options_;
  std::array<Shard, kNumShards> shards_;

  // LRU bookkeeping; never held together with an entry mutex (Publish and
  // Touch run after the entry lock is released, eviction takes each
  // victim's entry lock only after the LRU lock is dropped).
  mutable std::mutex lru_mutex_;
  std::list<int> lru_;  // front = most recently used
  std::map<int, LruNode> lru_index_;
  std::size_t resident_bytes_ = 0;

  // Drain bookkeeping: slow paths in flight (see Drain()).
  std::mutex drain_mutex_;
  std::condition_variable drained_;
  int64_t computes_in_flight_ = 0;

  util::metrics::Counter hits_;
  util::metrics::Counter misses_;
  util::metrics::Counter coalesced_;
  util::metrics::Counter evictions_;
  util::metrics::Counter warm_loads_;
  util::metrics::Counter persist_failures_;
  util::metrics::Counter patches_;
  util::metrics::Counter patch_fallbacks_;
  util::metrics::LatencyHistogram compute_latency_;
};

}  // namespace crowdrtse::rtf

#endif  // CROWDRTSE_RTF_CORRELATION_CACHE_H_
