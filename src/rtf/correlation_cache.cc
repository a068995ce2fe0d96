#include "rtf/correlation_cache.h"

#include <filesystem>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/stage_profiler.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crowdrtse::rtf {

std::string CorrelationCache::StatsSnapshot::ToString() const {
  std::string out =
      "hits=" + std::to_string(hits) + " misses=" + std::to_string(misses) +
      " coalesced=" + std::to_string(coalesced) +
      " warm=" + std::to_string(warm_loads) +
      " evictions=" + std::to_string(evictions) +
      " resident=" + std::to_string(resident_tables) + " tables/" +
      std::to_string(resident_bytes) + " bytes";
  if (patches > 0 || patch_fallbacks > 0) {
    out += " patches=" + std::to_string(patches) + "/" +
           std::to_string(patch_fallbacks) + " fallbacks";
  }
  if (persist_failures > 0) {
    out += " persist_failures=" + std::to_string(persist_failures);
  }
  out += "; compute " + compute_latency.ToString();
  return out;
}

CorrelationCache::CorrelationCache(CorrelationCacheOptions options)
    : options_(std::move(options)) {}

CorrelationCache::~CorrelationCache() { Drain(); }

CorrelationCache::InFlight::InFlight(CorrelationCache& cache)
    : cache_(cache) {
  std::lock_guard<std::mutex> lock(cache_.drain_mutex_);
  ++cache_.computes_in_flight_;
}

CorrelationCache::InFlight::~InFlight() {
  std::lock_guard<std::mutex> lock(cache_.drain_mutex_);
  if (--cache_.computes_in_flight_ == 0) cache_.drained_.notify_all();
}

void CorrelationCache::Drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] { return computes_in_flight_ == 0; });
}

std::shared_ptr<CorrelationCache::Entry> CorrelationCache::EntryFor(
    int slot) {
  Shard& shard = shards_[static_cast<size_t>(slot % kNumShards)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::shared_ptr<Entry>& entry = shard.entries[slot];
  if (!entry) entry = std::make_shared<Entry>();
  return entry;
}

util::Result<CorrelationCache::TablePtr> CorrelationCache::GetOrCompute(
    int slot, const ComputeFn& compute) {
  if (slot < 0) {
    return util::Status::OutOfRange("negative slot: " + std::to_string(slot));
  }
  // One span for the whole lookup, however many singleflight/eviction
  // retries it takes; the outcome annotation names the path that won.
  util::trace::Span span("gamma.lookup");
  span.Annotate("slot", static_cast<int64_t>(slot));
  for (;;) {
    std::shared_ptr<Entry> entry = EntryFor(slot);
    std::unique_lock<std::mutex> lock(entry->mutex);
    if (entry->table) {
      hits_.Increment();
      obs::RecordEvent(obs::EventKind::kGammaHit, slot);
      TablePtr table = entry->table;
      lock.unlock();
      Touch(slot);
      span.Annotate("outcome", "hit");
      return table;
    }
    if (entry->computing) {
      // Singleflight: somebody is already computing this slot — wait for
      // their result instead of duplicating ~one Dijkstra per road.
      coalesced_.Increment();
      span.Annotate("coalesced", "true");
      entry->computed.wait(lock, [&] { return !entry->computing; });
      if (entry->table) {
        hits_.Increment();
        obs::RecordEvent(obs::EventKind::kGammaHit, slot);
        TablePtr table = entry->table;
        lock.unlock();
        Touch(slot);
        span.Annotate("outcome", "coalesced_hit");
        return table;
      }
      if (!entry->error.ok()) {
        span.Annotate("outcome", "coalesced_error");
        return entry->error;
      }
      // No table and no error: the computer's result was discarded (an
      // Invalidate raced the compute) or the table was evicted before we
      // woke. Retry the whole lookup — never hand an OK Status to Result.
      lock.unlock();
      continue;
    }
    entry->computing = true;
    entry->error = util::Status::Ok();  // don't leak a prior round's error
    const uint64_t generation = entry->generation;
    lock.unlock();

    // Drain() (and the destructor) waits until this slow path is done.
    const InFlight in_flight(*this);

    // The slow path runs outside every lock: other slots proceed untouched
    // and same-slot arrivals park on the condition variable above.
    misses_.Increment();
    obs::RecordEvent(obs::EventKind::kGammaMiss, slot);
    TablePtr table = TryLoadPersisted(slot);
    const bool warm_loaded = table != nullptr;
    util::Status error;
    if (!table) {
      obs::StageTimer gamma_stage(obs::Stage::kGammaCompute);
      util::Timer timer;
      util::Result<CorrelationTable> computed = compute(slot);
      compute_latency_.Record(timer.ElapsedMillis());
      if (computed.ok()) {
        table = std::make_shared<CorrelationTable>(std::move(*computed));
      } else {
        error = computed.status();
      }
    }

    lock.lock();
    entry->computing = false;
    const bool stale = entry->generation != generation;
    if (!stale) {
      entry->table = table;  // stays null on failure; the next call retries
      entry->error = error;
    }
    entry->computed.notify_all();
    lock.unlock();

    if (stale) {
      // Invalidate ran while we computed (or warm-loaded): the result was
      // built from pre-invalidation state. Discard it — no caching, no
      // persisting — and retry against the fresh parameters.
      span.Annotate("stale_retry", "true");
      continue;
    }
    if (!table) {
      span.Annotate("outcome", "compute_error");
      return error;
    }
    if (warm_loaded) {
      warm_loads_.Increment();
      span.Annotate("outcome", "warm_load");
    } else {
      Persist(slot, *table);
      span.Annotate("outcome", "computed");
    }
    Publish(slot, table);
    return table;
  }
}

void CorrelationCache::Touch(int slot) {
  std::lock_guard<std::mutex> lock(lru_mutex_);
  auto it = lru_index_.find(slot);
  if (it == lru_index_.end()) return;  // evicted in the meantime
  lru_.splice(lru_.begin(), lru_, it->second.position);
}

void CorrelationCache::Publish(int slot, const TablePtr& table) {
  std::vector<int> victims;
  {
    std::lock_guard<std::mutex> lock(lru_mutex_);
    auto it = lru_index_.find(slot);
    if (it != lru_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.position);
    } else {
      lru_.push_front(slot);
      const std::size_t bytes = table->MemoryBytes();
      lru_index_[slot] = LruNode{lru_.begin(), bytes};
      resident_bytes_ += bytes;
    }
    if (options_.memory_budget_bytes > 0) {
      // Never evict the table just published — with a budget below one
      // table size the cache would otherwise thrash forever.
      while (resident_bytes_ > options_.memory_budget_bytes &&
             lru_.size() > 1 && lru_.back() != slot) {
        const int victim = lru_.back();
        lru_.pop_back();
        resident_bytes_ -= lru_index_[victim].bytes;
        lru_index_.erase(victim);
        victims.push_back(victim);
      }
    }
  }
  // Drop the victims' tables outside the LRU lock; readers holding the
  // shared_ptr keep their copy alive.
  for (int victim : victims) {
    std::shared_ptr<Entry> entry = EntryFor(victim);
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->table.reset();
    evictions_.Increment();
  }
}

CorrelationCache::PatchOutcome CorrelationCache::PatchInPlace(
    int slot, const PatchFn& patch) {
  if (slot < 0) return PatchOutcome::kInvalidated;
  util::trace::Span span("gamma.patch");
  span.Annotate("slot", static_cast<int64_t>(slot));
  std::shared_ptr<Entry> entry = EntryFor(slot);
  TablePtr current;
  uint64_t my_generation = 0;
  {
    std::unique_lock<std::mutex> lock(entry->mutex);
    // Bump first: the patch reflects a parameter change, so any compute in
    // flight (started against the old parameters) must discard its result
    // exactly as with Invalidate.
    ++entry->generation;
    my_generation = entry->generation;
    if (!entry->table || entry->computing) {
      lock.unlock();
      // Nothing resident to derive from (or someone mid-compute whose
      // result the bump already condemned): plain invalidation.
      patch_fallbacks_.Increment();
      obs::RecordEvent(obs::EventKind::kGammaPatch, slot, 1);
      span.Annotate("outcome", "fallback_invalidate");
      Invalidate(slot);
      return PatchOutcome::kInvalidated;
    }
    current = std::move(entry->table);
    entry->table.reset();
    entry->computing = true;  // concurrent lookups park on the CV
    entry->error = util::Status::Ok();
  }
  // De-account the old table while the patch runs; the successful install
  // below re-publishes with the new size, so LRU byte accounting never
  // drifts when the patched table's footprint differs.
  {
    std::lock_guard<std::mutex> lock(lru_mutex_);
    auto it = lru_index_.find(slot);
    if (it != lru_index_.end()) {
      resident_bytes_ -= it->second.bytes;
      lru_.erase(it->second.position);
      lru_index_.erase(it);
    }
  }

  // The patch runs outside all cache locks, under the drain gate.
  const InFlight in_flight(*this);

  util::Timer timer;
  util::Result<CorrelationTable> patched = patch(*current);
  compute_latency_.Record(timer.ElapsedMillis());
  current.reset();

  TablePtr table;
  util::Status error;
  if (patched.ok()) {
    table = std::make_shared<CorrelationTable>(std::move(*patched));
  } else {
    error = patched.status();
  }

  bool stale = false;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->computing = false;
    stale = entry->generation != my_generation;
    if (!stale) {
      entry->table = table;  // stays null on failure; next lookup recomputes
      entry->error = error;
    }
    entry->computed.notify_all();
  }
  if (stale) {
    // A concurrent Invalidate (or another patch) superseded this one; its
    // reset already cleared the persisted file. Discard our result.
    patch_fallbacks_.Increment();
    obs::RecordEvent(obs::EventKind::kGammaPatch, slot, 2);
    span.Annotate("outcome", "stale_discard");
    return PatchOutcome::kInvalidated;
  }
  if (!table) {
    // Leave the entry empty: waiters got `error`, the next lookup
    // recomputes from scratch. Drop the stale persisted file so a restart
    // cannot resurrect the pre-patch table.
    patch_fallbacks_.Increment();
    obs::RecordEvent(obs::EventKind::kGammaPatch, slot, 3);
    span.Annotate("outcome", "patch_error");
    const std::string path = PersistPath(slot);
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
    return PatchOutcome::kError;
  }
  patches_.Increment();
  obs::RecordEvent(obs::EventKind::kGammaPatch, slot, 0);
  Persist(slot, *table);
  Publish(slot, table);
  span.Annotate("outcome", "patched");
  return PatchOutcome::kPatched;
}

void CorrelationCache::Invalidate(int slot) {
  if (slot < 0) return;
  std::shared_ptr<Entry> entry = EntryFor(slot);
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->table.reset();
    entry->error = util::Status::Ok();
    // An in-flight compute for this slot (started against the old
    // parameters) sees the bump when it finishes and discards its result.
    ++entry->generation;
  }
  {
    std::lock_guard<std::mutex> lock(lru_mutex_);
    auto it = lru_index_.find(slot);
    if (it != lru_index_.end()) {
      resident_bytes_ -= it->second.bytes;
      lru_.erase(it->second.position);
      lru_index_.erase(it);
    }
  }
  const std::string path = PersistPath(slot);
  if (!path.empty()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

int CorrelationCache::WarmStart(int num_slots) {
  if (options_.persist_dir.empty()) return 0;
  int loaded = 0;
  for (int slot = 0; slot < num_slots; ++slot) {
    if (options_.memory_budget_bytes > 0) {
      std::lock_guard<std::mutex> lock(lru_mutex_);
      if (resident_bytes_ >= options_.memory_budget_bytes) break;
    }
    std::shared_ptr<Entry> entry = EntryFor(slot);
    std::unique_lock<std::mutex> lock(entry->mutex);
    if (entry->table || entry->computing) continue;
    TablePtr table = TryLoadPersisted(slot);
    if (!table) continue;
    entry->table = table;
    lock.unlock();
    warm_loads_.Increment();
    Publish(slot, table);
    ++loaded;
  }
  return loaded;
}

std::string CorrelationCache::PersistPath(int slot) const {
  if (options_.persist_dir.empty()) return "";
  return options_.persist_dir + "/gamma_slot_" + std::to_string(slot) +
         ".bin";
}

CorrelationCache::TablePtr CorrelationCache::TryLoadPersisted(int slot) {
  const std::string path = PersistPath(slot);
  if (path.empty()) return nullptr;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return nullptr;
  util::Result<CorrelationTable> loaded =
      CorrelationTable::LoadFromFile(path);
  if (!loaded.ok()) {
    persist_failures_.Increment();
    CROWDRTSE_LOG(Warning, "discarding persisted Gamma_R " + path + ": " +
                               loaded.status().ToString());
    return nullptr;
  }
  if (options_.expected_num_roads > 0 &&
      loaded->num_roads() != options_.expected_num_roads) {
    persist_failures_.Increment();
    CROWDRTSE_LOG(Warning,
                  "discarding persisted Gamma_R " + path + ": road count " +
                      std::to_string(loaded->num_roads()) +
                      " does not match the network (" +
                      std::to_string(options_.expected_num_roads) + ")");
    return nullptr;
  }
  if (loaded->hop_radius() != options_.expected_hop_radius) {
    persist_failures_.Increment();
    CROWDRTSE_LOG(Warning,
                  "discarding persisted Gamma_R " + path + ": hop radius " +
                      std::to_string(loaded->hop_radius()) +
                      " does not match the configured radius (" +
                      std::to_string(options_.expected_hop_radius) + ")");
    return nullptr;
  }
  return std::make_shared<CorrelationTable>(std::move(*loaded));
}

void CorrelationCache::Persist(int slot, const CorrelationTable& table) {
  const std::string path = PersistPath(slot);
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.persist_dir, ec);
  const util::Status saved = table.SaveToFile(path);
  if (!saved.ok()) {
    persist_failures_.Increment();
    CROWDRTSE_LOG(Warning, "failed to persist Gamma_R " + path + ": " +
                               saved.ToString());
  }
}

CorrelationCache::StatsSnapshot CorrelationCache::stats() const {
  StatsSnapshot snapshot;
  snapshot.hits = hits_.value();
  snapshot.misses = misses_.value();
  snapshot.coalesced = coalesced_.value();
  snapshot.evictions = evictions_.value();
  snapshot.warm_loads = warm_loads_.value();
  snapshot.persist_failures = persist_failures_.value();
  snapshot.patches = patches_.value();
  snapshot.patch_fallbacks = patch_fallbacks_.value();
  {
    std::lock_guard<std::mutex> lock(lru_mutex_);
    snapshot.resident_tables = static_cast<int64_t>(lru_.size());
    snapshot.resident_bytes = static_cast<int64_t>(resident_bytes_);
  }
  snapshot.compute_latency = compute_latency_.Snapshot();
  return snapshot;
}

}  // namespace crowdrtse::rtf
