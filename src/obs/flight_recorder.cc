#include "obs/flight_recorder.h"

#include <algorithm>

namespace crowdrtse::obs {
namespace {

// The calling thread's ambient shard tag (see ScopedShard).
thread_local int t_shard = kNoShard;

// One-entry thread-local ring cache: the common case is a thread recording
// into a single recorder (the global one), so Record() resolves its ring
// with two loads and no lock. Tests that interleave private recorders on
// one thread fall back to the registration map. The instance id (not just
// the address) must match: a recorder constructed at a destroyed one's
// address — routine for stack-allocated test recorders — must not satisfy
// the stale entry, whose ring pointer dangles.
struct RingCache {
  const void* owner = nullptr;
  uint64_t instance_id = 0;
  void* ring = nullptr;
};
thread_local RingCache t_ring_cache;

// The calling thread's liveness flag, shared with every ring the thread
// owns and cleared as the thread exits, which frees those rings for
// takeover.
struct ThreadLiveness {
  std::shared_ptr<std::atomic<bool>> alive =
      std::make_shared<std::atomic<bool>>(true);
  ~ThreadLiveness() { alive->store(false, std::memory_order_release); }
};
thread_local ThreadLiveness t_liveness;

std::atomic<uint64_t> g_next_instance_id{1};

uint64_t PackMeta(EventKind kind, int shard, uint32_t thread) {
  const uint64_t shard_bits =
      static_cast<uint64_t>(static_cast<uint16_t>(shard)) << 16;
  return static_cast<uint64_t>(kind) | shard_bits |
         (static_cast<uint64_t>(thread) << 32);
}

void UnpackMeta(uint64_t meta, EventRecord& out) {
  out.kind = static_cast<EventKind>(meta & 0xffff);
  out.shard = static_cast<int16_t>((meta >> 16) & 0xffff);
  out.thread = static_cast<uint32_t>(meta >> 32);
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kAdmissionVerdict:
      return "admission.verdict";
    case EventKind::kShedTransition:
      return "shed.transition";
    case EventKind::kShardSplit:
      return "shard.split";
    case EventKind::kShardMerge:
      return "shard.merge";
    case EventKind::kDispatchAttempt:
      return "dispatch.attempt";
    case EventKind::kGammaHit:
      return "gamma.hit";
    case EventKind::kGammaMiss:
      return "gamma.miss";
    case EventKind::kGammaPatch:
      return "gamma.patch";
    case EventKind::kGspSweep:
      return "gsp.sweep";
    case EventKind::kBudgetReserve:
      return "budget.reserve";
    case EventKind::kBudgetSettle:
      return "budget.settle";
    case EventKind::kCoalesceFanout:
      return "coalesce.fanout";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(Options options)
    : options_(options),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)),
      enabled_(options.enabled) {
  size_t slots = 8;
  while (slots * 2 * sizeof(Slot) <= options_.bytes_per_thread) slots *= 2;
  slots_per_thread_ = slots;
  if (options_.max_threads < 1) options_.max_threads = 1;
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  const std::shared_ptr<std::atomic<bool>>& self = t_liveness.alive;
  std::lock_guard<std::mutex> lock(mutex_);
  Ring* ring = nullptr;
  Ring* vacant = nullptr;
  for (const auto& candidate : rings_) {
    if (candidate->owner == self) {
      ring = candidate.get();
      break;
    }
    if (vacant == nullptr &&
        !candidate->owner->load(std::memory_order_acquire)) {
      vacant = candidate.get();
    }
  }
  if (ring == nullptr) {
    if (static_cast<int>(rings_.size()) < options_.max_threads) {
      auto owned = std::make_unique<Ring>();
      owned->thread = static_cast<uint32_t>(rings_.size());
      owned->slots = std::vector<Slot>(slots_per_thread_);
      ring = owned.get();
      rings_.push_back(std::move(owned));
    } else if (vacant != nullptr) {
      ring = vacant;  // its records stay until this thread overwrites them
    } else {
      return nullptr;
    }
    ring->owner = self;
  }
  t_ring_cache.owner = this;
  t_ring_cache.instance_id = instance_id_;
  t_ring_cache.ring = ring;
  return ring;
}

void FlightRecorder::Record(EventKind kind, int64_t a, int64_t b, int64_t c) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = t_ring_cache.owner == this &&
                       t_ring_cache.instance_id == instance_id_
                   ? static_cast<Ring*>(t_ring_cache.ring)
                   : RingForThisThread();
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot =
      ring->slots[ring->next.fetch_add(1, std::memory_order_relaxed) &
                  (slots_per_thread_ - 1)];
  // Per-slot seqlock write: invalidate, fill, publish. The release fence
  // after the invalidation keeps the payload stores from being hoisted
  // above it on weakly ordered hardware; the final release store makes the
  // whole record visible to an acquire reader of `seq`.
  slot.seq.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.meta.store(PackMeta(kind, t_shard, ring->thread),
                  std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.c.store(c, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);
}

std::vector<EventRecord> FlightRecorder::Snapshot() const {
  std::vector<EventRecord> merged;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) {
    for (const Slot& slot : ring->slots) {
      // Seqlock read: a record is whole iff the same nonzero seq brackets
      // the payload loads. The acquire fence orders the payload loads
      // before the confirming re-read.
      const uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before == 0) continue;
      EventRecord record;
      UnpackMeta(slot.meta.load(std::memory_order_relaxed), record);
      record.a = slot.a.load(std::memory_order_relaxed);
      record.b = slot.b.load(std::memory_order_relaxed);
      record.c = slot.c.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      const uint64_t after = slot.seq.load(std::memory_order_relaxed);
      if (after != before) continue;  // overwritten mid-read: skip, not tear
      record.seq = before;
      merged.push_back(record);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const EventRecord& x, const EventRecord& y) {
              return x.seq < y.seq;
            });
  return merged;
}

std::string FlightRecorder::DumpJson() const {
  const std::vector<EventRecord> events = Snapshot();
  std::string out;
  out.reserve(64 + events.size() * 96);
  out += "{\"recorded\":" + std::to_string(recorded());
  out += ",\"dropped\":" + std::to_string(dropped());
  out += ",\"threads\":" + std::to_string(threads_registered());
  out += ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const EventRecord& e = events[i];
    if (i > 0) out += ',';
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"kind\":\"";
    out += EventKindName(e.kind);
    out += "\",\"shard\":" + std::to_string(e.shard);
    out += ",\"thread\":" + std::to_string(e.thread);
    out += ",\"a\":" + std::to_string(e.a);
    out += ",\"b\":" + std::to_string(e.b);
    out += ",\"c\":" + std::to_string(e.c);
    out += '}';
  }
  out += "]}";
  return out;
}

int FlightRecorder::threads_registered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(rings_.size());
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& ring : rings_) {
    for (Slot& slot : ring->slots) {
      slot.seq.store(0, std::memory_order_relaxed);
      slot.meta.store(0, std::memory_order_relaxed);
      slot.a.store(0, std::memory_order_relaxed);
      slot.b.store(0, std::memory_order_relaxed);
      slot.c.store(0, std::memory_order_relaxed);
    }
    ring->next.store(0, std::memory_order_relaxed);
  }
  next_seq_.store(1, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

ScopedShard::ScopedShard(int shard) : previous_(t_shard) { t_shard = shard; }

ScopedShard::~ScopedShard() { t_shard = previous_; }

int CurrentShard() { return t_shard; }

}  // namespace crowdrtse::obs
