#ifndef CROWDRTSE_OBS_FLIGHT_RECORDER_H_
#define CROWDRTSE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace crowdrtse::obs {

/// What happened, compactly. The three payload words a/b/c are
/// event-specific (DESIGN.md §10 has the full schema):
///   kAdmissionVerdict  a=shed level      b=queue depth    c=0
///   kShedTransition    a=previous level  b=new level      c=queue depth
///   kShardSplit        a=query id        b=owner shards   c=spend budget
///   kShardMerge        a=query id        b=total paid     c=owner shards
///   kDispatchAttempt   a=road            b=attempt        c=outcome code
///   kGammaHit          a=slot            b=0              c=0
///   kGammaMiss         a=slot            b=0              c=0
///   kGammaPatch        a=slot            b=outcome code   c=0
///   kGspSweep          a=slot            b=sweeps         c=converged
///   kBudgetReserve     a=query id        b=granted        c=0
///   kBudgetSettle      a=query id        b=granted        c=paid
///   kCoalesceFanout    a=query id        b=followers      c=leader client
enum class EventKind : uint16_t {
  kAdmissionVerdict = 1,
  kShedTransition = 2,
  kShardSplit = 3,
  kShardMerge = 4,
  kDispatchAttempt = 5,
  kGammaHit = 6,
  kGammaMiss = 7,
  kGammaPatch = 8,
  kGspSweep = 9,
  kBudgetReserve = 10,
  kBudgetSettle = 11,
  kCoalesceFanout = 12,
};

/// Dotted name of an event kind ("budget.reserve"), stable across versions
/// — dump consumers key on it.
const char* EventKindName(EventKind kind);

/// Shard tag of events recorded outside any ScopedShard.
inline constexpr int kNoShard = -1;

/// One decoded flight-recorder event. `seq` is the process-wide recording
/// order (1-based, no gaps among surviving records of one thread, strictly
/// increasing across the merged dump) — ordering needs no clock.
struct EventRecord {
  uint64_t seq = 0;
  EventKind kind = EventKind::kAdmissionVerdict;
  int shard = kNoShard;   // kNoShard outside a shard scope
  uint32_t thread = 0;    // index of the ring it was written to, not an OS
                          // tid (a dead thread's ring passes to a new one)
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
};

/// Always-on flight recorder: per-thread lock-free ring buffers of compact
/// fixed-size event records, merged on demand into one sequence-ordered
/// dump (DESIGN.md §10).
///
/// Writers are wait-free: Record() is one global fetch_add (the sequence
/// number that orders the merged dump without any clock) plus five relaxed
/// stores into the calling thread's own ring slot. Each slot is a tiny
/// seqlock keyed on the record's own globally unique sequence number: the
/// writer zeroes the slot's seq, writes the payload, then publishes the
/// new seq with release order — so a concurrent dumper that sees the same
/// nonzero seq before and after reading the payload knows the record is
/// whole, and anything else is skipped, never emitted torn. Eviction is
/// record-aligned by construction: wraparound overwrites whole slots.
///
/// Memory is bounded: each thread's ring holds a fixed power-of-two slot
/// count derived from Options::bytes_per_thread, and at most
/// Options::max_threads rings ever exist, so the recorder can never use
/// more than max_threads * bytes_per_thread bytes of ring memory. A ring
/// outlives its thread: when a thread exits its ring is marked free but
/// keeps its records (dumps still show them), and a new thread that
/// registers once the cap is reached takes over a free ring, overwriting
/// the old records as it wraps. Only while every ring belongs to a live
/// thread are a further thread's events counted in dropped().
///
/// The process-wide Global() instance is what the serving stack records
/// into (admission verdicts, shed transitions, shard split/merge, dispatch
/// attempt outcomes, Gamma_R hit/miss/patch, GSP sweeps, budget
/// reserve/settle); tests build private instances with tiny rings.
class FlightRecorder {
 public:
  struct Options {
    /// Ring bytes per writer thread; the slot count is the largest power
    /// of two that fits (at least 8 slots).
    size_t bytes_per_thread = 64 * 1024;
    /// Hard cap on rings — the recorder's total byte budget is
    /// max_threads * bytes_per_thread. A thread that finds every ring
    /// owned by a live thread drops.
    int max_threads = 64;
    /// Recording on/off at construction (SetEnabled flips it at runtime).
    bool enabled = true;
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(Options options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every serve-path event site uses.
  static FlightRecorder& Global();

  /// Records one event on the calling thread's ring. Wait-free after the
  /// thread's first call (which registers its ring under a mutex). When
  /// disabled this is a single relaxed atomic load.
  void Record(EventKind kind, int64_t a = 0, int64_t b = 0, int64_t c = 0);

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every whole record currently resident across all rings, merged and
  /// sorted by seq (the recording order). Safe under concurrent writers:
  /// records mid-write are skipped, never returned torn.
  std::vector<EventRecord> Snapshot() const;

  /// The merged snapshot as one JSON object:
  ///   {"recorded":N,"dropped":D,"threads":T,"events":[
  ///     {"seq":1,"kind":"budget.reserve","shard":-1,"thread":0,
  ///      "a":..,"b":..,"c":..}, ...]}
  std::string DumpJson() const;

  /// Events ever recorded (== the last sequence number handed out).
  int64_t recorded() const {
    return static_cast<int64_t>(next_seq_.load(std::memory_order_relaxed)) -
           1;
  }
  /// Events lost because every ring belonged to a live thread (ring
  /// wraparound is not counted — overwriting old records is the ring
  /// working as designed).
  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Rings allocated so far (at most max_threads; reused rings count once).
  int threads_registered() const;
  size_t slots_per_thread() const { return slots_per_thread_; }

  /// Empties every ring and restarts the sequence at 1. Not linearizable
  /// against concurrent writers (a racing Record may survive or vanish);
  /// callers quiesce first — the scenario runner clears between runs,
  /// tests between cases.
  void Clear();

 private:
  /// One ring slot. All fields are atomics so concurrent dump reads are
  /// race-free; `seq` doubles as the per-slot seqlock word (0 = empty or
  /// mid-write).
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> meta{0};  // kind | shard<<16 | thread<<32
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<int64_t> c{0};
  };
  struct Ring {
    uint32_t thread = 0;  // registration index
    /// The owning thread's liveness flag, cleared when that thread exits;
    /// guarded by mutex_. Identity of the flag object is the ownership
    /// key: the ring holds a reference, so no later thread's flag can
    /// share its address while this ring names it.
    std::shared_ptr<const std::atomic<bool>> owner;
    std::atomic<uint64_t> next{0};
    std::vector<Slot> slots;
  };

  /// Slow path of Record: finds the calling thread's ring under the mutex,
  /// or gives it a new one (below the cap) or a dead thread's (at the
  /// cap), and refreshes the thread-local cache. Returns nullptr when
  /// every ring belongs to a live thread; that is not cached, so the
  /// thread tries again on its next event.
  Ring* RingForThisThread();

  Options options_;
  /// Process-unique instance id (never reused, unlike addresses): the
  /// thread-local ring cache keys on it so a recorder allocated at a
  /// destroyed recorder's address cannot satisfy a stale cache entry.
  const uint64_t instance_id_;
  size_t slots_per_thread_;
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<int64_t> dropped_{0};
  mutable std::mutex mutex_;  // ring registration, Snapshot iteration, Clear
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// Tags every event the calling thread records (into any recorder) with a
/// shard index for the duration of the scope — how the sharded router
/// attributes the sub-engine's budget/gamma/GSP/dispatch events to the
/// shard that produced them without plumbing a shard id through the
/// pipeline. Nests; restores the previous tag on destruction.
class ScopedShard {
 public:
  explicit ScopedShard(int shard);
  ~ScopedShard();

  ScopedShard(const ScopedShard&) = delete;
  ScopedShard& operator=(const ScopedShard&) = delete;

 private:
  int previous_;
};

/// The calling thread's current shard tag (kNoShard outside any scope).
int CurrentShard();

/// Shorthand for FlightRecorder::Global().Record(...) — what the event
/// sites in admission, ledger, dispatch, gamma cache and GSP call.
inline void RecordEvent(EventKind kind, int64_t a = 0, int64_t b = 0,
                        int64_t c = 0) {
  FlightRecorder::Global().Record(kind, a, b, c);
}

}  // namespace crowdrtse::obs

#endif  // CROWDRTSE_OBS_FLIGHT_RECORDER_H_
