#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/json.h"

namespace crowdrtse::obs {
namespace {

/// Tiny rings so wraparound happens within a handful of records:
/// bytes_per_thread below one slot still yields the 8-slot floor.
FlightRecorder::Options TinyOptions(int max_threads = 4) {
  FlightRecorder::Options options;
  options.bytes_per_thread = 1;
  options.max_threads = max_threads;
  return options;
}

/// The payload relation every test writes: a=i, b=2i+1, c=3i+2. A torn
/// record (payload words from two different writes) cannot satisfy it.
void RecordRelated(FlightRecorder& recorder, int64_t i) {
  recorder.Record(EventKind::kGspSweep, i, 2 * i + 1, 3 * i + 2);
}

void ExpectWhole(const EventRecord& record) {
  EXPECT_EQ(record.b, 2 * record.a + 1) << "torn record at seq " << record.seq;
  EXPECT_EQ(record.c, 3 * record.a + 2) << "torn record at seq " << record.seq;
}

TEST(FlightRecorderTest, RecordsAndSnapshotsInSequenceOrder) {
  FlightRecorder recorder(TinyOptions());
  recorder.Record(EventKind::kBudgetReserve, 7, 3);
  recorder.Record(EventKind::kBudgetSettle, 7, 3, 2);
  const std::vector<EventRecord> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, EventKind::kBudgetReserve);
  EXPECT_EQ(events[0].a, 7);
  EXPECT_EQ(events[0].b, 3);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[1].kind, EventKind::kBudgetSettle);
  EXPECT_EQ(events[1].c, 2);
  EXPECT_EQ(recorder.recorded(), 2);
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(FlightRecorderTest, WraparoundEvictsWholeOldestRecords) {
  FlightRecorder recorder(TinyOptions());
  const int64_t slots = static_cast<int64_t>(recorder.slots_per_thread());
  const int64_t total = 5 * slots + 3;  // wrap several times, misaligned
  for (int64_t i = 0; i < total; ++i) RecordRelated(recorder, i);

  const std::vector<EventRecord> events = recorder.Snapshot();
  // Exactly the ring capacity survives, and it is exactly the NEWEST
  // records — eviction is record-aligned, never a partial overwrite.
  ASSERT_EQ(static_cast<int64_t>(events.size()), slots);
  uint64_t previous_seq = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    ExpectWhole(events[i]);
    EXPECT_GT(events[i].seq, previous_seq) << "dump not sequence-sorted";
    previous_seq = events[i].seq;
    EXPECT_EQ(events[i].a, total - slots + static_cast<int64_t>(i));
  }
  EXPECT_EQ(recorder.recorded(), total);
  EXPECT_EQ(recorder.dropped(), 0);  // wraparound is not a drop
}

TEST(FlightRecorderTest, ConcurrentWritersAndDumperSeeNoTornRecords) {
  FlightRecorder recorder(TinyOptions(8));
  constexpr int kWriters = 4;
  constexpr int64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};

  std::thread dumper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const EventRecord& record : recorder.Snapshot()) {
        ExpectWhole(record);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder] {
      for (int64_t i = 0; i < kPerWriter; ++i) RecordRelated(recorder, i);
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  dumper.join();

  const std::vector<EventRecord> events = recorder.Snapshot();
  std::set<uint64_t> seqs;
  for (const EventRecord& record : events) {
    ExpectWhole(record);
    EXPECT_TRUE(seqs.insert(record.seq).second) << "duplicate seq";
    EXPECT_LT(record.thread, static_cast<uint32_t>(kWriters));
  }
  EXPECT_EQ(recorder.recorded(), kWriters * kPerWriter);
  EXPECT_EQ(recorder.dropped(), 0);
  EXPECT_EQ(recorder.threads_registered(), kWriters);
}

TEST(FlightRecorderTest, ThreadCapDropsInsteadOfAllocating) {
  FlightRecorder recorder(TinyOptions(/*max_threads=*/1));
  // Both threads must be alive at once: a joined thread's ring is free and
  // the second thread would take it over instead of dropping.
  std::atomic<bool> first_recorded{false};
  std::atomic<bool> second_done{false};
  std::thread first([&] {
    RecordRelated(recorder, 1);
    first_recorded.store(true);
    while (!second_done.load()) std::this_thread::yield();
  });
  std::thread second([&] {
    while (!first_recorded.load()) std::this_thread::yield();
    RecordRelated(recorder, 2);
    RecordRelated(recorder, 3);
    second_done.store(true);
  });
  first.join();
  second.join();
  EXPECT_EQ(recorder.threads_registered(), 1);
  EXPECT_EQ(recorder.dropped(), 2);
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, ExitedThreadsRingsAreTakenOver) {
  constexpr int kMaxThreads = 4;
  constexpr int kThreads = 100;
  FlightRecorder recorder(TinyOptions(kMaxThreads));
  // One short-lived thread after another, each recording once: past the
  // cap every new thread must take over an exited thread's ring.
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&recorder, i] { RecordRelated(recorder, i); }).join();
  }
  EXPECT_EQ(recorder.recorded(), kThreads);
  EXPECT_EQ(recorder.dropped(), 0);
  EXPECT_LE(recorder.threads_registered(), kMaxThreads);
  const std::vector<EventRecord> events = recorder.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), kMaxThreads * recorder.slots_per_thread());
  EXPECT_EQ(events.back().seq, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(events.back().a, kThreads - 1);
  for (const EventRecord& record : events) ExpectWhole(record);
}

TEST(FlightRecorderTest, FreedRingKeepsItsRecordsUntilOverwritten) {
  FlightRecorder recorder(TinyOptions(/*max_threads=*/1));
  std::thread([&recorder] {
    for (int i = 0; i < 3; ++i) RecordRelated(recorder, i);
  }).join();
  EXPECT_EQ(recorder.Snapshot().size(), 3u);
  std::thread([&recorder] { RecordRelated(recorder, 3); }).join();
  const std::vector<EventRecord> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].a, i);
    EXPECT_EQ(events[static_cast<size_t>(i)].thread, 0u);
  }
  EXPECT_EQ(recorder.threads_registered(), 1);
  EXPECT_EQ(recorder.dropped(), 0);
}

TEST(FlightRecorderTest, DisabledRecordIsInvisible) {
  FlightRecorder recorder(TinyOptions());
  recorder.SetEnabled(false);
  RecordRelated(recorder, 1);
  EXPECT_EQ(recorder.recorded(), 0);
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.SetEnabled(true);
  RecordRelated(recorder, 2);
  EXPECT_EQ(recorder.recorded(), 1);
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, ClearRestartsTheSequence) {
  FlightRecorder recorder(TinyOptions());
  for (int64_t i = 0; i < 10; ++i) RecordRelated(recorder, i);
  recorder.Clear();
  EXPECT_EQ(recorder.recorded(), 0);
  EXPECT_TRUE(recorder.Snapshot().empty());
  RecordRelated(recorder, 42);
  const std::vector<EventRecord> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);
}

TEST(FlightRecorderTest, ScopedShardTagsAndNests) {
  FlightRecorder recorder(TinyOptions());
  EXPECT_EQ(CurrentShard(), kNoShard);
  recorder.Record(EventKind::kGammaHit, 1);
  {
    ScopedShard outer(2);
    EXPECT_EQ(CurrentShard(), 2);
    recorder.Record(EventKind::kGammaHit, 2);
    {
      ScopedShard inner(5);
      EXPECT_EQ(CurrentShard(), 5);
      recorder.Record(EventKind::kGammaHit, 3);
    }
    EXPECT_EQ(CurrentShard(), 2);
  }
  EXPECT_EQ(CurrentShard(), kNoShard);
  const std::vector<EventRecord> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].shard, kNoShard);
  EXPECT_EQ(events[1].shard, 2);
  EXPECT_EQ(events[2].shard, 5);
}

TEST(FlightRecorderTest, DumpJsonParsesAndCarriesTheSchema) {
  FlightRecorder recorder(TinyOptions());
  recorder.Record(EventKind::kShardSplit, 9, 4, 24);
  const std::string dump = recorder.DumpJson();
  const auto doc = net::json::Parse(dump);
  ASSERT_TRUE(doc.ok()) << dump;
  EXPECT_EQ(*doc->Find("recorded")->AsInt(), 1);
  EXPECT_EQ(*doc->Find("dropped")->AsInt(), 0);
  EXPECT_EQ(*doc->Find("threads")->AsInt(), 1);
  const auto& events = doc->Find("events")->AsArray();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Find("kind")->AsString(), "shard.split");
  EXPECT_EQ(*events[0].Find("seq")->AsInt(), 1);
  EXPECT_EQ(*events[0].Find("a")->AsInt(), 9);
  EXPECT_EQ(*events[0].Find("b")->AsInt(), 4);
  EXPECT_EQ(*events[0].Find("c")->AsInt(), 24);
}

TEST(FlightRecorderTest, EventKindNamesAreStable) {
  EXPECT_STREQ(EventKindName(EventKind::kAdmissionVerdict),
               "admission.verdict");
  EXPECT_STREQ(EventKindName(EventKind::kShedTransition), "shed.transition");
  EXPECT_STREQ(EventKindName(EventKind::kShardSplit), "shard.split");
  EXPECT_STREQ(EventKindName(EventKind::kShardMerge), "shard.merge");
  EXPECT_STREQ(EventKindName(EventKind::kDispatchAttempt),
               "dispatch.attempt");
  EXPECT_STREQ(EventKindName(EventKind::kGammaHit), "gamma.hit");
  EXPECT_STREQ(EventKindName(EventKind::kGammaMiss), "gamma.miss");
  EXPECT_STREQ(EventKindName(EventKind::kGammaPatch), "gamma.patch");
  EXPECT_STREQ(EventKindName(EventKind::kGspSweep), "gsp.sweep");
  EXPECT_STREQ(EventKindName(EventKind::kBudgetReserve), "budget.reserve");
  EXPECT_STREQ(EventKindName(EventKind::kBudgetSettle), "budget.settle");
  EXPECT_STREQ(EventKindName(EventKind::kCoalesceFanout), "coalesce.fanout");
}

}  // namespace
}  // namespace crowdrtse::obs
