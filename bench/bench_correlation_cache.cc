// Correlation-cache bench: how long do N concurrent clients stall on cold
// Gamma_R slots? The baseline replicates the pre-cache design faithfully —
// one global mutex around a slot->table map, with the whole closure
// computation (one Dijkstra per source road) running *inside* the critical
// section, so a client asking for slot B waits for a stranger's slot A to
// finish. The cache column is rtf::CorrelationCache: per-slot singleflight,
// other slots never block, and the Dijkstra loop fans out across a thread
// pool.
//
// Expected shape on a multi-core host: at 1 client the cache already wins
// via the parallel fan-out; as clients grow the baseline's wall-clock
// approaches the *sum* of all slot computes (full serialization) while the
// cache's stays near the slowest single slot. On a single-core container
// both columns converge to the sum of computes — there the checked
// invariants (misses == cold slots, 7 of 8 same-slot touches coalesced)
// are the point, the speedup column needs real cores. The same-slot wave
// at the bottom shows coalescing: 8 first-touches of one cold slot trigger
// exactly one compute in both designs, so those two times converge
// everywhere — the concurrency win is strictly about disjoint slots.
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "semi_synthetic.h"
#include "eval/table_printer.h"
#include "rtf/correlation_cache.h"
#include "rtf/correlation_table.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace crowdrtse::bench {
namespace {

constexpr int kSlotsPerClient = 2;
constexpr int kSlotStride = 7;  // spread cold slots across the day

/// The pre-cache CrowdRtse::CorrelationsFor, verbatim in spirit: one mutex
/// guards the map and the compute both, and the per-source Dijkstra loop
/// runs serially.
class GlobalLockBaseline {
 public:
  explicit GlobalLockBaseline(const rtf::RtfModel& model) : model_(model) {}

  const rtf::CorrelationTable& Get(int slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(slot);
    if (it == cache_.end()) {
      auto table = rtf::CorrelationTable::Compute(
          model_, slot, rtf::PathWeightMode::kNegLog);
      CROWDRTSE_CHECK(table.ok());
      it = cache_.emplace(slot, std::move(*table)).first;
    }
    return it->second;
  }

 private:
  const rtf::RtfModel& model_;
  std::mutex mutex_;
  std::map<int, rtf::CorrelationTable> cache_;
};

/// Slot list for client `c`: disjoint from every other client's.
std::vector<int> ClientSlots(int c) {
  std::vector<int> slots;
  for (int q = 0; q < kSlotsPerClient; ++q) {
    slots.push_back((c * kSlotsPerClient + q) * kSlotStride);
  }
  return slots;
}

template <typename GetTable>
double TimeClients(int num_clients, const GetTable& get, bool same_slot) {
  util::Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (int slot : ClientSlots(same_slot ? 0 : c)) get(slot);
    });
  }
  for (std::thread& c : clients) c.join();
  return wall.ElapsedSeconds();
}

void Run() {
  std::printf("=== Correlation-cache bench — cold Gamma_R slots, N clients"
              " ===\n");
  WorldOptions options;
  options.num_roads = 300;
  options.num_days = 8;
  const SemiSyntheticWorld world = BuildWorld(options);
  std::printf("%d roads -> %.1f MB per slot table, %d cold slots per"
              " client, %u hardware threads\n\n",
              world.network.num_roads(),
              static_cast<double>(world.network.num_roads()) *
                  world.network.num_roads() * sizeof(double) / (1024.0 * 1024.0),
              kSlotsPerClient, std::thread::hardware_concurrency());

  eval::TablePrinter table({"clients", "cold slots", "global lock s",
                            "cache s", "speedup"});
  rtf::CorrelationCache::StatsSnapshot last_stats;
  for (int clients : {1, 2, 4, 8}) {
    // Fresh state per thread count: every touched slot is cold.
    GlobalLockBaseline baseline(world.model);
    const double locked_seconds = TimeClients(
        clients, [&](int slot) { baseline.Get(slot); }, /*same_slot=*/false);

    rtf::CorrelationCache cache{rtf::CorrelationCacheOptions{}};
    const auto compute = [&](int slot) {
      return rtf::CorrelationTable::Compute(world.model, slot,
                                            rtf::PathWeightMode::kNegLog,
                                            &util::ThreadPool::Shared());
    };
    const double cached_seconds = TimeClients(
        clients,
        [&](int slot) { CROWDRTSE_CHECK(cache.GetOrCompute(slot, compute).ok()); },
        /*same_slot=*/false);
    last_stats = cache.stats();

    table.AddRow({std::to_string(clients),
                  std::to_string(clients * kSlotsPerClient),
                  util::FormatDouble(locked_seconds, 2),
                  util::FormatDouble(cached_seconds, 2),
                  util::FormatDouble(locked_seconds / cached_seconds, 2)});
  }
  table.Print();
  std::printf("\ncache state after the 8-client run:\n  %s\n",
              last_stats.ToString().c_str());

  // Same-slot wave: 8 clients all first-touch the SAME two cold slots.
  // Both designs compute each exactly once (the cache via singleflight,
  // the baseline via the lock), so the times should be close — no false
  // win reported.
  {
    GlobalLockBaseline baseline(world.model);
    const double locked_seconds = TimeClients(
        8, [&](int slot) { baseline.Get(slot); }, /*same_slot=*/true);
    rtf::CorrelationCache cache{rtf::CorrelationCacheOptions{}};
    const auto compute = [&](int slot) {
      return rtf::CorrelationTable::Compute(world.model, slot,
                                            rtf::PathWeightMode::kNegLog,
                                            &util::ThreadPool::Shared());
    };
    const double cached_seconds = TimeClients(
        8,
        [&](int slot) { CROWDRTSE_CHECK(cache.GetOrCompute(slot, compute).ok()); },
        /*same_slot=*/true);
    const auto stats = cache.stats();
    std::printf("\nsame-slot wave (8 clients, %d shared cold slots): global"
                " lock %.2fs, cache %.2fs, touches coalesced %lld\n",
                kSlotsPerClient,
                locked_seconds, cached_seconds,
                static_cast<long long>(stats.coalesced));
    CROWDRTSE_CHECK(stats.misses == static_cast<int64_t>(kSlotsPerClient));
  }
}

}  // namespace
}  // namespace crowdrtse::bench

int main() {
  crowdrtse::bench::Run();
  return 0;
}
