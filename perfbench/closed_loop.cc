#include "closed_loop.h"

#include <barrier>
#include <thread>

#include "util/timer.h"

namespace crowdrtse::perfbench {
namespace {

/// One client's share of one wave.
struct ClientWave {
  int64_t attempts = 0;
  int64_t paid = 0;
  Samples latency_ms;
  Mape mape;
};

}  // namespace

WindowResult RunWaves(server::Engine& engine,
                      server::WorkerRegistry& registry,
                      const traffic::DayMatrix& truth, const WaveShape& shape,
                      const RoadPicker& pick, uint64_t seed, double seconds) {
  WindowResult result;
  std::vector<ClientWave> per_client(static_cast<size_t>(shape.clients));
  int wave = 0;
  bool stop = false;
  result.start_s = SecondsSinceStart();
  util::Timer wall;

  // Runs once per wave on the last client to arrive, while the others
  // wait: the clients are quiesced, so the registry may advance a slot.
  const auto end_wave = [&]() noexcept {
    registry.AdvanceSlot();
    for (ClientWave& mine : per_client) {
      result.attempts += mine.attempts;
      result.served += static_cast<int64_t>(mine.latency_ms.size());
      result.latency_ms.Append(mine.latency_ms);
      result.paid += mine.paid;
      result.mape.Merge(mine.mape);
      mine = ClientWave();
    }
    ++wave;
    stop = wall.ElapsedSeconds() >= seconds;
  };
  std::barrier sync(shape.clients, end_wave);

  // Persistent clients: a wave costs one barrier, not a thread start.
  std::vector<std::thread> clients;
  for (int c = 0; c < shape.clients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(seed * 7919 + static_cast<uint64_t>(c));
      ClientWave& mine = per_client[static_cast<size_t>(c)];
      while (!stop) {
        const int slot =
            shape.slots[static_cast<size_t>(wave) % shape.slots.size()];
        for (int q = 0; q < shape.queries_per_client_per_wave; ++q) {
          server::QueryRequest request;
          request.slot = slot;
          request.queried = pick(rng);
          ++mine.attempts;
          util::Timer timer;
          const util::Result<server::QueryResponse> response =
              engine.Serve(request, truth);
          mine.latency_ms.Add(timer.ElapsedMillis());
          Require(response.ok(), "query served: " +
                                     (response.ok()
                                          ? std::string()
                                          : response.status().message()));
          Require(response->paid >= 0 &&
                      response->paid <= response->granted_budget,
                  "payment within the granted budget");
          CheckAnswer(request, response->queried_speeds, truth, mine.mape);
          mine.paid += response->paid;
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  result.wall_s = wall.ElapsedSeconds();
  return result;
}

void CheckAccounting(const server::EngineStats& stats,
                     const server::BudgetLedger& ledger, int64_t attempts,
                     int64_t response_paid) {
  Require(stats.queries_served + stats.queries_rejected +
                  stats.queries_failed ==
              attempts,
          "served + rejected + failed == attempts");
  Require(stats.queries_rejected == 0 && stats.queries_failed == 0,
          "no query rejected or failed");
  Require(ledger.reserved_outstanding() == 0,
          "ledger has no outstanding reservation");
  Require(ledger.total_spent() == response_paid,
          "ledger spend equals the sum of response payments");
  Require(stats.total_paid == response_paid,
          "engine paid counter equals the sum of response payments");
}

}  // namespace crowdrtse::perfbench
