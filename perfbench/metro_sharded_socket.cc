// metro_sharded_socket: the 60k-road metro world split over K = 4 shard
// verticals (ShardedEngine) behind the network Frontend. One generator
// thread sends an open-loop Poisson stream of pipelined CQRC frames over a
// few connections at a fixed rate well below capacity; one reader thread
// matches every response back to its frame. Queries come from the same
// adjacent-road generator as metro_local; the partition decides which are
// cross-shard.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "metro_world.h"
#include "net/frame.h"
#include "net/json.h"
#include "net/socket.h"
#include "partition/partition.h"
#include "partition/partitioner.h"
#include "server/budget_ledger.h"
#include "server/frontend.h"
#include "server/sharded_engine.h"
#include "util/timer.h"
#include "workloads.h"

namespace crowdrtse::perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr int kShards = 4;
constexpr int kHaloRadius = 5;  // >= max(2C, C + H + 1) for C = H = 2
constexpr int kServerThreads = 4;
constexpr int kFanoutThreads = 4;
constexpr int kMaxConnections = 4;
/// Probes at most 6 of a query's 8 roads, so part of every answer comes
/// from GSP propagation.
constexpr int kPerQueryCap = 12;
constexpr double kOfferedQps = 20.0;
/// A coverage quota, not modelled traffic (the paper gives no query
/// popularity): this share of arrivals repeats one of a few hot queries,
/// each sent twice at the same instant on two connections, so the
/// coalescer has concurrent twins to join.
constexpr double kHotShare = 0.10;
constexpr int kHotQueries = 4;
/// The traced pass replays up to this many single-owner and as many
/// cross-shard queries of the window's schedule (hot repeats excluded).
constexpr int kReplayPerKind = 16;
/// A frame with no response after this long counts as silently dropped.
constexpr double kResponseTimeoutS = 60.0;

struct ShardedStack {
  MetroWorld world;
  double partition_s = 0.0;
  int64_t edge_cut = 0;
  std::vector<int32_t> owner;  // road -> owning shard
  std::unique_ptr<server::BudgetLedger> ledger;
  std::unique_ptr<server::ShardedEngine> engine;
  std::unique_ptr<server::Frontend> frontend;
  double warm_ms_per_slot = 0.0;
};

std::unique_ptr<ShardedStack> SetUp() {
  auto stack = std::make_unique<ShardedStack>();
  stack->world = BuildMetroWorld();
  const MetroWorld& world = stack->world;
  const int n = world.graph.num_roads();

  partition::PartitionerOptions partition_options;
  partition_options.num_shards = kShards;
  partition_options.halo_radius = kHaloRadius;
  partition_options.seed = 17;
  util::Timer partition_timer;
  const util::Result<partition::Partition> partition =
      partition::PartitionByGeography(world.graph, world.positions,
                                      partition_options);
  Require(partition.ok(), "geographic partition");
  stack->partition_s = partition_timer.ElapsedSeconds();
  stack->edge_cut = partition::EdgeCut(world.graph, *partition);
  stack->owner = partition->owner;

  stack->ledger = std::make_unique<server::BudgetLedger>(
      /*campaign_budget=*/-1, kPerQueryCap);
  server::ShardedEngineOptions options;
  options.engine.propagator_pool_size = kServerThreads;
  options.crowd = NoiselessCrowd();
  options.fanout_threads = kFanoutThreads;
  util::Result<std::unique_ptr<server::ShardedEngine>> engine =
      server::ShardedEngine::Create(
          world.graph, *partition, world.history, MetroConfig(),
          crowd::CostModel::Constant(n, 2),
          NoiselessWorkers(n, kMetroWorkersPerRoad), *stack->ledger,
          world.truth, options);
  Require(engine.ok(), "sharded engine build");
  stack->engine = std::move(*engine);

  util::Timer warm;
  for (int shard = 0; shard < kShards; ++shard) {
    for (int slot = 0; slot < kMetroSlots; ++slot) {
      Require(stack->engine->shard_system(shard).CorrelationsFor(slot).ok(),
              "Gamma_R warm-up");
    }
  }
  stack->warm_ms_per_slot = warm.ElapsedMillis() / (kShards * kMetroSlots);

  server::FrontendOptions frontend_options;
  frontend_options.num_workers = kServerThreads;
  stack->frontend = std::make_unique<server::Frontend>(
      *stack->engine, world.truth, frontend_options);
  Require(stack->frontend->Start().ok(), "front-end start");
  return stack;
}

/// One query frame of the schedule.
struct Frame {
  double due_s = 0.0;  // scheduled send time from the window start
  int conn = 0;
  server::QueryRequest request;
  bool hot = false;
  bool cross_shard = false;
  std::string bytes;
};

/// Query generator: runs of adjacent roads at random slots, plus a few
/// hot queries drawn the same way.
class QueryMix {
 public:
  QueryMix(const ShardedStack& stack, uint64_t seed)
      : stack_(stack), rng_(seed) {
    for (int h = 0; h < kHotQueries; ++h) hot_.push_back(Fresh());
  }

  server::QueryRequest Fresh() {
    server::QueryRequest request;
    request.slot = rng_.UniformInt(0, kMetroSlots - 1);
    request.queried =
        AdjacentRoads(rng_, stack_.world.graph.num_roads(), kMetroQuerySize);
    return request;
  }

  const server::QueryRequest& Hot() {
    return hot_[static_cast<size_t>(rng_.UniformInt(0, kHotQueries - 1))];
  }

  util::Rng& rng() { return rng_; }

 private:
  const ShardedStack& stack_;
  util::Rng rng_;
  std::vector<server::QueryRequest> hot_;
};

/// True when the partition splits the query's roads over several shards.
bool CrossShard(const ShardedStack& stack,
                const server::QueryRequest& request) {
  for (graph::RoadId r : request.queried) {
    if (stack.owner[static_cast<size_t>(r)] !=
        stack.owner[static_cast<size_t>(request.queried[0])]) {
      return true;
    }
  }
  return false;
}

std::string QueryFrame(int64_t id, const server::QueryRequest& request) {
  std::string json = "{\"id\":" + std::to_string(id) +
                     ",\"slot\":" + std::to_string(request.slot) +
                     ",\"roads\":[";
  for (size_t i = 0; i < request.queried.size(); ++i) {
    if (i > 0) json += ",";
    json += std::to_string(request.queried[i]);
  }
  return net::EncodeFrame(json + "]}");
}

/// Poisson arrivals over `seconds`, conditioned on their count: exactly
/// rate * seconds arrivals at sorted uniform times, with an exact share of
/// hot repeats in seeded order. A fixed count keeps answered_qps from
/// carrying the arrival count's own noise. Frame ids are schedule
/// positions.
std::vector<Frame> Schedule(const ShardedStack& stack, QueryMix& mix,
                            int connections, double seconds) {
  const int arrivals = static_cast<int>(std::lround(kOfferedQps * seconds));
  std::vector<double> times;
  for (int i = 0; i < arrivals; ++i) {
    times.push_back(mix.rng().UniformDouble() * seconds);
  }
  std::sort(times.begin(), times.end());
  std::vector<uint8_t> hot(static_cast<size_t>(arrivals), 0);
  std::fill(hot.begin(),
            hot.begin() + std::lround(arrivals * kHotShare), 1);
  mix.rng().Shuffle(hot);

  std::vector<Frame> frames;
  int next_conn = 0;
  for (int i = 0; i < arrivals; ++i) {
    const bool is_hot = hot[static_cast<size_t>(i)] != 0;
    const server::QueryRequest request = is_hot ? mix.Hot() : mix.Fresh();
    for (int copy = 0; copy < (is_hot ? 2 : 1); ++copy) {
      Frame frame;
      frame.due_s = times[static_cast<size_t>(i)];
      frame.conn = next_conn;
      next_conn = (next_conn + 1) % connections;
      frame.hot = is_hot;
      frame.cross_shard = CrossShard(stack, request);
      frame.bytes = QueryFrame(static_cast<int64_t>(frames.size()), request);
      frame.request = request;
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

struct OpenLoopResult {
  WindowResult window;
  Samples late_ms;
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  int64_t full_service = 0;
  int64_t coalesced = 0;
  /// Distinct (slot, roads) answers already in the MAPE: the world does
  /// not change during the window and the crowd is noiseless, so a repeat
  /// returns the same answer and would only re-weight its query.
  std::set<std::pair<int, std::vector<graph::RoadId>>> scored;
};

/// Checks one response payload against its frame and folds it in.
void Absorb(const std::string& payload, const std::vector<Frame>& frames,
            const traffic::DayMatrix& truth, double received_s,
            std::vector<uint8_t>& answered,
            OpenLoopResult& out) {
  const util::Result<net::json::Value> doc = net::json::Parse(payload);
  Require(doc.ok(), "response is JSON");
  const net::json::Value* id = doc->Find("id");
  Require(id != nullptr && id->AsInt().ok(), "response carries its id");
  const int64_t index = *id->AsInt();
  Require(index >= 0 && index < static_cast<int64_t>(frames.size()),
          "response id names a sent frame");
  Require(answered[static_cast<size_t>(index)] == 0,
          "exactly one response per frame");
  answered[static_cast<size_t>(index)] = 1;
  const Frame& frame = frames[static_cast<size_t>(index)];
  out.window.latency_ms.Add((received_s - frame.due_s) * 1e3);

  const std::string status = doc->Find("status")->AsString();
  if (status == "rejected") {
    ++out.rejected;
    return;
  }
  if (status != "ok") {
    ++out.errors;
    return;
  }
  ++out.ok;
  if (doc->Find("shed")->AsString() == "none") ++out.full_service;
  std::vector<double> speeds;
  for (const net::json::Value& v : doc->Find("speeds")->AsArray()) {
    // The wire writes NaN and Inf as 0, and every true speed here is
    // positive, so a 0 is a non-finite answer.
    Require(v.AsDouble() > 0.0, "every answered speed is finite");
    speeds.push_back(v.AsDouble());
  }
  Mape mape;
  CheckAnswer(frame.request, speeds, truth, mape);
  if (out.scored.emplace(frame.request.slot, frame.request.queried).second) {
    out.window.mape.Merge(mape);
  }
  if (doc->Find("coalesced")->AsBool()) {
    ++out.coalesced;  // a joiner: its payment is the leader's
  } else {
    out.window.paid += *doc->Find("paid")->AsInt();
  }
}

OpenLoopResult DriveOpenLoop(const ShardedStack& stack,
                             const std::vector<Frame>& frames,
                             int connections) {
  std::vector<net::Fd> fds;
  for (int c = 0; c < connections; ++c) {
    util::Result<net::Fd> fd = net::ConnectLocal(stack.frontend->port());
    Require(fd.ok(), "connect to the front-end");
    fds.push_back(std::move(*fd));
  }
  OpenLoopResult result;
  result.window.attempts = static_cast<int64_t>(frames.size());
  std::vector<uint8_t> answered(frames.size(), 0);
  result.window.start_s = SecondsSinceStart();
  const SteadyClock::time_point start = SteadyClock::now();
  const auto since_start = [&start] {
    return std::chrono::duration<double>(SteadyClock::now() - start).count();
  };

  std::thread generator([&] {
    for (const Frame& frame : frames) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<SteadyClock::duration>(
                      std::chrono::duration<double>(frame.due_s)));
      result.late_ms.Add((since_start() - frame.due_s) * 1e3);
      Require(net::WriteAll(fds[static_cast<size_t>(frame.conn)].get(),
                            frame.bytes)
                  .ok(),
              "frame written");
    }
  });

  // The reader runs on this thread: poll every connection, decode frames
  // as they complete, stop once every sent frame has its response.
  std::vector<net::FrameDecoder> decoders(static_cast<size_t>(connections));
  std::vector<pollfd> polls;
  for (const net::Fd& fd : fds) polls.push_back({fd.get(), POLLIN, 0});
  size_t done = 0;
  double last_progress_s = 0.0;
  char buffer[64 * 1024];
  while (done < frames.size()) {
    Require(::poll(polls.data(), polls.size(), 100) >= 0, "poll");
    const double now_s = since_start();
    for (size_t c = 0; c < polls.size(); ++c) {
      if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::read(polls[c].fd, buffer, sizeof(buffer));
      Require(got > 0, "connection stays open while frames are in flight");
      Require(decoders[c].Feed(buffer, static_cast<size_t>(got)).ok(),
              "response frame stream well formed");
      std::string payload;
      for (;;) {
        const util::Result<bool> next = decoders[c].Next(&payload);
        Require(next.ok(), "response frame decodes");
        if (!*next) break;
        Absorb(payload, frames, stack.world.truth, now_s, answered, result);
        ++done;
        last_progress_s = now_s;
      }
    }
    Require(now_s - last_progress_s < kResponseTimeoutS,
            "no silent drops: every frame answered in time");
  }
  result.window.wall_s = since_start();
  result.window.served = result.ok;
  generator.join();
  return result;
}

}  // namespace

Report RunMetroShardedSocket(const Flags& flags) {
  std::unique_ptr<ShardedStack> stack;
  const SetUpTimes setup = RepeatSetUp(
      flags, [&] { stack.reset(); }, [&] { stack = SetUp(); });
  ShardedStack& s = *stack;

  LoadShape shape;
  shape.generator_threads = 1;
  shape.client_threads = 1;  // the reader
  shape.connections = kMaxConnections;
  shape.server_threads = kServerThreads;
  shape.fanout_threads = kFanoutThreads;
  shape.gamma_threads = NumCores();
  shape.offered_qps = kOfferedQps;
  shape.CheckFitsMachine();

  QueryMix mix(s, flags.seed);
  const std::vector<Frame> frames =
      Schedule(s, mix, kMaxConnections, flags.seconds);
  Require(!frames.empty(), "the schedule sends frames");

  const int64_t misses_before = s.engine->stats().gamma_cache.misses;
  const OpenLoopResult run = DriveOpenLoop(s, frames, kMaxConnections);
  const server::EngineStats stats = s.engine->stats();
  const int64_t misses_in_window = stats.gamma_cache.misses - misses_before;
  const server::FrontendStats front = s.frontend->stats();
  shape.generator_late_ms_p99 = run.late_ms.Percentile(99.0);
  shape.Print();

  const int64_t sent = static_cast<int64_t>(frames.size());
  Require(misses_in_window == 0, "no Gamma_R miss inside the timed window");
  Require(run.ok + run.rejected + run.errors == sent,
          "served + rejected + failed == frames sent");
  Require(run.errors == 0 && run.rejected == 0,
          "no frame failed or was rejected");
  Require(front.queries_received == sent && front.bad_requests == 0 &&
              front.rate_limited == 0,
          "the front-end received every frame");
  Require(stats.queries_rejected == 0 && stats.queries_failed == 0,
          "the engine rejected and failed nothing");
  Require(stats.queries_served == run.ok - run.coalesced,
          "every uncoalesced answer is one engine serve");
  Require(s.ledger->reserved_outstanding() == 0,
          "ledger has no outstanding reservation");
  Require(s.ledger->total_spent() == run.window.paid &&
              stats.total_paid == run.window.paid,
          "ledger spend equals the sum of leader payments");
  std::printf("socket: %lld frames, %lld coalesced, shed_share %.4f, "
              "peak queue depth %lld\n",
              static_cast<long long>(sent),
              static_cast<long long>(run.coalesced),
              1.0 - static_cast<double>(run.full_service) /
                        static_cast<double>(sent),
              static_cast<long long>(front.admission.peak_depth));

  Report report;
  report.attempted = sent;
  report.served = run.ok;
  report.rejected = run.rejected;
  report.failed = run.errors;
  if (!flags.trace) {
    SetEndToEnd(report, setup, run.window, run.full_service, sent);
    return report;
  }

  int64_t cross = 0;
  for (const Frame& frame : frames) cross += frame.cross_shard ? 1 : 0;
  int64_t sub_served = 0;
  for (const server::ShardStats& shard : stats.shards) {
    sub_served += shard.queries_served;
  }
  report.Set("router.cross_shard_share",
             static_cast<double>(cross) / static_cast<double>(sent));
  report.Set("router.groups_per_query",
             static_cast<double>(sub_served) /
                 static_cast<double>(stats.queries_served));
  report.Set("partition.build_s", s.partition_s);
  report.Set("partition.edge_cut", static_cast<double>(s.edge_cut));
  report.Set("frontend.peak_queue_depth",
             static_cast<double>(front.admission.peak_depth));
  report.Set("frontend.coalesce_join_share",
             static_cast<double>(front.coalesce_joins) /
                 static_cast<double>(front.queries_received));
  report.Set("loadgen.late_ms_p99", run.late_ms.Percentile(99.0));
  report.Set("gamma.warm_ms_per_slot", s.warm_ms_per_slot);
  report.Set("gamma.misses_in_window", misses_in_window);
  report.Set("gamma.resident_mb",
             stats.gamma_cache.resident_bytes / 1048576.0);

  // Traced pass: a sample of the window's own queries (the first
  // single-owner and cross-shard ones, up to kReplayPerKind of each), one
  // at a time, each served twice — in process through ShardedEngine::Serve
  // and over one lockstep connection, alternating which goes first so
  // neither always finds the other's warm caches. The front-end's share is
  // the median of the per-query differences.
  std::vector<const Frame*> replay;
  int replay_single = 0;
  int replay_cross = 0;
  for (const Frame& frame : frames) {
    int& taken = frame.cross_shard ? replay_cross : replay_single;
    if (frame.hot || taken == kReplayPerKind) continue;
    ++taken;
    replay.push_back(&frame);
  }
  util::Result<net::Fd> fd = net::ConnectLocal(s.frontend->port());
  Require(fd.ok(), "connect to the front-end");
  Samples overhead, single, cross_ms, lookup;
  for (size_t q = 0; q < replay.size(); ++q) {
    const server::QueryRequest& request = replay[q]->request;
    util::Timer timer;
    for (int shard = 0; shard < kShards; ++shard) {
      Require(s.engine->shard_system(shard)
                  .CorrelationsFor(request.slot)
                  .ok(),
              "Gamma_R lookup");
    }
    lookup.Add(timer.ElapsedMillis() / kShards);

    const auto serve_in_process = [&] {
      util::Timer serve_timer;
      Require(s.engine->Serve(request, s.world.truth).ok(),
              "in-process sharded serve");
      return serve_timer.ElapsedMillis();
    };
    const auto serve_over_socket = [&] {
      util::Timer socket_timer;
      Require(net::WriteAll(fd->get(),
                            QueryFrame(static_cast<int64_t>(q), request))
                  .ok(),
              "lockstep frame written");
      std::string header, payload;
      Require(
          net::ReadExact(fd->get(), net::kFrameHeaderBytes, &header).ok(),
          "lockstep response header");
      uint32_t length = 0;
      std::memcpy(&length, header.data() + 4, sizeof(length));
      Require(net::ReadExact(fd->get(), length, &payload).ok(),
              "lockstep response payload");
      const double ms = socket_timer.ElapsedMillis();
      const util::Result<net::json::Value> doc = net::json::Parse(payload);
      Require(doc.ok() && doc->Find("status")->AsString() == "ok",
              "lockstep query served");
      return ms;
    };
    double in_process_ms = 0.0;
    double socket_ms = 0.0;
    if (q % 2 == 0) {
      in_process_ms = serve_in_process();
      socket_ms = serve_over_socket();
    } else {
      socket_ms = serve_over_socket();
      in_process_ms = serve_in_process();
    }
    overhead.Add(socket_ms - in_process_ms);
    (replay[q]->cross_shard ? cross_ms : single).Add(in_process_ms);
  }
  Require(s.ledger->reserved_outstanding() == 0 &&
              s.ledger->total_spent() == s.engine->stats().total_paid,
          "ledger balances after the traced pass");
  report.Set("router.serve_single_ms", single.Mean());
  report.Set("router.serve_cross_ms", cross_ms.Mean());
  report.Set("gamma.lookup_ms", lookup.Mean());
  report.Set("frontend.overhead_ms", overhead.Percentile(50.0));
  return report;
}

}  // namespace crowdrtse::perfbench
