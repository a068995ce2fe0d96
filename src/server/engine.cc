#include "server/engine.h"

#include <string>

namespace crowdrtse::server {

std::string EngineStats::Report() const {
  std::string out =
      "EngineStats: served " + std::to_string(queries_served) +
      ", rejected " + std::to_string(queries_rejected) + ", failed " +
      std::to_string(queries_failed) + ", paid " +
      std::to_string(total_paid) + " units\n";
  out += "  serve:  " + serve_latency.ToString() + "\n";
  out += "  dispatch: retries " + std::to_string(crowd_retries) +
         ", reassigned " + std::to_string(crowd_reassignments) +
         ", deadline misses " + std::to_string(crowd_deadline_misses) +
         ", late " + std::to_string(reports_late) + ", duplicate " +
         std::to_string(reports_duplicate) + ", outlier " +
         std::to_string(reports_outlier) + "\n";
  out += "  degraded: " + std::to_string(roads_degraded) +
         " roads (deadline " + std::to_string(degraded_deadline) +
         ", outlier " + std::to_string(degraded_outlier) + ", unstaffed " +
         std::to_string(degraded_unstaffed) + ", load shed " +
         std::to_string(degraded_load_shed) + "; " +
         std::to_string(queries_shed) + " whole queries shed)\n";
  out += "  gamma:  " + gamma_cache.ToString();
  for (const ShardStats& shard : shards) {
    out += "\n  shard[" + std::to_string(shard.shard) + "]: served " +
           std::to_string(shard.queries_served) + ", rejected " +
           std::to_string(shard.queries_rejected) + ", failed " +
           std::to_string(shard.queries_failed) + ", degraded roads " +
           std::to_string(shard.roads_degraded) + ", gamma bytes " +
           std::to_string(shard.gamma_cache_bytes);
  }
  return out;
}

util::Status ValidateQuery(const QueryRequest& request, int num_slots,
                           int num_roads) {
  if (request.queried.empty()) {
    return util::Status::InvalidArgument("query has no roads");
  }
  if (request.slot < 0 || request.slot >= num_slots) {
    return util::Status::InvalidArgument(
        "slot out of range: " + std::to_string(request.slot) +
        " not in [0, " + std::to_string(num_slots) + ")");
  }
  for (graph::RoadId r : request.queried) {
    if (r < 0 || r >= num_roads) {
      return util::Status::InvalidArgument(
          "queried road out of range: " + std::to_string(r) + " not in [0, " +
          std::to_string(num_roads) + ")");
    }
  }
  return util::Status::Ok();
}

ServeCounters::ServeCounters(util::metrics::MetricsRegistry& registry)
    : served_(&registry.GetCounter("crowdrtse_queries_served_total",
                                   "queries answered successfully")),
      rejected_(&registry.GetCounter(
          "crowdrtse_queries_rejected_total",
          "queries refused up front (bad request or campaign budget dry)")),
      failed_(&registry.GetCounter(
          "crowdrtse_queries_failed_total",
          "queries that died mid-pipeline after their budget grant")),
      paid_units_(&registry.GetCounter("crowdrtse_paid_units_total",
                                       "answer-units paid to the crowd")),
      shed_(&registry.GetCounter(
          "crowdrtse_queries_shed_total",
          "queries answered entirely from the periodic fallback")),
      roads_degraded_(&registry.GetCounter(
          "crowdrtse_roads_degraded_total",
          "selected roads that fell down the degradation ladder")),
      degraded_deadline_(&registry.GetCounter(
          "crowdrtse_degraded_deadline_total",
          "roads degraded because every attempt dropped out or timed out")),
      degraded_outlier_(&registry.GetCounter(
          "crowdrtse_degraded_outlier_total",
          "roads degraded because all answers were rejected as implausible")),
      degraded_unstaffed_(&registry.GetCounter(
          "crowdrtse_degraded_unstaffed_total",
          "roads degraded because no worker was there to ask")),
      degraded_load_shed_(&registry.GetCounter(
          "crowdrtse_degraded_load_shed_total",
          "roads answered from the periodic fallback by admission shedding")),
      serve_latency_(&registry.GetHistogram(
          "crowdrtse_serve_latency_ms",
          "end-to-end Serve latency (served only)")) {}

util::Status ServeCounters::Reject(util::Status status) {
  rejected_->Increment();
  return status;
}

util::Status ServeCounters::Fail(util::Status status, int64_t paid) {
  failed_->Increment();
  paid_units_->Increment(paid);
  return status;
}

void ServeCounters::Served(const QueryResponse& response,
                           double serve_millis) {
  serve_latency_->Record(serve_millis);
  served_->Increment();
  paid_units_->Increment(response.paid);
  roads_degraded_->Increment(
      static_cast<int64_t>(response.degraded_roads.size()));
  for (crowd::DegradeReason reason : response.degraded_reasons) {
    switch (reason) {
      case crowd::DegradeReason::kDeadline:
        degraded_deadline_->Increment();
        break;
      case crowd::DegradeReason::kOutlier:
        degraded_outlier_->Increment();
        break;
      case crowd::DegradeReason::kUnstaffed:
        degraded_unstaffed_->Increment();
        break;
      case crowd::DegradeReason::kLoadShed:
        degraded_load_shed_->Increment();
        break;
    }
  }
}

void ServeCounters::Shed(const QueryResponse& response, double serve_millis) {
  Served(response, serve_millis);
  shed_->Increment();
}

void ServeCounters::Fill(EngineStats& stats) const {
  stats.queries_served = served_->value();
  stats.queries_rejected = rejected_->value();
  stats.queries_failed = failed_->value();
  stats.total_paid = paid_units_->value();
  stats.queries_shed = shed_->value();
  stats.roads_degraded = roads_degraded_->value();
  stats.degraded_deadline = degraded_deadline_->value();
  stats.degraded_outlier = degraded_outlier_->value();
  stats.degraded_unstaffed = degraded_unstaffed_->value();
  stats.degraded_load_shed = degraded_load_shed_->value();
  stats.serve_latency = serve_latency_->Snapshot();
}

bool ServeGate::Enter() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_.load(std::memory_order_acquire)) return false;
  ++in_flight_;
  return true;
}

void ServeGate::Exit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (--in_flight_ == 0) cv_.notify_all();
}

void ServeGate::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_.store(true, std::memory_order_release);
  cv_.wait(lock, [this] { return in_flight_ == 0; });
}

}  // namespace crowdrtse::server
