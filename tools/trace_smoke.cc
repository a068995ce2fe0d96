// Tracing smoke checker (CI): serves a small faulted query batch at
// trace_sample_rate = 1.0, exports the Chrome trace and the Prometheus
// exposition, and validates both structurally —
//   * the trace is well-formed JSON with a traceEvents array;
//   * every served query id appears as a tid, every span's parent resolves
//     inside its own trace, child windows nest inside their parents, and
//     each query has exactly one root span named "serve" plus the expected
//     phase spans (ocs, crowd.dispatch with crowd.attempt children under
//     the fault storm, gsp.propagate);
//   * the Prometheus text parses line by line (exemplar suffixes
//     tolerated), histogram bucket series are cumulative, and the counters
//     match EngineStats;
//   * a cross-shard query against a K=4 sharded engine over the 607-road
//     world produces ONE stitched trace at /trace/<id>: every parent span
//     resolves (no orphans), a single root "serve", per-shard "shard"
//     children covering every owner shard, and a "merge" span — plus a
//     /debug/flight dump that parses and contains the shard.split event.
// Exits nonzero on the first class of failure, printing every violation,
// so CI gets a complete diagnosis in one run. The two artifacts are left
// next to the binary for upload.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "semi_synthetic.h"
#include "crowd/fault_plan.h"
#include "graph/generators.h"
#include "net/http.h"
#include "net/json.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "partition/partitioner.h"
#include "server/budget_ledger.h"
#include "server/frontend.h"
#include "server/query_engine.h"
#include "server/sharded_engine.h"
#include "server/worker_registry.h"
#include "traffic/traffic_simulator.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/logging.h"

namespace crowdrtse::tools {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("FAIL: %s\n", what.c_str());
  ++g_failures;
}

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough DOM to walk the Chrome trace export.
// Rejects malformed input (that is the point of the smoke test); tolerates
// duplicate keys by keeping all pairs.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole input as one value; false on any syntax error or
  /// trailing garbage.
  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(
                      static_cast<unsigned char>(text_[pos_ + static_cast<size_t>(i)]))) {
                return false;
              }
            }
            pos_ += 4;
            out->push_back('?');  // codepoint value is irrelevant here
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return Literal("null");
    }
    // Number.
    char* end = nullptr;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    pos_ = static_cast<size_t>(end - text_.c_str());
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Chrome trace validation.

struct SpanEvent {
  std::string name;
  int64_t span_id = 0;
  int64_t parent = 0;
  double ts = 0.0;
  double dur = 0.0;
};

void ValidateChromeTrace(const std::string& json,
                         const std::vector<int64_t>& query_ids) {
  JsonValue root;
  Check(JsonParser(json).Parse(&root), "chrome trace is not well-formed JSON");
  if (g_failures > 0) return;
  Check(root.kind == JsonValue::Kind::kObject, "trace root is not an object");
  const JsonValue* events = root.Find("traceEvents");
  Check(events != nullptr && events->kind == JsonValue::Kind::kArray,
        "trace has no traceEvents array");
  if (g_failures > 0) return;

  // Group complete ("X") span events by tid == query id.
  std::map<int64_t, std::vector<SpanEvent>> by_query;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Find("ph");
    const JsonValue* tid = event.Find("tid");
    Check(ph != nullptr && tid != nullptr, "event lacks ph/tid");
    if (ph == nullptr || tid == nullptr) continue;
    if (ph->string != "X") continue;  // skip thread_name metadata
    const JsonValue* args = event.Find("args");
    const JsonValue* name = event.Find("name");
    const JsonValue* ts = event.Find("ts");
    const JsonValue* dur = event.Find("dur");
    Check(name != nullptr && ts != nullptr && dur != nullptr &&
              args != nullptr && args->kind == JsonValue::Kind::kObject,
          "span event lacks name/ts/dur/args");
    if (name == nullptr || ts == nullptr || dur == nullptr ||
        args == nullptr) {
      continue;
    }
    const JsonValue* span_id = args->Find("span_id");
    const JsonValue* parent = args->Find("parent");
    const JsonValue* query_id = args->Find("query_id");
    Check(span_id != nullptr && parent != nullptr && query_id != nullptr,
          "span args lack span_id/parent/query_id");
    if (span_id == nullptr || parent == nullptr || query_id == nullptr) {
      continue;
    }
    Check(static_cast<int64_t>(query_id->number) ==
              static_cast<int64_t>(tid->number),
          "span query_id does not match its tid");
    SpanEvent span;
    span.name = name->string;
    span.span_id = static_cast<int64_t>(span_id->number);
    span.parent = static_cast<int64_t>(parent->number);
    span.ts = ts->number;
    span.dur = dur->number;
    by_query[static_cast<int64_t>(tid->number)].push_back(std::move(span));
  }

  for (int64_t id : query_ids) {
    Check(by_query.count(id) == 1,
          "query " + std::to_string(id) + " missing from trace");
  }

  int64_t attempts_total = 0;
  for (const auto& [qid, spans] : by_query) {
    const std::string q = "query " + std::to_string(qid) + ": ";
    std::map<int64_t, const SpanEvent*> by_id;
    std::set<std::string> names;
    int roots = 0;
    for (const SpanEvent& span : spans) {
      Check(by_id.emplace(span.span_id, &span).second,
            q + "duplicate span id " + std::to_string(span.span_id));
      names.insert(span.name);
      if (span.parent == 0) {
        ++roots;
        Check(span.name == "serve", q + "root span is '" + span.name +
                                        "', expected 'serve'");
      }
      if (span.name == "crowd.attempt") ++attempts_total;
    }
    Check(roots == 1,
          q + std::to_string(roots) + " root spans, expected exactly 1");
    for (const SpanEvent& span : spans) {
      if (span.parent == 0) continue;
      const auto it = by_id.find(span.parent);
      Check(it != by_id.end(), q + "span '" + span.name +
                                   "' has unresolved parent " +
                                   std::to_string(span.parent));
      if (it == by_id.end()) continue;
      const SpanEvent& parent = *it->second;
      Check(parent.ts <= span.ts &&
                span.ts + span.dur <= parent.ts + parent.dur,
            q + "span '" + span.name + "' escapes its parent '" +
                parent.name + "' window");
    }
    for (const char* expected :
         {"serve", "ocs", "ocs.select", "crowd", "crowd.dispatch",
          "crowd.aggregate", "gsp", "gsp.propagate", "settle"}) {
      Check(names.count(expected) == 1,
            q + "missing expected span '" + std::string(expected) + "'");
    }
  }
  // The fault storm must have produced per-attempt child spans somewhere.
  Check(attempts_total > 0, "no crowd.attempt spans under the fault storm");
  std::printf("trace: %zu queries, %lld attempt spans, nesting OK\n",
              by_query.size(), static_cast<long long>(attempts_total));
}

// ---------------------------------------------------------------------------
// Prometheus exposition validation.

void ValidatePrometheus(const std::string& text,
                        const server::EngineStats& stats,
                        int64_t traces_collected) {
  std::map<std::string, double> samples;
  std::map<std::string, std::vector<double>> bucket_series;
  size_t line_start = 0;
  int line_number = 0;
  while (line_start < text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      Check(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0,
            "prometheus line " + std::to_string(line_number) +
                " is an unknown comment form");
      continue;
    }
    // OpenMetrics exemplar suffix (' # {trace_id="N"} <value>') rides on
    // bucket lines of exemplar-bearing histograms; the sample proper is
    // everything before it.
    const size_t exemplar = line.find(" # ");
    const std::string sample =
        exemplar == std::string::npos ? line : line.substr(0, exemplar);
    const size_t space = sample.rfind(' ');
    Check(space != std::string::npos && space + 1 < sample.size(),
          "prometheus line " + std::to_string(line_number) +
              " has no sample value");
    if (space == std::string::npos) continue;
    const std::string key = sample.substr(0, space);
    char* end = nullptr;
    const std::string value_text = sample.substr(space + 1);
    const double value = std::strtod(value_text.c_str(), &end);
    Check(end == value_text.c_str() + value_text.size(),
          "prometheus value does not parse on line " +
              std::to_string(line_number) + ": " + line);
    samples[key] = value;
    const size_t brace = key.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      bucket_series[key.substr(0, brace)].push_back(value);
    }
  }

  for (const auto& [name, series] : bucket_series) {
    for (size_t i = 1; i < series.size(); ++i) {
      Check(series[i] >= series[i - 1],
            name + " bucket series is not cumulative");
    }
    const auto count = samples.find(name + "_count");
    Check(count != samples.end() && !series.empty() &&
              series.back() == count->second,
          name + " +Inf bucket disagrees with _count");
  }

  const auto expect = [&](const std::string& name, int64_t want) {
    const auto it = samples.find(name);
    Check(it != samples.end(), "prometheus is missing " + name);
    if (it == samples.end()) return;
    Check(static_cast<int64_t>(it->second) == want,
          name + " = " + std::to_string(static_cast<int64_t>(it->second)) +
              ", stats say " + std::to_string(want));
  };
  expect("crowdrtse_queries_served_total", stats.queries_served);
  expect("crowdrtse_queries_rejected_total", stats.queries_rejected);
  expect("crowdrtse_queries_failed_total", stats.queries_failed);
  expect("crowdrtse_paid_units_total", stats.total_paid);
  expect("crowdrtse_roads_degraded_total", stats.roads_degraded);
  expect("crowdrtse_dispatch_retries_total", stats.crowd_retries);
  expect("crowdrtse_serve_latency_ms_count", stats.queries_served);
  expect("crowdrtse_traces_collected", traces_collected);
  std::printf("prometheus: %zu samples, %zu histogram series, counters OK\n",
              samples.size(), bucket_series.size());
}

// ---------------------------------------------------------------------------
// Stitched sharded trace validation: one cross-shard query must yield a
// single span tree at /trace/<id> — every parent resolves, no orphans, one
// root "serve", shard children covering every owner shard, and a merge.

util::Status HttpGet(int fd, const std::string& target, int* status,
                     std::string* body) {
  CROWDRTSE_RETURN_IF_ERROR(
      net::WriteAll(fd, "GET " + target + " HTTP/1.1\r\n\r\n"));
  return net::ReadHttpResponse(fd, status, body);
}

util::Status HttpPost(int fd, const std::string& target,
                      const std::string& body, int* status,
                      std::string* response_body) {
  const std::string wire = "POST " + target +
                           " HTTP/1.1\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  CROWDRTSE_RETURN_IF_ERROR(net::WriteAll(fd, wire));
  return net::ReadHttpResponse(fd, status, response_body);
}

void ValidateStitchedTrace(const std::string& json, int64_t query_id,
                           const std::set<int>& want_shards) {
  JsonValue root;
  Check(JsonParser(json).Parse(&root),
        "stitched trace is not well-formed JSON");
  if (g_failures > 0) return;
  const JsonValue* events = root.Find("traceEvents");
  Check(events != nullptr && events->kind == JsonValue::Kind::kArray,
        "stitched trace has no traceEvents array");
  if (g_failures > 0) return;

  std::map<int64_t, const JsonValue*> by_id;
  std::vector<const JsonValue*> spans;
  int roots = 0;
  std::set<int> shard_spans;
  bool have_merge = false;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    const JsonValue* tid = event.Find("tid");
    const JsonValue* args = event.Find("args");
    const JsonValue* name = event.Find("name");
    if (tid == nullptr || args == nullptr || name == nullptr) {
      Check(false, "stitched span lacks tid/args/name");
      continue;
    }
    Check(static_cast<int64_t>(tid->number) == query_id,
          "stitched trace carries a span of foreign query " +
              std::to_string(static_cast<int64_t>(tid->number)));
    const JsonValue* span_id = args->Find("span_id");
    const JsonValue* parent = args->Find("parent");
    if (span_id == nullptr || parent == nullptr) {
      Check(false, "stitched span lacks span_id/parent");
      continue;
    }
    by_id[static_cast<int64_t>(span_id->number)] = &event;
    spans.push_back(&event);
    if (static_cast<int64_t>(parent->number) == 0) {
      ++roots;
      Check(name->string == "serve",
            "stitched root span is '" + name->string + "', want 'serve'");
    }
    if (name->string == "shard") {
      const JsonValue* shard = args->Find("shard");
      Check(shard != nullptr, "shard span lacks a shard annotation");
      if (shard != nullptr) {
        shard_spans.insert(std::atoi(shard->string.c_str()));
      }
    }
    if (name->string == "merge") have_merge = true;
  }
  Check(roots == 1, "stitched trace has " + std::to_string(roots) +
                        " roots, want exactly 1");
  int orphans = 0;
  for (const JsonValue* span : spans) {
    const int64_t parent = static_cast<int64_t>(
        span->Find("args")->Find("parent")->number);
    if (parent == 0) continue;
    if (by_id.find(parent) == by_id.end()) {
      ++orphans;
      Check(false, "orphan span '" + span->Find("name")->string +
                       "': parent " + std::to_string(parent) +
                       " not in this trace");
    }
  }
  for (const int shard : want_shards) {
    Check(shard_spans.count(shard) == 1,
          "no shard span for owner shard " + std::to_string(shard));
  }
  Check(have_merge, "cross-shard trace lacks a merge span");
  std::printf(
      "stitched trace: %zu spans, %zu shard children, %d orphans\n",
      spans.size(), shard_spans.size(), orphans);
}

int RunShardedStitching() {
  // The paper's 607-road world, K=4 geographic shards, every query traced
  // and profiled.
  util::Rng rng(3);
  graph::RoadNetworkOptions net_options;
  net_options.num_roads = 607;
  std::vector<std::pair<double, double>> positions;
  auto graph = graph::RoadNetwork(net_options, rng, &positions);
  CROWDRTSE_CHECK(graph.ok());
  traffic::TrafficModelOptions traffic_options;
  traffic_options.num_days = 8;
  traffic::TrafficSimulator sim(*graph, traffic_options, 5);
  const traffic::HistoryStore history = sim.GenerateHistory();
  const traffic::DayMatrix truth = sim.GenerateEvaluationDay();

  core::CrowdRtseConfig config;
  config.correlation_hop_radius = 2;
  config.gsp.hop_limit = 2;
  config.refine_with_ccd = false;

  partition::PartitionerOptions part_options;
  part_options.num_shards = 4;
  part_options.halo_radius = 5;
  part_options.seed = 17;
  auto partition = partition::PartitionByGeography(*graph, positions,
                                                   part_options);
  CROWDRTSE_CHECK(partition.ok());

  const crowd::CostModel costs =
      crowd::CostModel::Constant(graph->num_roads(), 2);
  std::vector<crowd::Worker> workers;
  crowd::WorkerId next_id = 0;
  for (graph::RoadId r = 0; r < graph->num_roads(); ++r) {
    for (int k = 0; k < 4; ++k) {
      crowd::Worker w;
      w.id = next_id++;
      w.road = r;
      w.bias = 1.0;
      w.noise_kmh = 0.0;
      workers.push_back(w);
    }
  }

  server::BudgetLedger ledger(-1, /*per_query_cap=*/24);
  server::ShardedEngineOptions options;
  options.crowd.min_bias = options.crowd.max_bias = 1.0;
  options.crowd.min_noise_kmh = options.crowd.max_noise_kmh = 0.0;
  options.crowd.outlier_rate = 0.0;
  options.engine.trace_sample_rate = 1.0;
  options.engine.profile_sample_rate = 1.0;
  auto engine = server::ShardedEngine::Create(*graph, *partition, history,
                                              config, costs, workers,
                                              ledger, truth, options);
  CROWDRTSE_CHECK(engine.ok());

  // A query spanning every shard: the first three roads each shard owns.
  std::map<int, int> taken;
  std::vector<graph::RoadId> roads;
  std::set<int> owners;
  for (graph::RoadId r = 0; r < graph->num_roads(); ++r) {
    const int owner = partition->OwnerOf(r);
    if (taken[owner] < 3) {
      ++taken[owner];
      roads.push_back(r);
      owners.insert(owner);
    }
  }
  Check(owners.size() == 4, "partition did not spread over 4 shards");

  server::FrontendOptions frontend_options;
  server::Frontend frontend(**engine, truth, frontend_options);
  CROWDRTSE_CHECK(frontend.Start().ok());
  auto http = net::ConnectLocal(frontend.port());
  CROWDRTSE_CHECK(http.ok());

  std::string body = "{\"id\":1,\"slot\":12,\"roads\":[";
  for (size_t i = 0; i < roads.size(); ++i) {
    if (i > 0) body += ",";
    body += std::to_string(roads[i]);
  }
  body += "]}";
  int status = 0;
  std::string response;
  Check(HttpPost(http->get(), "/query", body, &status, &response).ok() &&
            status == 200,
        "cross-shard /query failed: " + response);
  int64_t query_id = 0;
  if (auto parsed = net::json::Parse(response); parsed.ok()) {
    const auto* id = parsed->Find("query_id");
    Check(id != nullptr, "query response lacks query_id");
    if (id != nullptr) query_id = *id->AsInt();
  } else {
    Check(false, "query response is not JSON: " + response);
  }

  std::string trace_json;
  Check(HttpGet(http->get(), "/trace/" + std::to_string(query_id), &status,
                &trace_json)
                .ok() &&
            status == 200,
        "/trace/" + std::to_string(query_id) + " -> " +
            std::to_string(status));
  if (status == 200) ValidateStitchedTrace(trace_json, query_id, owners);

  // The profiler fed the stage histograms with exemplars; the exposition
  // must still parse line by line.
  const std::string prometheus = (*engine)->metrics().RenderPrometheus();
  Check(prometheus.find("crowdrtse_stage_wall_ms") != std::string::npos,
        "sharded metrics lack the stage profiler histograms");
  Check(prometheus.find("trace_id=\"" + std::to_string(query_id) + "\"") !=
            std::string::npos,
        "stage histograms carry no exemplar for the profiled query");

  std::string flight;
  Check(HttpGet(http->get(), "/debug/flight", &status, &flight).ok() &&
            status == 200,
        "/debug/flight failed");
  JsonValue flight_root;
  Check(JsonParser(flight).Parse(&flight_root),
        "/debug/flight is not well-formed JSON");
  Check(flight.find("\"shard.split\"") != std::string::npos,
        "flight dump lacks the shard.split event of the cross-shard query");

  frontend.Shutdown();
  (*engine)->Drain();
  std::printf("sharded stitching OK: query %lld across %zu shards\n",
              static_cast<long long>(query_id), owners.size());
  return g_failures;
}

// ---------------------------------------------------------------------------

void WriteArtifact(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  Check(file != nullptr, "cannot write artifact " + path);
  if (file == nullptr) return;
  std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

int Run(const std::string& trace_path, const std::string& prom_path) {
  // A small faulted world: every query traced, every fault path exercised.
  bench::WorldOptions world_options;
  world_options.num_roads = 120;
  world_options.num_days = 6;
  const bench::SemiSyntheticWorld world = bench::BuildWorld(world_options);
  core::CrowdRtseConfig config;
  auto system =
      core::CrowdRtse::BuildOffline(world.network, world.history, config);
  CROWDRTSE_CHECK(system.ok());

  server::WorkerRegistryOptions registry_options;
  registry_options.num_workers = world.network.num_roads() * 3;
  server::WorkerRegistry registry(world.network, registry_options, 5);
  const crowd::CostModel costs =
      crowd::CostModel::Constant(world.network.num_roads(), 2);
  server::BudgetLedger ledger(100'000, /*per_query_cap=*/30);
  crowd::CrowdSimulator crowd_sim({}, util::Rng(9));
  util::SimClock clock;
  server::QueryEngine::Options engine_options;
  engine_options.fault_tolerant_dispatch = true;
  engine_options.clock = &clock;
  crowd::FaultSpec storm;
  storm.drop_rate = 0.3;
  storm.delay_rate = 0.2;
  engine_options.fault_plan = crowd::FaultPlan(storm, /*seed=*/7);
  engine_options.trace_sample_rate = 1.0;
  engine_options.trace_ring_size = 64;
  server::QueryEngine engine(*system, registry, ledger, costs, crowd_sim,
                             engine_options);

  std::vector<int64_t> query_ids;
  for (int slot = 0; slot < traffic::kSlotsPerDay; slot += 48) {
    for (int q = 0; q < 2; ++q) {
      server::QueryRequest request;
      request.slot = slot;
      request.queried =
          bench::MakeQuery(world, 15, 200 + static_cast<uint64_t>(q));
      const auto response = engine.Serve(request, world.truth);
      CROWDRTSE_CHECK(response.ok());
      query_ids.push_back(response->query_id);
      Check(!response->trace_summary.empty(),
            "sampled query has an empty trace summary");
      Check(response->degraded_reasons.size() ==
                response->degraded_roads.size(),
            "degraded_reasons misaligned with degraded_roads");
    }
    registry.AdvanceSlot();
  }

  const server::EngineStats stats = engine.stats();
  Check(stats.queries_served == static_cast<int64_t>(query_ids.size()),
        "not every query was served");
  Check(engine.traces().collected() ==
            static_cast<int64_t>(query_ids.size()),
        "collector missed sampled queries");

  const std::string chrome = engine.traces().ChromeTraceJson();
  const std::string prometheus = engine.metrics().RenderPrometheus();
  WriteArtifact(trace_path, chrome);
  WriteArtifact(prom_path, prometheus);

  ValidateChromeTrace(chrome, query_ids);
  ValidatePrometheus(prometheus, stats, engine.traces().collected());

  RunShardedStitching();

  if (g_failures > 0) {
    std::printf("trace smoke FAILED: %d violations\n", g_failures);
    return 1;
  }
  std::printf("trace smoke OK: %zu queries traced and validated\n",
              query_ids.size());
  return 0;
}

}  // namespace
}  // namespace crowdrtse::tools

int main(int argc, char** argv) {
  const std::string trace_path =
      argc > 1 ? argv[1] : "trace_smoke_trace.json";
  const std::string prom_path =
      argc > 2 ? argv[2] : "trace_smoke_metrics.prom";
  return crowdrtse::tools::Run(trace_path, prom_path);
}
