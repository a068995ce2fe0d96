#include "scenario/pack.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "util/string_util.h"

namespace crowdrtse::scenario {

namespace {

std::vector<std::string> SplitWhitespace(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (c == ' ' || c == '\t') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

util::Result<bool> ParseBool(const std::string& text) {
  if (text == "true" || text == "on" || text == "1") return true;
  if (text == "false" || text == "off" || text == "0") return false;
  return util::Status::InvalidArgument("expected a boolean, got '" + text +
                                       "'");
}

util::Status ParseError(int line, const std::string& message) {
  return util::Status::InvalidArgument("pack line " + std::to_string(line) +
                                       ": " + message);
}

/// Splits "key=value" (first '='). Returns false when no '=' is present.
bool SplitKeyValue(const std::string& token, std::string& key,
                   std::string& value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  key = util::Trim(token.substr(0, eq));
  value = util::Trim(token.substr(eq + 1));
  return !key.empty();
}

util::Result<RoadsSpec> ParseRoadsSpec(const std::string& text) {
  RoadsSpec spec;
  if (text == "all") {
    spec.kind = RoadsSpec::Kind::kAll;
    return spec;
  }
  if (util::StartsWith(text, "list:")) {
    spec.kind = RoadsSpec::Kind::kList;
    for (const std::string& piece : util::Split(text.substr(5), ',')) {
      const std::string name = util::Trim(piece);
      if (!name.empty()) spec.names.push_back(name);
    }
    if (spec.names.empty()) {
      return util::Status::InvalidArgument("empty road list");
    }
    return spec;
  }
  if (util::StartsWith(text, "district:")) {
    spec.kind = RoadsSpec::Kind::kDistrict;
    const std::vector<std::string> parts = util::Split(text, ':');
    if (parts.size() != 3) {
      return util::Status::InvalidArgument(
          "district spec must be district:<center>:<hops>");
    }
    spec.center = util::Trim(parts[1]);
    auto hops = util::ParseInt(util::Trim(parts[2]));
    if (!hops.ok() || *hops < 0) {
      return util::Status::InvalidArgument("bad district hop count");
    }
    spec.hops = *hops;
    if (spec.center.empty()) {
      return util::Status::InvalidArgument("district needs a center road");
    }
    return spec;
  }
  return util::Status::InvalidArgument(
      "roads must be 'all', 'list:A,B,...', or 'district:<center>:<hops>'");
}

util::Result<Event::Kind> ParseEventKind(const std::string& text) {
  if (text == "phase") return Event::Kind::kPhase;
  if (text == "storm") return Event::Kind::kStorm;
  if (text == "incident") return Event::Kind::kIncident;
  if (text == "drift") return Event::Kind::kDrift;
  if (text == "workers") return Event::Kind::kWorkers;
  if (text == "faults") return Event::Kind::kFaults;
  if (text == "liars") return Event::Kind::kLiars;
  return util::Status::InvalidArgument("unknown event kind '" + text + "'");
}

util::Status ApplyEventKey(Event& event, const std::string& key,
                           const std::string& value) {
  auto as_int = [&]() { return util::ParseInt(value); };
  auto as_double = [&]() { return util::ParseDouble(value); };
  switch (event.kind) {
    case Event::Kind::kPhase:
      if (key == "name") {
        event.name = value;
        return util::Status::Ok();
      }
      break;
    case Event::Kind::kStorm:
      if (key == "queries") {
        auto v = as_int();
        if (!v.ok() || *v <= 0) break;
        event.queries = *v;
        return util::Status::Ok();
      }
      if (key == "rate") {
        auto v = as_double();
        if (!v.ok() || *v <= 0.0) break;
        event.rate = *v;
        return util::Status::Ok();
      }
      if (key == "size") {
        auto v = as_int();
        if (!v.ok() || *v <= 0) break;
        event.size = *v;
        return util::Status::Ok();
      }
      if (key == "budget") {
        auto v = as_int();
        if (!v.ok() || *v < 0) break;
        event.budget = *v;
        return util::Status::Ok();
      }
      if (key == "roads") {
        auto spec = ParseRoadsSpec(value);
        if (!spec.ok()) return spec.status();
        event.roads = *spec;
        return util::Status::Ok();
      }
      break;
    case Event::Kind::kIncident:
      if (key == "road") {
        event.road = value;
        return util::Status::Ok();
      }
      if (key == "drop") {
        auto v = as_double();
        if (!v.ok() || *v <= 0.0 || *v >= 1.0) break;
        event.drop = *v;
        return util::Status::Ok();
      }
      if (key == "duration") {
        auto v = as_int();
        if (!v.ok() || *v <= 0) break;
        event.duration = *v;
        return util::Status::Ok();
      }
      if (key == "spillover") {
        auto v = as_int();
        if (!v.ok() || *v < 0) break;
        event.spillover = *v;
        return util::Status::Ok();
      }
      break;
    case Event::Kind::kDrift:
      if (key == "p") {
        auto v = as_double();
        if (!v.ok() || *v < 0.0 || *v > 1.0) break;
        event.probability = *v;
        return util::Status::Ok();
      }
      break;
    case Event::Kind::kWorkers:
      if (key == "leave") {
        auto v = as_double();
        if (!v.ok() || *v < 0.0 || *v > 1.0) break;
        event.leave = *v;
        return util::Status::Ok();
      }
      if (key == "add") {
        auto v = as_int();
        if (!v.ok() || *v < 0) break;
        event.add = *v;
        return util::Status::Ok();
      }
      if (key == "roads") {
        auto spec = ParseRoadsSpec(value);
        if (!spec.ok()) return spec.status();
        event.roads = *spec;
        return util::Status::Ok();
      }
      break;
    case Event::Kind::kFaults: {
      if (key == "clear") {
        auto v = ParseBool(value);
        if (!v.ok()) return v.status();
        event.clear = *v;
        return util::Status::Ok();
      }
      if (key == "roads") {
        auto spec = ParseRoadsSpec(value);
        if (!spec.ok()) return spec.status();
        event.roads = *spec;
        return util::Status::Ok();
      }
      double* rate = nullptr;
      if (key == "drop") rate = &event.fault.drop_rate;
      if (key == "delay") rate = &event.fault.delay_rate;
      if (key == "duplicate") rate = &event.fault.duplicate_rate;
      if (key == "corrupt") rate = &event.fault.corrupt_rate;
      if (rate != nullptr) {
        auto v = as_double();
        if (!v.ok() || *v < 0.0 || *v > 1.0) break;
        *rate = *v;
        return util::Status::Ok();
      }
      double* field = nullptr;
      if (key == "delay_min_ms") field = &event.fault.delay_min_ms;
      if (key == "delay_max_ms") field = &event.fault.delay_max_ms;
      if (key == "corrupt_min") field = &event.fault.corrupt_min_kmh;
      if (key == "corrupt_max") field = &event.fault.corrupt_max_kmh;
      if (field != nullptr) {
        auto v = as_double();
        if (!v.ok() || *v < 0.0) break;
        *field = *v;
        return util::Status::Ok();
      }
      break;
    }
    case Event::Kind::kLiars:
      if (key == "road") {
        event.road = value;
        return util::Status::Ok();
      }
      if (key == "cohort") {
        auto v = as_int();
        if (!v.ok() || *v <= 0) break;
        event.cohort = *v;
        return util::Status::Ok();
      }
      if (key == "value") {
        auto v = as_double();
        if (!v.ok() || *v <= 0.0) break;
        event.value = *v;
        return util::Status::Ok();
      }
      break;
  }
  return util::Status::InvalidArgument("bad event key '" + key + "=" + value +
                                       "'");
}

util::Status ApplyScenarioKey(Pack& pack, const std::string& key,
                              const std::string& value) {
  if (key == "name") {
    pack.name = value;
    return util::Status::Ok();
  }
  if (key == "description") {
    pack.description = value;
    return util::Status::Ok();
  }
  if (key == "seed") {
    auto v = util::ParseInt(value);
    if (!v.ok() || *v < 0) {
      return util::Status::InvalidArgument("bad seed");
    }
    pack.seed = static_cast<uint64_t>(*v);
    return util::Status::Ok();
  }
  if (key == "slots_per_day") {
    auto v = util::ParseInt(value);
    if (!v.ok()) return v.status();
    pack.world.slots_per_day = *v;
    return util::Status::Ok();
  }
  if (key == "history_days") {
    auto v = util::ParseInt(value);
    if (!v.ok()) return v.status();
    pack.world.history_days = *v;
    return util::Status::Ok();
  }
  return util::Status::InvalidArgument("unknown [scenario] key '" + key + "'");
}

util::Status ApplyGeneratorKey(Pack& pack, const std::string& key,
                               const std::string& value) {
  if (key == "kind") {
    if (value != "grid" && value != "metro") {
      return util::Status::InvalidArgument(
          "generator kind must be 'grid' or 'metro'");
    }
    pack.generator.kind = value;
    return util::Status::Ok();
  }
  auto v = util::ParseInt(value);
  if (!v.ok() || *v <= 0) {
    return util::Status::InvalidArgument("bad [generator] value for '" + key +
                                         "'");
  }
  if (key == "rows") {
    pack.generator.rows = *v;
    return util::Status::Ok();
  }
  if (key == "cols") {
    pack.generator.cols = *v;
    return util::Status::Ok();
  }
  if (key == "roads") {
    pack.generator.roads = *v;
    return util::Status::Ok();
  }
  return util::Status::InvalidArgument("unknown [generator] key '" + key +
                                       "'");
}

util::Status ApplyWorldKey(Pack& pack, const std::string& key,
                           const std::string& value) {
  auto v = util::ParseDouble(value);
  if (!v.ok()) return v.status();
  if (key == "temporal_persistence") {
    pack.world.temporal_persistence = *v;
    return util::Status::Ok();
  }
  if (key == "spatial_mix") {
    pack.world.spatial_mix = *v;
    return util::Status::Ok();
  }
  if (key == "min_speed") {
    pack.world.min_speed = *v;
    return util::Status::Ok();
  }
  return util::Status::InvalidArgument("unknown [world] key '" + key + "'");
}

util::Status ApplyWorkersKey(Pack& pack, const std::string& key,
                             const std::string& value) {
  if (key == "per_road") {
    auto v = util::ParseInt(value);
    if (!v.ok() || *v <= 0) {
      return util::Status::InvalidArgument("per_road must be positive");
    }
    pack.workers_per_road = *v;
    return util::Status::Ok();
  }
  if (key == "noiseless") {
    auto v = ParseBool(value);
    if (!v.ok()) return v.status();
    pack.noiseless = *v;
    return util::Status::Ok();
  }
  auto v = util::ParseDouble(value);
  if (!v.ok()) return v.status();
  if (key == "min_bias") {
    pack.min_bias = *v;
    return util::Status::Ok();
  }
  if (key == "max_bias") {
    pack.max_bias = *v;
    return util::Status::Ok();
  }
  if (key == "min_noise") {
    pack.min_noise_kmh = *v;
    return util::Status::Ok();
  }
  if (key == "max_noise") {
    pack.max_noise_kmh = *v;
    return util::Status::Ok();
  }
  return util::Status::InvalidArgument("unknown [workers] key '" + key + "'");
}

util::Status ApplyEngineKey(Pack& pack, const std::string& key,
                            const std::string& value) {
  if (key == "fault_tolerant" || key == "prune_zero_gain" ||
      key == "shed_when_dry") {
    auto v = ParseBool(value);
    if (!v.ok()) return v.status();
    if (key == "fault_tolerant") pack.fault_tolerant = *v;
    if (key == "prune_zero_gain") pack.prune_zero_gain = *v;
    if (key == "shed_when_dry") pack.shed_when_dry = *v;
    return util::Status::Ok();
  }
  if (key == "theta" || key == "mad_sigmas" || key == "deadline_ms") {
    auto v = util::ParseDouble(value);
    if (!v.ok() || *v <= 0.0) {
      return util::Status::InvalidArgument("'" + key + "' must be positive");
    }
    if (key == "theta") pack.theta = *v;
    if (key == "mad_sigmas") pack.mad_sigmas = *v;
    if (key == "deadline_ms") pack.deadline_ms = *v;
    return util::Status::Ok();
  }
  if (key == "campaign_budget") {  // < 0 = unlimited, so any value goes
    auto v = util::ParseInt(value);
    if (!v.ok()) return v.status();
    pack.campaign_budget = *v;
    return util::Status::Ok();
  }
  // The integer knobs with a lower bound. The pack is outside input, so an
  // out-of-range value fails here, naming its key, instead of later at
  // offline build, dispatch or serve time (or being silently clamped).
  struct BoundedKey {
    const char* name;
    int* field;
    int min;
  };
  const BoundedKey bounded[] = {
      {"per_query_cap", &pack.per_query_cap, 0},
      {"cost_per_road", &pack.cost_per_road, 1},
      {"hop_radius", &pack.hop_radius, 0},
      {"gsp_hop_limit", &pack.gsp_hop_limit, 0},
      {"max_attempts", &pack.max_attempts, 1},
  };
  for (const BoundedKey& bound : bounded) {
    if (key != bound.name) continue;
    auto v = util::ParseInt(value);
    if (!v.ok() || *v < bound.min) {
      return util::Status::InvalidArgument(
          "'" + key + "' must be an integer >= " + std::to_string(bound.min));
    }
    *bound.field = *v;
    return util::Status::Ok();
  }
  return util::Status::InvalidArgument("unknown [engine] key '" + key + "'");
}

util::Status ApplyShardingKey(Pack& pack, const std::string& key,
                              const std::string& value) {
  auto v = util::ParseInt(value);
  if (!v.ok() || *v < 0) {
    return util::Status::InvalidArgument("bad [sharding] value for '" + key +
                                         "'");
  }
  if (key == "shards") {
    if (*v < 1) {
      return util::Status::InvalidArgument("shards must be >= 1");
    }
    pack.shards = *v;
    return util::Status::Ok();
  }
  if (key == "halo") {
    pack.halo = *v;
    return util::Status::Ok();
  }
  return util::Status::InvalidArgument("unknown [sharding] key '" + key + "'");
}

util::Status ApplyEnvelopeKey(EnvelopeSpec& envelope, const std::string& key,
                              const std::string& value) {
  if (key == "zero_silent_drops" || key == "reservations_settled" ||
      key == "span_bounded") {
    auto v = ParseBool(value);
    if (!v.ok()) return v.status();
    if (key == "zero_silent_drops") envelope.zero_silent_drops = *v;
    if (key == "reservations_settled") envelope.reservations_settled = *v;
    if (key == "span_bounded") envelope.span_bounded = *v;
    return util::Status::Ok();
  }
  if (key == "max_mape" || key == "max_degraded_fraction" ||
      key == "min_degraded_fraction" || key == "max_underfilled_fraction") {
    auto v = util::ParseDouble(value);
    if (!v.ok() || *v < 0.0) {
      return util::Status::InvalidArgument("'" + key + "' must be >= 0");
    }
    if (key == "max_mape") envelope.max_mape = *v;
    if (key == "max_degraded_fraction") envelope.max_degraded_fraction = *v;
    if (key == "min_degraded_fraction") envelope.min_degraded_fraction = *v;
    if (key == "max_underfilled_fraction") {
      envelope.max_underfilled_fraction = *v;
    }
    return util::Status::Ok();
  }
  auto v = util::ParseInt(value);
  if (!v.ok() || *v < 0) {
    return util::Status::InvalidArgument("'" + key + "' must be >= 0");
  }
  if (key == "min_served") {
    envelope.min_served = *v;
    return util::Status::Ok();
  }
  if (key == "max_failed") {
    envelope.max_failed = *v;
    return util::Status::Ok();
  }
  if (key == "max_rejected") {
    envelope.max_rejected = *v;
    return util::Status::Ok();
  }
  if (key == "min_rejected") {
    envelope.min_rejected = *v;
    return util::Status::Ok();
  }
  if (key == "max_shed") {
    envelope.max_shed = *v;
    return util::Status::Ok();
  }
  if (key == "min_shed") {
    envelope.min_shed = *v;
    return util::Status::Ok();
  }
  if (key == "min_outlier_reports") {
    envelope.min_outlier_reports = *v;
    return util::Status::Ok();
  }
  if (key == "max_paid") {
    envelope.max_paid = *v;
    return util::Status::Ok();
  }
  if (key == "min_paid") {
    envelope.min_paid = *v;
    return util::Status::Ok();
  }
  return util::Status::InvalidArgument("unknown envelope key '" + key + "'");
}

util::Status ValidatePack(const Pack& pack) {
  const bool has_sketch = !pack.sketch.empty();
  const bool has_generator = !pack.generator.kind.empty();
  if (has_sketch == has_generator) {
    return util::Status::InvalidArgument(
        "a pack needs exactly one of [map] or [generator]");
  }
  if (pack.name.empty()) {
    return util::Status::InvalidArgument("[scenario] name is required");
  }
  int prev_at = 0;
  std::set<std::string> phases;
  for (const Event& event : pack.timeline) {
    if (event.at < 0 || event.at >= pack.world.slots_per_day) {
      return util::Status::OutOfRange(
          "event at=" + std::to_string(event.at) +
          " falls outside the scenario day (slots_per_day=" +
          std::to_string(pack.world.slots_per_day) + ")");
    }
    if (event.at < prev_at) {
      return util::Status::InvalidArgument(
          "timeline events must be non-decreasing in 'at'");
    }
    prev_at = event.at;
    switch (event.kind) {
      case Event::Kind::kPhase:
        if (event.name.empty()) {
          return util::Status::InvalidArgument("phase events need name=");
        }
        if (!phases.insert(event.name).second) {
          return util::Status::InvalidArgument("duplicate phase '" +
                                               event.name + "'");
        }
        break;
      case Event::Kind::kStorm:
        if (event.queries <= 0 && event.rate <= 0.0) {
          return util::Status::InvalidArgument(
              "storm events need queries= or rate=");
        }
        break;
      case Event::Kind::kIncident:
      case Event::Kind::kLiars:
        if (event.road.empty()) {
          return util::Status::InvalidArgument("event needs road=");
        }
        if (event.kind == Event::Kind::kLiars && event.cohort <= 0) {
          return util::Status::InvalidArgument("liars events need cohort=");
        }
        break;
      case Event::Kind::kWorkers:
        if (event.leave <= 0.0 && event.add <= 0) {
          return util::Status::InvalidArgument(
              "workers events need leave= or add=");
        }
        break;
      case Event::Kind::kDrift:
      case Event::Kind::kFaults:
        break;
    }
  }
  std::set<std::string> envelope_phases;
  for (const EnvelopeSpec& envelope : pack.envelopes) {
    if (!envelope_phases.insert(envelope.phase).second) {
      return util::Status::InvalidArgument(
          "duplicate envelope block for phase '" + envelope.phase + "'");
    }
    if (!envelope.phase.empty() && phases.count(envelope.phase) == 0) {
      return util::Status::InvalidArgument("[envelope:" + envelope.phase +
                                           "] names no timeline phase");
    }
  }
  return util::Status::Ok();
}

}  // namespace

int Pack::LastEventSlot() const {
  int last = 0;
  for (const Event& event : timeline) last = std::max(last, event.at);
  return last;
}

const EnvelopeSpec* Pack::EnvelopeFor(const std::string& phase) const {
  for (const EnvelopeSpec& envelope : envelopes) {
    if (envelope.phase == phase) return &envelope;
  }
  return nullptr;
}

util::Result<Pack> ParsePack(const std::string& text) {
  Pack pack;
  enum class Section {
    kNone,
    kScenario,
    kMap,
    kTags,
    kGenerator,
    kWorld,
    kWorkers,
    kEngine,
    kSharding,
    kTimeline,
    kEnvelope,
  };
  Section section = Section::kNone;
  EnvelopeSpec* envelope = nullptr;
  std::vector<std::string> map_lines;

  std::istringstream stream(text);
  std::string raw;
  int line_number = 0;
  while (std::getline(stream, raw)) {
    ++line_number;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    const std::string trimmed = util::Trim(raw);
    const bool is_header = !trimmed.empty() && trimmed.front() == '[';
    if (section == Section::kMap && !is_header) {
      // Sketch lines are taken verbatim: leading spaces are geometry.
      map_lines.push_back(raw);
      continue;
    }
    if (trimmed.empty() || trimmed.front() == '#') continue;
    if (is_header) {
      if (trimmed.back() != ']') {
        return ParseError(line_number, "unterminated section header");
      }
      const std::string header = trimmed.substr(1, trimmed.size() - 2);
      envelope = nullptr;
      if (header == "scenario") {
        section = Section::kScenario;
      } else if (header == "map") {
        section = Section::kMap;
      } else if (header == "tags") {
        section = Section::kTags;
      } else if (header == "generator") {
        section = Section::kGenerator;
      } else if (header == "world") {
        section = Section::kWorld;
      } else if (header == "workers") {
        section = Section::kWorkers;
      } else if (header == "engine") {
        section = Section::kEngine;
      } else if (header == "sharding") {
        section = Section::kSharding;
      } else if (header == "timeline") {
        section = Section::kTimeline;
      } else if (header == "envelope" ||
                 util::StartsWith(header, "envelope:")) {
        section = Section::kEnvelope;
        EnvelopeSpec spec;
        if (header != "envelope") spec.phase = util::Trim(header.substr(9));
        pack.envelopes.push_back(spec);
        envelope = &pack.envelopes.back();
      } else {
        return ParseError(line_number, "unknown section [" + header + "]");
      }
      continue;
    }
    switch (section) {
      case Section::kNone:
        return ParseError(line_number, "content before the first section");
      case Section::kMap:
        break;  // unreachable: handled above
      case Section::kTags: {
        const size_t colon = trimmed.find(':');
        if (colon == std::string::npos) {
          return ParseError(line_number,
                            "tag lines are '<selector>: k=v k=v'");
        }
        TagLine tag;
        tag.selector = util::Trim(trimmed.substr(0, colon));
        if (tag.selector.empty()) {
          return ParseError(line_number, "empty tag selector");
        }
        for (const std::string& token :
             SplitWhitespace(trimmed.substr(colon + 1))) {
          std::string key, value;
          if (!SplitKeyValue(token, key, value)) {
            return ParseError(line_number, "bad tag token '" + token + "'");
          }
          tag.tags[key] = value;
        }
        if (tag.tags.empty()) {
          return ParseError(line_number, "tag line sets nothing");
        }
        pack.tags.push_back(std::move(tag));
        break;
      }
      case Section::kTimeline: {
        const std::vector<std::string> tokens = SplitWhitespace(trimmed);
        std::string key, value;
        if (tokens.size() < 2 || !SplitKeyValue(tokens[0], key, value) ||
            key != "at") {
          return ParseError(line_number,
                            "timeline lines are 'at=<slot> <kind> k=v ...'");
        }
        Event event;
        auto at = util::ParseInt(value);
        if (!at.ok()) return ParseError(line_number, "bad at= slot");
        event.at = *at;
        auto kind = ParseEventKind(tokens[1]);
        if (!kind.ok()) return ParseError(line_number, kind.status().message());
        event.kind = *kind;
        for (size_t i = 2; i < tokens.size(); ++i) {
          if (!SplitKeyValue(tokens[i], key, value)) {
            return ParseError(line_number,
                              "bad event token '" + tokens[i] + "'");
          }
          if (auto s = ApplyEventKey(event, key, value); !s.ok()) {
            return ParseError(line_number, s.message());
          }
        }
        pack.timeline.push_back(std::move(event));
        break;
      }
      default: {
        std::string key, value;
        if (!SplitKeyValue(trimmed, key, value)) {
          return ParseError(line_number, "expected key=value");
        }
        util::Status status = util::Status::Ok();
        switch (section) {
          case Section::kScenario:
            status = ApplyScenarioKey(pack, key, value);
            break;
          case Section::kGenerator:
            status = ApplyGeneratorKey(pack, key, value);
            break;
          case Section::kWorld:
            status = ApplyWorldKey(pack, key, value);
            break;
          case Section::kWorkers:
            status = ApplyWorkersKey(pack, key, value);
            break;
          case Section::kEngine:
            status = ApplyEngineKey(pack, key, value);
            break;
          case Section::kSharding:
            status = ApplyShardingKey(pack, key, value);
            break;
          case Section::kEnvelope:
            status = ApplyEnvelopeKey(*envelope, key, value);
            break;
          default:
            status = util::Status::InvalidArgument("unreachable");
        }
        if (!status.ok()) return ParseError(line_number, status.message());
        break;
      }
    }
  }

  // Drop trailing blank sketch lines, keep interior ones (geometry).
  while (!map_lines.empty() && util::Trim(map_lines.back()).empty()) {
    map_lines.pop_back();
  }
  pack.sketch = util::Join(map_lines, "\n");

  if (auto s = ValidatePack(pack); !s.ok()) return s;
  if (auto s = ValidateWorldOptions(pack.world); !s.ok()) return s;
  return pack;
}

util::Result<Pack> LoadPackFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return util::Status::IoError("cannot open pack file '" + path + "'");
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return ParsePack(contents.str());
}

util::Result<MapFixture> BuildFixture(const Pack& pack) {
  if (!pack.sketch.empty()) {
    return CompileAsciiMap(pack.sketch, pack.tags);
  }
  MapFixture fixture;
  if (pack.generator.kind == "grid") {
    auto graph = graph::GridNetwork(pack.generator.rows, pack.generator.cols);
    if (!graph.ok()) return graph.status();
    fixture.graph = std::move(*graph);
    fixture.positions.reserve(
        static_cast<size_t>(pack.generator.rows * pack.generator.cols));
    for (int row = 0; row < pack.generator.rows; ++row) {
      for (int col = 0; col < pack.generator.cols; ++col) {
        fixture.positions.emplace_back(
            (col + 0.5) / pack.generator.cols,
            (row + 0.5) / pack.generator.rows);
      }
    }
  } else if (pack.generator.kind == "metro") {
    graph::MetroNetworkOptions options;
    options.num_roads = pack.generator.roads;
    auto graph = graph::MetroNetwork(options, &fixture.positions);
    if (!graph.ok()) return graph.status();
    fixture.graph = std::move(*graph);
  } else {
    return util::Status::InvalidArgument("pack has no map source");
  }
  const int num_roads = fixture.graph.num_roads();
  fixture.profiles.assign(static_cast<size_t>(num_roads), RoadProfile{});
  fixture.names.reserve(static_cast<size_t>(num_roads));
  std::vector<double> lengths(static_cast<size_t>(num_roads));
  for (int r = 0; r < num_roads; ++r) {
    fixture.names.push_back(std::to_string(r));
    lengths[static_cast<size_t>(r)] =
        fixture.profiles[static_cast<size_t>(r)].length_km;
  }
  auto geometry = graph::RoadGeometry::FromLengths(std::move(lengths));
  if (!geometry.ok()) return geometry.status();
  fixture.lengths = std::move(*geometry);
  return fixture;
}

util::Result<std::vector<graph::RoadId>> ResolveRoads(
    const RoadsSpec& spec, const MapFixture& fixture) {
  std::vector<graph::RoadId> roads;
  switch (spec.kind) {
    case RoadsSpec::Kind::kAll:
      roads.resize(static_cast<size_t>(fixture.graph.num_roads()));
      for (int r = 0; r < fixture.graph.num_roads(); ++r) roads[r] = r;
      return roads;
    case RoadsSpec::Kind::kList:
      for (const std::string& name : spec.names) {
        const graph::RoadId road = fixture.RoadByName(name);
        if (road < 0) {
          return util::Status::NotFound("no road named '" + name + "'");
        }
        roads.push_back(road);
      }
      break;
    case RoadsSpec::Kind::kDistrict: {
      const graph::RoadId center = fixture.RoadByName(spec.center);
      if (center < 0) {
        return util::Status::NotFound("no road named '" + spec.center + "'");
      }
      roads = graph::RoadsWithinHops(fixture.graph, {center}, spec.hops);
      break;
    }
  }
  std::sort(roads.begin(), roads.end());
  roads.erase(std::unique(roads.begin(), roads.end()), roads.end());
  if (roads.empty()) {
    return util::Status::InvalidArgument("road spec resolves to no roads");
  }
  return roads;
}

}  // namespace crowdrtse::scenario
