#include "crowd/dispatch_controller.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <string>
#include <utility>

#include "crowd/aggregation.h"
#include "obs/flight_recorder.h"
#include "util/trace.h"

namespace crowdrtse::crowd {

namespace {

constexpr uint64_t kLatencySalt = 0x1a7eu;
constexpr uint64_t kDupGapSalt = 0xd0b1eu;
constexpr uint64_t kJitterSalt = 0xbad0u;

int64_t MsToUs(double ms) { return static_cast<int64_t>(ms * 1e3); }

struct Task {
  graph::RoadId road = graph::kInvalidRoad;
  size_t spare_pool = 0;     // index of the road's replacement pool
  int attempts_used = 0;     // dispatches so far
  int active_attempt = 0;    // 1-based; deadline events for older ones stale
  const Worker* current_worker = nullptr;  // the active attempt's worker
  bool resolved = false;
  bool answered = false;
  int deadline_failures = 0;
  int outlier_failures = 0;
};

struct Event {
  enum Type { kArrival, kDeadline };
  int64_t at_us = 0;
  int64_t seq = 0;  // deterministic tie-break: insertion order
  Type type = kArrival;
  int task = 0;
  int attempt = 0;
  WorkerId worker = -1;
  double value_kmh = 0.0;
  int64_t attempt_deadline_us = 0;

  bool operator>(const Event& other) const {
    return at_us != other.at_us ? at_us > other.at_us : seq > other.seq;
  }
};

using EventQueue =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

}  // namespace

double DispatchOptions::MaxRoundSpanMs() const {
  double span = deadline_ms * std::max(1, max_attempts);
  for (int k = 1; k < max_attempts; ++k) {
    const double backoff =
        std::min(backoff_cap_ms, backoff_base_ms * std::ldexp(1.0, k - 1));
    span += backoff * (1.0 + backoff_jitter);
  }
  return span;
}

const char* DegradeReasonName(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kUnstaffed:
      return "unstaffed";
    case DegradeReason::kDeadline:
      return "deadline";
    case DegradeReason::kOutlier:
      return "outlier";
    case DegradeReason::kLoadShed:
      return "load_shed";
  }
  return "?";
}

DispatchController::DispatchController(const DispatchOptions& options,
                                       util::Clock* clock)
    : options_(options),
      clock_(clock != nullptr ? clock : &util::WallClock::Get()) {}

util::Result<DispatchRound> DispatchController::Run(
    const AssignmentPlan& plan, const std::vector<Worker>& workers,
    const CostModel& costs, const FaultPlan& faults,
    const AnswerFn& answer) const {
  return Run(plan, WorkerIndex(workers, costs.num_roads()), costs, faults,
             answer);
}

util::Result<DispatchRound> DispatchController::Run(
    const AssignmentPlan& plan, const WorkerIndex& index,
    const CostModel& costs, const FaultPlan& faults,
    const AnswerFn& answer) const {
  if (!answer) {
    return util::Status::InvalidArgument("dispatch needs an answer source");
  }
  if (options_.max_attempts < 1 || options_.deadline_ms <= 0.0) {
    return util::Status::InvalidArgument(
        "dispatch needs max_attempts >= 1 and a positive deadline");
  }
  // The index resolves the plan's worker ids and fills the replacement
  // pools for straggler reassignment: every worker on a selected road who
  // was not hired by the plan, cleanest first (the same order AssignTasks
  // hires in, so a reassignment hires the next-best).
  std::vector<WorkerId> hired;
  hired.reserve(plan.assignments.size());
  for (const TaskAssignment& t : plan.assignments) hired.push_back(t.worker);
  std::vector<graph::RoadId> selected;
  for (const TaskAssignment& t : plan.assignments) selected.push_back(t.road);
  for (graph::RoadId r : plan.underfilled_roads) selected.push_back(r);
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  const RoundWorkers gathered = GatherWorkers(hired, selected, index);
  for (size_t i = 0; i < plan.assignments.size(); ++i) {
    const TaskAssignment& task = plan.assignments[i];
    if (gathered.by_id[i] == nullptr) {
      return util::Status::InvalidArgument(
          "assignment references unknown worker " +
          std::to_string(task.worker));
    }
    if (task.road < 0 || task.road >= costs.num_roads()) {
      return util::Status::InvalidArgument(
          "assigned road missing from cost model: " +
          std::to_string(task.road));
    }
  }
  const std::vector<std::vector<const Worker*>>& spares = gathered.on_road;
  std::vector<size_t> next_spare(selected.size(), 0);  // per spare pool

  DispatchRound out;
  std::vector<Task> tasks;
  tasks.reserve(plan.assignments.size());
  EventQueue queue;
  int64_t next_seq = 0;
  const int64_t t0 = clock_->NowMicros();
  const int64_t deadline_us = MsToUs(options_.deadline_ms);

  // Tracing: attempts live on the round's simulated event timeline, not on
  // the call stack, so they are recorded as complete spans when they close
  // (accepted / deadline / outlier), all children of one pre-allocated
  // "crowd.dispatch" span that is written at the end of the round.
  util::trace::Trace* const tr = util::trace::ActiveTrace();
  const int64_t trace_parent = util::trace::ActiveSpanId();
  const int64_t dispatch_span_id = tr != nullptr ? tr->NextSpanId() : 0;
  struct OpenAttempt {
    int64_t start_us = 0;
    WorkerId worker = -1;
    graph::RoadId road = graph::kInvalidRoad;
    FaultKind fault = FaultKind::kNone;
    bool reassigned = false;
  };
  std::map<std::pair<int, int>, OpenAttempt> open_attempts;
  // Flight-record outcome codes: 0 accepted, 1 deadline, 2 outlier,
  // 3 preempted (distinct first letters; see the close_attempt callers).
  const auto outcome_code = [](const char* outcome) -> int64_t {
    switch (outcome[0]) {
      case 'a':
        return 0;
      case 'd':
        return 1;
      case 'o':
        return 2;
      default:
        return 3;
    }
  };
  const auto close_attempt = [&](int task_index, int attempt, int64_t end_us,
                                 const char* outcome) {
    const auto it = open_attempts.find({task_index, attempt});
    if (it == open_attempts.end()) return;  // already closed (stale event)
    const OpenAttempt& a = it->second;
    obs::RecordEvent(obs::EventKind::kDispatchAttempt, a.road, attempt,
                     outcome_code(outcome));
    if (tr == nullptr) {
      open_attempts.erase(it);
      return;
    }
    std::vector<util::trace::Annotation> notes;
    notes.push_back({"road", std::to_string(a.road)});
    notes.push_back({"worker", std::to_string(a.worker)});
    notes.push_back({"attempt", std::to_string(attempt)});
    notes.push_back({"outcome", outcome});
    if (a.fault != FaultKind::kNone) {
      notes.push_back({"fault", FaultKindName(a.fault)});
    }
    if (a.reassigned) notes.push_back({"reassigned", "true"});
    util::trace::AddCompleteSpan(tr, "crowd.attempt", dispatch_span_id,
                                 a.start_us, end_us, std::move(notes));
    open_attempts.erase(it);
  };

  const auto dispatch = [&](int task_index, const Worker& worker,
                            int attempt, int64_t at_us, bool reassigned) {
    Task& task = tasks[static_cast<size_t>(task_index)];
    task.attempts_used = attempt;
    task.active_attempt = attempt;
    task.current_worker = &worker;

    DispatchAttempt log;
    log.road = task.road;
    log.worker = worker.id;
    log.task = task_index;
    log.attempt = attempt;
    log.dispatched_us = at_us - t0;
    log.reassigned = reassigned;

    const FaultPlan::Outcome fault =
        faults.Decide(worker.id, task.road, attempt);
    log.fault = fault.kind;
    out.attempts.push_back(log);
    // Tracked even when untraced: close_attempt needs the open-attempt
    // entry to flight-record each attempt outcome exactly once.
    open_attempts[{task_index, attempt}] =
        OpenAttempt{at_us, worker.id, task.road, fault.kind, reassigned};

    const uint64_t w = static_cast<uint64_t>(static_cast<int64_t>(worker.id));
    const uint64_t r = static_cast<uint64_t>(static_cast<int64_t>(task.road));
    const uint64_t k = static_cast<uint64_t>(attempt);
    if (fault.kind != FaultKind::kDrop) {
      // The worker really answers: draw her report now (dispatch order is
      // deterministic, so a stateful answer source replays identically).
      const SpeedAnswer report = answer(worker, task.road);
      const double latency_ms =
          fault.kind == FaultKind::kDelay
              ? fault.delay_ms
              : options_.min_response_ms +
                    (options_.max_response_ms - options_.min_response_ms) *
                        DispatchHashUnit(options_.seed, w, r, k,
                                         kLatencySalt);
      Event arrival;
      arrival.at_us = at_us + MsToUs(latency_ms);
      arrival.seq = next_seq++;
      arrival.type = Event::kArrival;
      arrival.task = task_index;
      arrival.attempt = attempt;
      arrival.worker = worker.id;
      arrival.value_kmh = fault.kind == FaultKind::kCorrupt
                              ? fault.corrupt_kmh
                              : report.reported_kmh;
      arrival.attempt_deadline_us = at_us + deadline_us;
      queue.push(arrival);
      if (fault.kind == FaultKind::kDuplicate) {
        Event dup = arrival;
        dup.seq = next_seq++;
        dup.at_us +=
            MsToUs(1.0 + 4.0 * DispatchHashUnit(options_.seed, w, r, k,
                                                kDupGapSalt));
        queue.push(dup);
      }
    }
    Event deadline;
    deadline.at_us = at_us + deadline_us;
    deadline.seq = next_seq++;
    deadline.type = Event::kDeadline;
    deadline.task = task_index;
    deadline.attempt = attempt;
    queue.push(deadline);
  };

  for (const TaskAssignment& assignment : plan.assignments) {
    Task task;
    task.road = assignment.road;
    task.spare_pool = static_cast<size_t>(
        std::lower_bound(selected.begin(), selected.end(), task.road) -
        selected.begin());
    tasks.push_back(task);
  }
  out.stats.tasks = static_cast<int>(tasks.size());
  for (size_t i = 0; i < plan.assignments.size(); ++i) {
    dispatch(static_cast<int>(i), *gathered.by_id[i], /*attempt=*/1, t0,
             /*reassigned=*/false);
  }

  std::map<graph::RoadId, std::vector<SpeedAnswer>> accepted;
  int resolved = 0;
  int64_t last_resolution_us = t0;

  const auto resolve = [&](Task& task, bool with_answer, int64_t at_us) {
    task.resolved = true;
    task.answered = with_answer;
    ++resolved;
    last_resolution_us = std::max(last_resolution_us, at_us);
  };

  // A failed attempt either exhausts the task or schedules the next
  // attempt after the jittered exponential backoff, preferring a spare
  // worker on the same road over the straggler.
  const auto fail_attempt = [&](int task_index, int64_t now_us) {
    Task& task = tasks[static_cast<size_t>(task_index)];
    if (task.attempts_used >= options_.max_attempts) {
      ++out.stats.exhausted;
      resolve(task, /*with_answer=*/false, now_us);
      return;
    }
    const int retry = task.attempts_used;  // 1-based retry index
    double backoff_ms =
        std::min(options_.backoff_cap_ms,
                 options_.backoff_base_ms * std::ldexp(1.0, retry - 1));
    if (options_.backoff_jitter > 0.0) {
      const double u = DispatchHashUnit(
          options_.seed, static_cast<uint64_t>(task_index),
          static_cast<uint64_t>(retry), 0, kJitterSalt);
      backoff_ms *= 1.0 + options_.backoff_jitter * (2.0 * u - 1.0);
    }
    ++out.stats.retries;
    const Worker* next_worker = task.current_worker;
    bool reassigned = false;
    if (options_.reassign_stragglers) {
      const std::vector<const Worker*>& pool = spares[task.spare_pool];
      size_t& cursor = next_spare[task.spare_pool];
      if (cursor < pool.size()) {
        next_worker = pool[cursor++];
        reassigned = true;
        ++out.stats.reassignments;
      }
    }
    dispatch(task_index, *next_worker, task.attempts_used + 1,
             now_us + MsToUs(backoff_ms), reassigned);
  };

  const auto plausible = [&](double kmh) {
    return std::isfinite(kmh) && kmh >= options_.min_plausible_kmh &&
           kmh <= options_.max_plausible_kmh;
  };

  while (resolved < static_cast<int>(tasks.size()) && !queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    clock_->SleepUntilMicros(ev.at_us);
    Task& task = tasks[static_cast<size_t>(ev.task)];
    if (ev.type == Event::kDeadline) {
      if (task.resolved || ev.attempt != task.active_attempt) continue;
      ++out.stats.deadline_misses;
      ++task.deadline_failures;
      close_attempt(ev.task, ev.attempt, ev.at_us, "deadline");
      fail_attempt(ev.task, ev.at_us);
      continue;
    }
    // Arrival.
    if (ev.at_us > ev.attempt_deadline_us) ++out.stats.late_reports;
    if (task.resolved) {
      if (task.answered) ++out.stats.duplicate_reports;
      continue;
    }
    if (!plausible(ev.value_kmh)) {
      ++out.stats.outlier_reports;
      if (ev.attempt == task.active_attempt) {
        ++task.outlier_failures;
        close_attempt(ev.task, ev.attempt, ev.at_us, "outlier");
        fail_attempt(ev.task, ev.at_us);
      }
      continue;
    }
    SpeedAnswer accepted_answer;
    accepted_answer.worker = ev.worker;
    accepted_answer.road = task.road;
    accepted_answer.reported_kmh = ev.value_kmh;
    accepted[task.road].push_back(accepted_answer);
    ++out.stats.answered;
    close_attempt(ev.task, ev.attempt, ev.at_us, "accepted");
    if (ev.attempt != task.active_attempt) {
      // A late report from an earlier attempt answered the task; the
      // in-flight attempt is moot.
      close_attempt(ev.task, task.active_attempt, ev.at_us, "preempted");
    }
    resolve(task, /*with_answer=*/true, ev.at_us);
  }

  // Post-resolution stragglers cost no time (nobody waits for them) but
  // still show up in the counters — they would hit the service logs.
  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    if (ev.type != Event::kArrival) continue;
    if (ev.at_us > ev.attempt_deadline_us) ++out.stats.late_reports;
    if (tasks[static_cast<size_t>(ev.task)].answered) {
      ++out.stats.duplicate_reports;
    }
  }

  out.span_ms = static_cast<double>(last_resolution_us - t0) / 1e3;

  // Attempts still open when the round ended (their task resolved by some
  // other path) close at the last resolution.
  if (tr != nullptr) {
    while (!open_attempts.empty()) {
      const auto [task_index, attempt] = open_attempts.begin()->first;
      close_attempt(task_index, attempt, last_resolution_us, "unresolved");
    }
  }

  util::trace::Span aggregate_span("crowd.aggregate");
  // Per-road verdicts. A selected road is exactly one of: probed (>= 1
  // accepted answer, possibly underfilled) or degraded (zero answers).
  std::map<graph::RoadId, std::pair<int, int>> failures;  // deadline, outlier
  std::map<graph::RoadId, int> staffed;
  for (const Task& task : tasks) {
    failures[task.road].first += task.deadline_failures;
    failures[task.road].second += task.outlier_failures;
    ++staffed[task.road];
  }
  for (graph::RoadId road : selected) {
    const auto it = accepted.find(road);
    const int num_accepted =
        it == accepted.end() ? 0 : static_cast<int>(it->second.size());
    if (num_accepted == 0) {
      out.degraded_roads.push_back(road);
      DegradeReason reason = DegradeReason::kDeadline;
      if (staffed.count(road) == 0) {
        reason = DegradeReason::kUnstaffed;
      } else if (failures[road].second > failures[road].first) {
        reason = DegradeReason::kOutlier;
      }
      out.degraded_reasons.push_back(reason);
      continue;
    }
    // Accepted answers were paid in good faith; the statistical filter only
    // keeps them out of the aggregate, not out of the books.
    const std::vector<SpeedAnswer> kept =
        FilterReports(it->second, options_.mad_sigmas);
    out.stats.outlier_reports +=
        num_accepted - static_cast<int>(kept.size());
    util::Result<double> aggregated =
        AggregateAnswers(kept, options_.aggregation);
    if (!aggregated.ok()) return aggregated.status();
    ProbeResult probe;
    probe.road = road;
    probe.probed_kmh = *aggregated;
    probe.num_answers = static_cast<int>(kept.size());
    probe.paid_units = num_accepted;  // only accepted reports are paid
    out.round.total_paid += probe.paid_units;
    out.round.probes.push_back(probe);
    for (const SpeedAnswer& a : kept) {
      out.round.raw_answers.push_back(a);
    }
    const int quota = std::max(1, costs.Cost(road));
    if (num_accepted < quota) out.underfilled_roads.push_back(road);
  }
  aggregate_span.Annotate("probes",
                          static_cast<int64_t>(out.round.probes.size()));
  aggregate_span.Annotate("degraded",
                          static_cast<int64_t>(out.degraded_roads.size()));
  aggregate_span.End();

  // The parent dispatch span covers dispatch to last resolution and carries
  // the per-road degrade verdicts — the same reason codes the response
  // returns, so traces and responses can be checked against each other.
  if (tr != nullptr) {
    std::vector<util::trace::Annotation> notes;
    notes.push_back({"tasks", std::to_string(out.stats.tasks)});
    notes.push_back({"answered", std::to_string(out.stats.answered)});
    notes.push_back({"retries", std::to_string(out.stats.retries)});
    notes.push_back(
        {"deadline_misses", std::to_string(out.stats.deadline_misses)});
    if (!out.degraded_roads.empty()) {
      std::string verdicts;
      for (size_t i = 0; i < out.degraded_roads.size(); ++i) {
        if (i > 0) verdicts += ",";
        verdicts += std::to_string(out.degraded_roads[i]);
        verdicts += ":";
        verdicts += DegradeReasonName(out.degraded_reasons[i]);
      }
      notes.push_back({"degraded", std::move(verdicts)});
    }
    util::trace::SpanRecord record;
    record.id = dispatch_span_id;
    record.parent = trace_parent;
    record.name = "crowd.dispatch";
    record.start_us = t0;
    record.end_us = last_resolution_us;
    record.annotations = std::move(notes);
    tr->Record(std::move(record));
  }
  return out;
}

}  // namespace crowdrtse::crowd
