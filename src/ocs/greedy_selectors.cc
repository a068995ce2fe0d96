#include "ocs/greedy_selectors.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <queue>

#include "util/trace.h"

namespace crowdrtse::ocs {

namespace {

/// Shared greedy skeleton: each round scores every still-feasible candidate
/// with `score(gain, cost)` and commits the argmax, until nothing fits the
/// remaining budget / redundancy constraints.
template <typename ScoreFn>
OcsSolution RunGreedy(const OcsProblem& problem, ScoreFn score) {
  IncrementalObjective objective(problem);
  const std::vector<graph::RoadId>& pool = problem.candidate_roads();
  std::vector<bool> selected(pool.size(), false);
  int budget_left = problem.budget();

  for (;;) {
    double best_score = -1.0;
    size_t best_index = pool.size();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (selected[i]) continue;
      const graph::RoadId candidate = pool[i];
      const int cost = problem.costs().Cost(candidate);
      if (cost > budget_left) continue;
      if (!objective.RedundancyOk(i)) continue;
      const double candidate_score = score(objective.Gain(i), cost);
      if (candidate_score > best_score) {
        best_score = candidate_score;
        best_index = i;
      }
    }
    if (best_index == pool.size()) break;  // feasible set exhausted
    selected[best_index] = true;
    budget_left -= problem.costs().Cost(pool[best_index]);
    objective.Add(best_index);
  }

  OcsSolution solution;
  solution.roads = objective.selection();
  solution.objective = objective.objective();
  solution.total_cost = objective.total_cost();
  return solution;
}

/// Lazy greedy skeleton. Invariants that make laziness sound here:
///  * gains are diminishing (submodular objective), so a stale gain is an
///    upper bound and the heap top with a fresh gain is the true argmax;
///  * the remaining budget only shrinks and the redundancy constraint only
///    tightens, so a candidate found infeasible can be discarded for good.
///    Once the budget left is below the cheapest candidate's cost, every
///    remaining entry would be discarded, so the loop stops there.
template <typename ScoreFn>
OcsSolution RunLazyGreedy(const OcsProblem& problem, ScoreFn score) {
  IncrementalObjective objective(problem);
  const std::vector<graph::RoadId>& candidates = problem.candidate_roads();
  int budget_left = problem.budget();

  struct Entry {
    double score;
    size_t candidate;  // index into problem.candidate_roads()
    size_t stamp;      // selection count the score was computed at
    bool operator<(const Entry& other) const {
      return score < other.score;  // max-heap
    }
  };
  std::priority_queue<Entry> heap;
  int min_cost = std::numeric_limits<int>::max();
  for (size_t k = 0; k < candidates.size(); ++k) {
    const int cost = problem.costs().Cost(candidates[k]);
    min_cost = std::min(min_cost, cost);
    heap.push({score(objective.Gain(k), cost), k, 0});
  }

  size_t selections = 0;
  while (!heap.empty() && budget_left >= min_cost) {
    const Entry top = heap.top();
    heap.pop();
    const graph::RoadId road = candidates[top.candidate];
    const int cost = problem.costs().Cost(road);
    if (cost > budget_left) continue;  // permanently infeasible
    if (!objective.RedundancyOk(top.candidate)) continue;
    if (top.stamp != selections) {
      // Stale: re-score against the current selection and requeue.
      heap.push({score(objective.Gain(top.candidate), cost), top.candidate,
                 selections});
      continue;
    }
    objective.Add(top.candidate);
    budget_left -= cost;
    ++selections;
  }

  OcsSolution solution;
  solution.roads = objective.selection();
  solution.objective = objective.objective();
  solution.total_cost = objective.total_cost();
  return solution;
}

/// True when every candidate costs the same power of two c. Dividing a
/// gain by c then only shifts its exponent, so the ratio pass compares the
/// objective pass's numbers scaled by one exact factor: both passes make
/// the same choices in the same order, and Alg. 4's tie rule keeps the
/// ratio pass. (Gains would have to be below 2^-1022 * c, subnormal after
/// the division, for the scaling to round.)
bool UniformPowerOfTwoCost(const OcsProblem& problem) {
  const std::vector<graph::RoadId>& candidates = problem.candidate_roads();
  if (candidates.empty()) return true;
  const int cost = problem.costs().Cost(candidates.front());
  if (cost <= 0 || !std::has_single_bit(static_cast<unsigned>(cost))) {
    return false;
  }
  return std::all_of(candidates.begin(), candidates.end(),
                     [&](graph::RoadId r) {
                       return problem.costs().Cost(r) == cost;
                     });
}

/// Stamps a finished selector run onto its span (no-op untraced).
OcsSolution Annotated(util::trace::Span& span, OcsSolution solution) {
  if (span.active()) {
    span.Annotate("selected", static_cast<int64_t>(solution.roads.size()));
    span.Annotate("objective", solution.objective);
    span.Annotate("cost", static_cast<int64_t>(solution.total_cost));
  }
  return solution;
}

}  // namespace

OcsSolution RatioGreedy(const OcsProblem& problem) {
  util::trace::Span span("ocs.ratio_greedy");
  return Annotated(span, RunGreedy(problem, [](double gain, int cost) {
                     return gain / static_cast<double>(cost);
                   }));
}

OcsSolution ObjectiveGreedy(const OcsProblem& problem) {
  util::trace::Span span("ocs.objective_greedy");
  return Annotated(span,
                   RunGreedy(problem,
                             [](double gain, int /*cost*/) { return gain; }));
}

OcsSolution HybridGreedy(const OcsProblem& problem) {
  OcsSolution ratio = RatioGreedy(problem);
  if (UniformPowerOfTwoCost(problem)) return ratio;
  OcsSolution objective = ObjectiveGreedy(problem);
  return ratio.objective >= objective.objective ? ratio : objective;
}

OcsSolution LazyRatioGreedy(const OcsProblem& problem) {
  util::trace::Span span("ocs.lazy_ratio_greedy");
  return Annotated(span, RunLazyGreedy(problem, [](double gain, int cost) {
                     return gain / static_cast<double>(cost);
                   }));
}

OcsSolution LazyObjectiveGreedy(const OcsProblem& problem) {
  util::trace::Span span("ocs.lazy_objective_greedy");
  return Annotated(
      span, RunLazyGreedy(problem,
                          [](double gain, int /*cost*/) { return gain; }));
}

OcsSolution LazyHybridGreedy(const OcsProblem& problem) {
  OcsSolution ratio = LazyRatioGreedy(problem);
  if (UniformPowerOfTwoCost(problem)) return ratio;
  OcsSolution objective = LazyObjectiveGreedy(problem);
  return ratio.objective >= objective.objective ? ratio : objective;
}

OcsSolution RandomSelect(const OcsProblem& problem, util::Rng& rng) {
  std::vector<size_t> pool(problem.candidate_roads().size());
  std::iota(pool.begin(), pool.end(), size_t{0});
  rng.Shuffle(pool);
  IncrementalObjective objective(problem);
  int budget_left = problem.budget();
  for (size_t k : pool) {
    const graph::RoadId candidate = problem.candidate_roads()[k];
    const int cost = problem.costs().Cost(candidate);
    if (cost > budget_left) continue;
    if (!objective.RedundancyOk(k)) continue;
    objective.Add(k);
    budget_left -= cost;
  }
  OcsSolution solution;
  solution.roads = objective.selection();
  solution.objective = objective.objective();
  solution.total_cost = objective.total_cost();
  return solution;
}

util::Result<OcsSolution> SolveTrivialCase(const OcsProblem& problem) {
  const bool unit_costs = std::all_of(
      problem.candidate_roads().begin(), problem.candidate_roads().end(),
      [&](graph::RoadId r) { return problem.costs().Cost(r) == 1; });
  if (problem.theta() < 1.0 || !unit_costs) {
    return util::Status::FailedPrecondition(
        "not a trivial instance (needs theta == 1 and unit costs)");
  }
  OcsSolution solution;
  const int budget = problem.budget();
  if (static_cast<int>(problem.candidate_roads().size()) <= budget) {
    // Over-adequate budget: take everything (Remark 2, case 1).
    solution.roads = problem.candidate_roads();
  } else if (static_cast<int>(problem.queried_roads().size()) <= budget) {
    // Per queried road, pick its top-correlated candidate (case 2).
    const std::vector<graph::RoadId>& candidates = problem.candidate_roads();
    for (size_t i = 0; i < problem.queried_roads().size(); ++i) {
      double best = -1.0;
      graph::RoadId best_candidate = graph::kInvalidRoad;
      for (size_t k = 0; k < candidates.size(); ++k) {
        const double corr = problem.CandidateCorrs(k)[i];
        if (corr > best) {
          best = corr;
          best_candidate = candidates[k];
        }
      }
      if (best_candidate != graph::kInvalidRoad) {
        solution.roads.push_back(best_candidate);
      }
    }
    std::sort(solution.roads.begin(), solution.roads.end());
    solution.roads.erase(
        std::unique(solution.roads.begin(), solution.roads.end()),
        solution.roads.end());
  } else {
    return util::Status::FailedPrecondition(
        "not a trivial instance (budget below both |R^w| and |R^q|)");
  }
  solution.objective = problem.Objective(solution.roads);
  solution.total_cost = problem.costs().TotalCost(solution.roads);
  return solution;
}

}  // namespace crowdrtse::ocs
