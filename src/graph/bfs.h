#ifndef CROWDRTSE_GRAPH_BFS_H_
#define CROWDRTSE_GRAPH_BFS_H_

#include <vector>

#include "graph/graph.h"

namespace crowdrtse::graph {

/// Result of a (multi-source) breadth-first traversal: per-road hop count
/// and the roads grouped by hop level, as one contiguous visit sequence
/// plus level offsets. GSP (paper Alg. 5) schedules its iterative updates
/// by ascending hop distance from the crowdsourced roads; its arena keeps
/// an instance alive per thread so a query's BFS levelling costs zero
/// mallocs after warm-up.
struct BfsLevels {
  /// hops[r] = minimum hop count from any source; -1 if unreachable.
  std::vector<int> hops;
  /// Roads in BFS discovery order, level-contiguous; level 0 holds the
  /// sources in the order given.
  std::vector<RoadId> order;
  /// Level l (roads exactly l hops away) spans
  /// order[level_offsets[l], level_offsets[l+1]).
  std::vector<int32_t> level_offsets;

  int num_levels() const {
    return static_cast<int>(level_offsets.empty()
                                ? 0
                                : level_offsets.size() - 1);
  }
};

/// Multi-source BFS writing into `out`'s existing buffers (cleared, not
/// reallocated, when capacities suffice). Duplicate sources are tolerated.
void MultiSourceBfsInto(const Graph& graph,
                        const std::vector<RoadId>& sources,
                        BfsLevels& out);

/// Roads within `max_hops` of any of `sources` (the sources themselves are
/// 0 hops away and included), in BFS discovery order. Used for the paper's
/// Table III k-hop coverage metric.
std::vector<RoadId> RoadsWithinHops(const Graph& graph,
                                    const std::vector<RoadId>& sources,
                                    int max_hops);

}  // namespace crowdrtse::graph

#endif  // CROWDRTSE_GRAPH_BFS_H_
