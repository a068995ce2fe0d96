#ifndef CROWDRTSE_GRAPH_BFS_H_
#define CROWDRTSE_GRAPH_BFS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace crowdrtse::graph {

/// Multi-source BFS scratch that resets in time proportional to what the
/// previous traversal reached, not to the graph. A road's hop count is
/// valid only while its stamp equals the current epoch, so a new traversal
/// bumps the epoch instead of filling an n-sized array; the stamp and hop
/// arrays grow once to the largest graph seen. The serve path keeps one
/// per thread for each ball it walks (the query's C-hop ball, GSP's
/// H-ball), so a query's BFS costs O(ball + its edges) at any city size.
/// One instance may serve graphs of different sizes in turn.
class StampedBfs {
 public:
  /// Multi-source BFS: valid sources in the given order at level 0
  /// (off-graph and duplicate ids skipped), then FIFO discovery, expanding
  /// no deeper than `max_hops` when it is >= 0 (a negative `max_hops`
  /// walks every reachable road).
  void Run(const Graph& graph, std::span<const RoadId> sources,
           int max_hops = -1);

  /// Hop count of `road` in the last Run; -1 when it was not reached.
  int Hops(RoadId road) const {
    const size_t r = static_cast<size_t>(road);
    return road >= 0 && r < stamp_.size() && stamp_[r] == epoch_ ? hops_[r]
                                                                 : -1;
  }

  /// Reached roads in discovery order, level-contiguous.
  const std::vector<RoadId>& order() const { return order_; }
  /// Level l spans order()[level_offsets()[l], level_offsets()[l+1]).
  const std::vector<int32_t>& level_offsets() const {
    return level_offsets_;
  }
  int num_levels() const {
    return static_cast<int>(level_offsets_.empty()
                                ? 0
                                : level_offsets_.size() - 1);
  }

 private:
  std::vector<uint32_t> stamp_;
  std::vector<int32_t> hops_;
  uint32_t epoch_ = 0;
  std::vector<RoadId> order_;
  std::vector<int32_t> level_offsets_;
};

/// Roads within `max_hops` of any of `sources` (the sources themselves are
/// 0 hops away and included), in BFS discovery order. Walks a thread-local
/// StampedBfs, so the cost follows the ball, not the graph. Used for the
/// query's C-hop candidate ball and the paper's Table III k-hop coverage.
std::vector<RoadId> RoadsWithinHops(const Graph& graph,
                                    const std::vector<RoadId>& sources,
                                    int max_hops);

}  // namespace crowdrtse::graph

#endif  // CROWDRTSE_GRAPH_BFS_H_
