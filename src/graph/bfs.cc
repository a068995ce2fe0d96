#include "graph/bfs.h"

#include <algorithm>

namespace crowdrtse::graph {

void StampedBfs::Run(const Graph& graph, std::span<const RoadId> sources,
                     int max_hops) {
  const size_t n = static_cast<size_t>(graph.num_roads());
  if (stamp_.size() < n) {
    stamp_.resize(n, 0);
    hops_.resize(n, -1);
  }
  if (++epoch_ == 0) {
    // The epoch wrapped: clear every stamp once so none can alias.
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  order_.clear();
  level_offsets_.clear();
  for (RoadId s : sources) {
    if (!graph.IsValidRoad(s) || Hops(s) == 0) continue;  // duplicate
    stamp_[static_cast<size_t>(s)] = epoch_;
    hops_[static_cast<size_t>(s)] = 0;
    order_.push_back(s);
  }
  if (order_.empty()) return;
  level_offsets_.push_back(0);
  level_offsets_.push_back(static_cast<int32_t>(order_.size()));
  // FIFO processing discovers each level contiguously: every hop-(h+1) road
  // is appended while hop-h roads drain.
  size_t head = 0;
  int deepest = 0;
  while (head < order_.size()) {
    const RoadId r = order_[head++];
    const int next_hop = hops_[static_cast<size_t>(r)] + 1;
    // FIFO order: every road still queued is at least as deep as r.
    if (max_hops >= 0 && next_hop > max_hops) break;
    for (const Adjacency& adj : graph.Neighbors(r)) {
      const size_t v = static_cast<size_t>(adj.neighbor);
      if (stamp_[v] == epoch_) continue;
      stamp_[v] = epoch_;
      hops_[v] = next_hop;
      if (next_hop > deepest) {
        deepest = next_hop;
        level_offsets_.push_back(level_offsets_.back());
      }
      order_.push_back(adj.neighbor);
      level_offsets_.back() = static_cast<int32_t>(order_.size());
    }
  }
}

std::vector<RoadId> RoadsWithinHops(const Graph& graph,
                                    const std::vector<RoadId>& sources,
                                    int max_hops) {
  if (max_hops < 0) return {};
  thread_local StampedBfs bfs;
  bfs.Run(graph, sources, max_hops);
  return bfs.order();
}

}  // namespace crowdrtse::graph
