#include "graph/bfs.h"

#include <utility>

namespace crowdrtse::graph {

void MultiSourceBfsInto(const Graph& graph,
                        const std::vector<RoadId>& sources,
                        BfsLevels& out, int max_hops) {
  out.hops.assign(static_cast<size_t>(graph.num_roads()), -1);
  out.order.clear();
  out.level_offsets.clear();
  for (RoadId s : sources) {
    if (!graph.IsValidRoad(s)) continue;
    if (out.hops[static_cast<size_t>(s)] == 0) continue;  // duplicate source
    out.hops[static_cast<size_t>(s)] = 0;
    out.order.push_back(s);
  }
  if (out.order.empty()) return;
  out.level_offsets.push_back(0);
  out.level_offsets.push_back(static_cast<int32_t>(out.order.size()));
  // FIFO processing discovers each level contiguously: every hop-(h+1) road
  // is appended while hop-h roads drain.
  size_t head = 0;
  int deepest = 0;
  while (head < out.order.size()) {
    const RoadId r = out.order[head++];
    const int next_hop = out.hops[static_cast<size_t>(r)] + 1;
    // FIFO order: every road still queued is at least as deep as r.
    if (max_hops >= 0 && next_hop > max_hops) break;
    for (const Adjacency& adj : graph.Neighbors(r)) {
      if (out.hops[static_cast<size_t>(adj.neighbor)] != -1) continue;
      out.hops[static_cast<size_t>(adj.neighbor)] = next_hop;
      if (next_hop > deepest) {
        deepest = next_hop;
        out.level_offsets.push_back(out.level_offsets.back());
      }
      out.order.push_back(adj.neighbor);
      out.level_offsets.back() = static_cast<int32_t>(out.order.size());
    }
  }
}

std::vector<RoadId> RoadsWithinHops(const Graph& graph,
                                    const std::vector<RoadId>& sources,
                                    int max_hops) {
  if (max_hops < 0) return {};
  BfsLevels levels;
  MultiSourceBfsInto(graph, sources, levels, max_hops);
  return std::move(levels.order);
}

}  // namespace crowdrtse::graph
