#include "graph/graph.h"

#include <algorithm>
#include <set>
#include <string>

namespace crowdrtse::graph {

EdgeId Graph::FindEdge(RoadId a, RoadId b) const {
  if (!IsValidRoad(a) || !IsValidRoad(b)) return kInvalidEdge;
  const RoadId probe = Degree(a) <= Degree(b) ? a : b;
  const RoadId target = probe == a ? b : a;
  for (const Adjacency& adj : Neighbors(probe)) {
    if (adj.neighbor == target) return adj.edge;
  }
  return kInvalidEdge;
}

GraphBuilder::GraphBuilder(int num_roads) : num_roads_(num_roads) {}

EdgeId GraphBuilder::AddEdge(RoadId a, RoadId b) {
  if (a > b) std::swap(a, b);
  edges_.emplace_back(a, b);
  return static_cast<EdgeId>(edges_.size() - 1);
}

util::Result<Graph> GraphBuilder::Build() const {
  if (num_roads_ < 0) {
    return util::Status::InvalidArgument("negative road count");
  }
  std::set<std::pair<RoadId, RoadId>> seen;
  for (const auto& [a, b] : edges_) {
    if (a < 0 || b < 0 || a >= num_roads_ || b >= num_roads_) {
      return util::Status::InvalidArgument(
          "edge endpoint out of range: (" + std::to_string(a) + ", " +
          std::to_string(b) + ")");
    }
    if (a == b) {
      return util::Status::InvalidArgument("self-loop on road " +
                                           std::to_string(a));
    }
    if (!seen.emplace(a, b).second) {
      return util::Status::InvalidArgument(
          "duplicate edge (" + std::to_string(a) + ", " + std::to_string(b) +
          ")");
    }
  }

  Graph g;
  g.num_roads_ = num_roads_;
  g.edge_endpoints_ = edges_;

  std::vector<size_t> degree(static_cast<size_t>(num_roads_) + 1, 0);
  for (const auto& [a, b] : edges_) {
    ++degree[static_cast<size_t>(a)];
    ++degree[static_cast<size_t>(b)];
  }
  g.offsets_.assign(static_cast<size_t>(num_roads_) + 1, 0);
  for (int r = 0; r < num_roads_; ++r) {
    g.offsets_[static_cast<size_t>(r) + 1] =
        g.offsets_[static_cast<size_t>(r)] + degree[static_cast<size_t>(r)];
  }
  g.adjacency_.resize(2 * edges_.size());
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (size_t e = 0; e < edges_.size(); ++e) {
    const auto [a, b] = edges_[e];
    g.adjacency_[cursor[static_cast<size_t>(a)]++] = {
        b, static_cast<EdgeId>(e)};
    g.adjacency_[cursor[static_cast<size_t>(b)]++] = {
        a, static_cast<EdgeId>(e)};
  }
  // Sort each adjacency list by neighbour id for deterministic iteration.
  for (int r = 0; r < num_roads_; ++r) {
    auto begin = g.adjacency_.begin() +
                 static_cast<ptrdiff_t>(g.offsets_[static_cast<size_t>(r)]);
    auto end = g.adjacency_.begin() +
               static_cast<ptrdiff_t>(g.offsets_[static_cast<size_t>(r) + 1]);
    std::sort(begin, end, [](const Adjacency& x, const Adjacency& y) {
      return x.neighbor < y.neighbor;
    });
  }
  g.neighbor_ids_.resize(g.adjacency_.size());
  for (size_t k = 0; k < g.adjacency_.size(); ++k) {
    g.neighbor_ids_[k] = g.adjacency_[k].neighbor;
  }
  return g;
}

}  // namespace crowdrtse::graph
