#ifndef CROWDRTSE_GRAPH_GRAPH_H_
#define CROWDRTSE_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/status.h"

namespace crowdrtse::graph {

/// Road identifier: index into the traffic network's vertex set. In the
/// paper each road is an atomic path interval and a vertex of the graph
/// model G = (R, E).
using RoadId = int32_t;

/// Edge identifier: index into the network's edge set (adjacency between
/// two roads). RTF stores one correlation weight rho per edge per slot,
/// indexed by EdgeId.
using EdgeId = int32_t;

constexpr RoadId kInvalidRoad = -1;
constexpr EdgeId kInvalidEdge = -1;

/// One adjacency entry of the CSR structure: the neighbouring road and the
/// id of the connecting edge.
struct Adjacency {
  RoadId neighbor;
  EdgeId edge;
};

/// Immutable undirected traffic network N(R, E) in compressed sparse row
/// form. Construction goes through GraphBuilder; afterwards the structure is
/// read-only, so the hot loops (BFS, Dijkstra, GSP propagation) scan
/// contiguous adjacency spans without locking or reallocation hazards.
class Graph {
 public:
  Graph() = default;

  int num_roads() const { return num_roads_; }
  int num_edges() const { return static_cast<int>(edge_endpoints_.size()); }

  /// Adjacency list of road `r` (neighbours + edge ids), degree-length span.
  std::span<const Adjacency> Neighbors(RoadId r) const {
    return {adjacency_.data() + offsets_[static_cast<size_t>(r)],
            adjacency_.data() + offsets_[static_cast<size_t>(r) + 1]};
  }

  /// Raw CSR pieces, for kernels that index adjacency positions directly
  /// (GSP keeps per-half-edge parameter arrays aligned with these: the
  /// entry at adjacency position k of row r carries the parameters of the
  /// half-edge r -> Adjacencies()[k].neighbor).
  std::span<const size_t> RowOffsets() const { return offsets_; }
  std::span<const Adjacency> Adjacencies() const { return adjacency_; }

  /// Neighbour ids alone, parallel to Adjacencies(): a contiguous int32
  /// stream the GSP sweep gathers speeds through (half the stride of
  /// scanning Adjacency structs when only the neighbour is needed).
  std::span<const RoadId> NeighborIds() const { return neighbor_ids_; }

  int Degree(RoadId r) const {
    return static_cast<int>(offsets_[static_cast<size_t>(r) + 1] -
                            offsets_[static_cast<size_t>(r)]);
  }

  /// Endpoints of edge `e`, with first < second.
  std::pair<RoadId, RoadId> EdgeEndpoints(EdgeId e) const {
    return edge_endpoints_[static_cast<size_t>(e)];
  }

  /// Id of the edge joining `a` and `b`, or kInvalidEdge when non-adjacent.
  /// O(min degree) scan — degrees in road networks are tiny.
  EdgeId FindEdge(RoadId a, RoadId b) const;

  bool AreAdjacent(RoadId a, RoadId b) const {
    return FindEdge(a, b) != kInvalidEdge;
  }

  bool IsValidRoad(RoadId r) const { return r >= 0 && r < num_roads_; }

 private:
  friend class GraphBuilder;

  int num_roads_ = 0;
  std::vector<size_t> offsets_;       // num_roads_ + 1
  std::vector<Adjacency> adjacency_;  // 2 * num_edges
  std::vector<RoadId> neighbor_ids_;  // adjacency_[k].neighbor, flat
  std::vector<std::pair<RoadId, RoadId>> edge_endpoints_;
};

/// Incremental builder for Graph. Duplicate edges and self-loops are
/// rejected at Build() time.
class GraphBuilder {
 public:
  /// Starts a network with `num_roads` isolated roads.
  explicit GraphBuilder(int num_roads);

  /// Registers the adjacency (a, b). Order is irrelevant. Returns the id the
  /// edge will carry in the built graph.
  EdgeId AddEdge(RoadId a, RoadId b);

  int num_roads() const { return num_roads_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Validates and assembles the CSR structure. Fails on out-of-range
  /// endpoints, self-loops, or duplicate edges.
  util::Result<Graph> Build() const;

 private:
  int num_roads_;
  std::vector<std::pair<RoadId, RoadId>> edges_;
};

}  // namespace crowdrtse::graph

#endif  // CROWDRTSE_GRAPH_GRAPH_H_
