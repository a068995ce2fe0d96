#ifndef CROWDRTSE_GRAPH_DIJKSTRA_H_
#define CROWDRTSE_GRAPH_DIJKSTRA_H_

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace crowdrtse::graph {

/// Distance value signalling "unreachable".
constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// A single-source shortest path tree plus the reusable buffers that
/// build it: the Γ_R closure runs one Dijkstra per source road, and
/// per-source malloc of the distance/parent/heap arrays used to dominate
/// small-graph runs. Keep one workspace per worker thread and the fan-out
/// allocates nothing after warm-up.
struct DijkstraWorkspace {
  std::vector<double> distance;  // kUnreachable when disconnected
  std::vector<RoadId> parent;    // kInvalidRoad at the source / unreachable
  std::vector<std::pair<double, RoadId>> heap;
};

/// Dijkstra from `source` with non-negative per-edge weights in a flat
/// array indexed by EdgeId. Weights that are negative or kUnreachable mark
/// the edge impassable. The RTF correlation table runs this on reciprocal
/// log-correlation weights (paper Eq. 9 turns max-product path correlation
/// into min-sum shortest path). Results land in ws.distance / ws.parent.
void DijkstraInto(const Graph& graph, RoadId source,
                  std::span<const double> edge_weight,
                  DijkstraWorkspace& ws);

/// Reconstructs the road sequence source..target from the shortest-path
/// tree DijkstraInto left in `tree`; empty when the target is unreachable.
std::vector<RoadId> ReconstructPath(const DijkstraWorkspace& tree,
                                    RoadId source, RoadId target);

}  // namespace crowdrtse::graph

#endif  // CROWDRTSE_GRAPH_DIJKSTRA_H_
