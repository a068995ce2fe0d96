#ifndef CROWDRTSE_PARTITION_PARTITION_H_
#define CROWDRTSE_PARTITION_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace crowdrtse::partition {

/// One shard's slice of the road network, in global road ids.
///
/// `owned` are the roads this shard answers for; `halo` is the ring of
/// ghost roads within the partition's halo_radius hops of any owned road.
/// The halo exists so the shard's induced subgraph closes every locality
/// contract the serve pipeline relies on (see DESIGN.md §7): with a
/// correlation hop radius C and a GSP hop limit H, halo_radius >=
/// max(2C, C + H + 1) makes shard-local Gamma_R entries, OCS candidate
/// pools and GSP fixpoints bit-identical to their global counterparts for
/// owned queries.
///
/// Local ids are positions in `members` = sorted(owned ∪ halo). Keeping
/// the local order the ascending global order matters: every sorted road
/// list in the pipeline (probes, candidate pools, BFS level contents) then
/// maps between local and global form without reordering, which is what
/// makes sharded answers reproduce unsharded ones bitwise.
struct ShardLayout {
  std::vector<graph::RoadId> owned;  // sorted ascending, global ids
  std::vector<graph::RoadId> halo;   // sorted ascending, disjoint from owned

  // Derived by Partition::BuildDerivedTables():
  std::vector<graph::RoadId> members;  // sorted(owned ∪ halo); local -> global
  std::vector<uint8_t> owned_local;    // members.size(); 1 = owned

  int num_members() const { return static_cast<int>(members.size()); }

  /// Local id of global road `r`, or graph::kInvalidRoad when `r` is not a
  /// member. O(log members).
  graph::RoadId LocalId(graph::RoadId r) const;
};

/// A K-way partition of a road network plus per-shard remapping tables.
/// `owner[r]` is the shard answering for global road r; every road is
/// owned by exactly one shard. `graph_checksum` pins the partition to the
/// exact graph it was computed from (ShardedEngine refuses a mismatch).
struct Partition {
  int num_roads = 0;
  int num_shards = 0;
  int halo_radius = 0;
  uint64_t seed = 0;
  uint64_t graph_checksum = 0;
  std::vector<int32_t> owner;  // size num_roads
  std::vector<ShardLayout> shards;

  int OwnerOf(graph::RoadId r) const {
    return owner[static_cast<size_t>(r)];
  }

  /// Rebuilds every shard's derived tables (members, owned_local) from
  /// owned/halo and validates the whole structure: sizes, sortedness,
  /// owned/halo disjointness, and owner[] consistency with the shard owned
  /// lists. Called by the partitioner.
  util::Status BuildDerivedTables();

  /// max(owned size) / min(owned size) — the balance figure the partitioner
  /// bounds (<= (1 + slack) / (1 - slack)).
  double BalanceRatio() const;
};

/// Number of graph edges whose endpoints are owned by different shards —
/// the partitioner's refinement objective, exposed for tests and bench
/// logging.
int64_t EdgeCut(const graph::Graph& graph, const Partition& partition);

}  // namespace crowdrtse::partition

#endif  // CROWDRTSE_PARTITION_PARTITION_H_
