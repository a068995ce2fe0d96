// Differential test of the sparse C-hop Gamma_R builder: the flat builder
// behind FromEdgeCorrelations (hop_radius > 0) and RefreshedRows must
// produce bit for bit the CSR that the original std::map Bellman-Ford
// layering produces. That form is kept below as the oracle; tables are
// compared through their serialized layout (offsets, columns and value
// bits), so every stored entry counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "rtf/correlation_table.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace crowdrtse::rtf {
namespace {

/// The oracle: one std::map per row, copied once per hop. Hop k relaxes
/// every reached road from its value after hop k - 1; a new road counts as
/// a change even when its product underflowed to 0; rows keep corr > 0.
std::map<graph::RoadId, double> BoundedHopRow(
    const graph::Graph& graph, const std::vector<double>& edge_rho,
    graph::RoadId src, int hop_radius) {
  std::map<graph::RoadId, double> best;
  best[src] = 1.0;
  for (int k = 0; k < hop_radius; ++k) {
    std::map<graph::RoadId, double> next = best;
    bool changed = false;
    for (const auto& [u, val] : best) {
      if (val <= 0.0) continue;
      for (const graph::Adjacency& adj : graph.Neighbors(u)) {
        const double rho = edge_rho[static_cast<size_t>(adj.edge)];
        if (rho <= 0.0) continue;
        const double cand = val * rho;
        auto [it, inserted] = next.try_emplace(adj.neighbor, cand);
        if (inserted) {
          changed = true;
        } else if (cand > it->second) {
          it->second = cand;
          changed = true;
        }
      }
    }
    best = std::move(next);
    if (!changed) break;
  }
  best[src] = 1.0;
  return best;
}

struct Csr {
  std::vector<int32_t> offsets;
  std::vector<int32_t> cols;
  std::vector<uint64_t> val_bits;
};

/// The sparse table's stored CSR, read back from its serialized layout
/// (magic, version, roads, hop radius, offsets, cols, vals).
Csr ReadCsr(const CorrelationTable& table) {
  util::BinaryReader reader(table.Serialize());
  EXPECT_TRUE(reader.ReadUint32().ok());  // magic
  EXPECT_TRUE(reader.ReadUint32().ok());  // format version
  EXPECT_EQ(*reader.ReadInt32(), table.num_roads());
  EXPECT_EQ(*reader.ReadInt32(), table.hop_radius());
  Csr csr;
  csr.offsets = *reader.ReadInt32Vector();
  csr.cols = *reader.ReadInt32Vector();
  const util::Result<std::vector<double>> vals = reader.ReadDoubleVector();
  for (double v : *vals) csr.val_bits.push_back(std::bit_cast<uint64_t>(v));
  return csr;
}

/// Appends the oracle row of `src` to `csr`; returns how many reached
/// roads were dropped for holding an underflowed 0.
int AppendOracleRow(const graph::Graph& g, const std::vector<double>& rho,
                    graph::RoadId src, int hops, Csr& csr) {
  int zeros = 0;
  for (const auto& [dst, corr] : BoundedHopRow(g, rho, src, hops)) {
    if (corr <= 0.0) {
      ++zeros;
      continue;
    }
    csr.cols.push_back(dst);
    csr.val_bits.push_back(std::bit_cast<uint64_t>(corr));
  }
  csr.offsets.push_back(static_cast<int32_t>(csr.cols.size()));
  return zeros;
}

/// Oracle CSR of the whole table; rows listed in `fresh` use `fresh_rho`,
/// every other row `rho`. Counts underflowed zeros into `zeros`.
Csr OracleCsr(const graph::Graph& g, const std::vector<double>& rho,
              int hops, const std::vector<graph::RoadId>& fresh = {},
              const std::vector<double>& fresh_rho = {},
              int* zeros = nullptr) {
  std::vector<char> is_fresh(static_cast<size_t>(g.num_roads()), 0);
  for (graph::RoadId r : fresh) is_fresh[static_cast<size_t>(r)] = 1;
  Csr csr;
  csr.offsets.push_back(0);
  int dropped = 0;
  for (graph::RoadId r = 0; r < g.num_roads(); ++r) {
    dropped += AppendOracleRow(
        g, is_fresh[static_cast<size_t>(r)] ? fresh_rho : rho, r, hops, csr);
  }
  if (zeros != nullptr) *zeros = dropped;
  return csr;
}

void ExpectSameCsr(const Csr& got, const Csr& want, const std::string& what) {
  EXPECT_EQ(got.offsets, want.offsets) << what;
  EXPECT_EQ(got.cols, want.cols) << what;
  EXPECT_EQ(got.val_bits, want.val_bits) << what;
}

struct World {
  std::string name;
  graph::Graph graph;
};

std::vector<World> Worlds() {
  std::vector<World> worlds;
  graph::MetroNetworkOptions metro;
  metro.num_roads = 400;
  metro.arterial_spacing = 4;
  metro.num_ring_roads = 2;
  worlds.push_back({"metro", *graph::MetroNetwork(metro)});
  util::Rng rng(41);
  graph::RoadNetworkOptions net;
  net.num_roads = 300;
  worlds.push_back({"road", *graph::RoadNetwork(net, rng)});
  // A path, a cycle and a star among isolated roads: isolated rows hold
  // only their diagonal.
  graph::GraphBuilder builder(60);
  for (graph::RoadId r = 0; r + 1 < 15; ++r) builder.AddEdge(r, r + 1);
  for (graph::RoadId r = 20; r < 26; ++r) builder.AddEdge(r, r + 1);
  builder.AddEdge(26, 20);
  for (graph::RoadId r = 41; r < 47; ++r) builder.AddEdge(40, r);
  worlds.push_back({"isolated", *builder.Build()});
  return worlds;
}

/// Edge rhos with exact 0s (blocked edges) and exact 1s among uniform
/// values.
std::vector<double> MixedRhos(const graph::Graph& g, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> rho(static_cast<size_t>(g.num_edges()));
  for (double& r : rho) {
    const int kind = rng.UniformInt(0, 9);
    r = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.UniformDouble(0.05, 1.0);
  }
  return rho;
}

/// Edge rhos near the bottom of the double range: two tiny edges multiply
/// to a denormal or underflow to exactly 0, which the builders must reach
/// yet drop from the row.
std::vector<double> UnderflowRhos(const graph::Graph& g, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> rho(static_cast<size_t>(g.num_edges()));
  for (double& r : rho) {
    const int kind = rng.UniformInt(0, 2);
    r = kind == 0   ? 1.0
        : kind == 1 ? rng.UniformDouble(1.0, 8.0) * 1e-170
                    : rng.UniformDouble(0.3, 1.0);
  }
  return rho;
}

struct RhoCase {
  std::string name;
  std::vector<double> (*make)(const graph::Graph&, uint64_t);
};

const std::vector<RhoCase>& RhoCases() {
  static const std::vector<RhoCase> cases = {{"mixed", MixedRhos},
                                             {"underflow", UnderflowRhos}};
  return cases;
}

class SparseClosureDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  util::ThreadPool pool_{4};
  std::vector<util::ThreadPool*> Fanouts() { return {nullptr, &pool_}; }
};

TEST_P(SparseClosureDifferentialTest, FullBuildMatchesMapOracle) {
  const int hops = GetParam();
  int underflowed = 0;
  for (const World& world : Worlds()) {
    for (const RhoCase& rho_case : RhoCases()) {
      const std::vector<double> rho = rho_case.make(world.graph, 7);
      int zeros = 0;
      const Csr want = OracleCsr(world.graph, rho, hops, {}, {}, &zeros);
      underflowed += zeros;
      for (util::ThreadPool* fanout : Fanouts()) {
        const auto table = CorrelationTable::FromEdgeCorrelations(
            world.graph, rho, PathWeightMode::kNegLog, fanout, hops);
        ASSERT_TRUE(table.ok()) << table.status().message();
        ExpectSameCsr(ReadCsr(*table), want,
                      world.name + "/" + rho_case.name + "/threads=" +
                          std::to_string(fanout ? 4 : 1));
      }
    }
  }
  if (hops >= 2) {
    EXPECT_GT(underflowed, 0)
        << "the underflow case no longer reaches a road with product 0";
  }
}

TEST_P(SparseClosureDifferentialTest, RefreshedRowsMatchMapOracle) {
  const int hops = GetParam();
  for (const World& world : Worlds()) {
    const graph::Graph& g = world.graph;
    for (const RhoCase& rho_case : RhoCases()) {
      const std::vector<double> old_rho = rho_case.make(g, 11);
      const std::vector<double> redrawn = rho_case.make(g, 12);
      std::vector<double> new_rho = old_rho;
      std::vector<graph::EdgeId> changed;
      for (graph::EdgeId e = 0; e < g.num_edges(); e += 17) {
        changed.push_back(e);
        new_rho[static_cast<size_t>(e)] = redrawn[static_cast<size_t>(e)];
      }
      // The affected rows (a full rebuild in disguise) and an arbitrary
      // set with duplicates (rows outside it keep the old rhos).
      std::vector<std::vector<graph::RoadId>> source_sets = {
          AffectedCorrelationRows(g, changed, hops), {}};
      for (graph::RoadId r = g.num_roads() - 1; r >= 0; r -= 7) {
        source_sets[1].push_back(r);
        source_sets[1].push_back(r);
      }
      for (util::ThreadPool* fanout : Fanouts()) {
        const auto table = CorrelationTable::FromEdgeCorrelations(
            g, old_rho, PathWeightMode::kNegLog, fanout, hops);
        ASSERT_TRUE(table.ok());
        for (size_t s = 0; s < source_sets.size(); ++s) {
          const auto refreshed =
              table->RefreshedRows(g, new_rho, source_sets[s], fanout);
          ASSERT_TRUE(refreshed.ok()) << refreshed.status().message();
          ExpectSameCsr(ReadCsr(*refreshed),
                        OracleCsr(g, old_rho, hops, source_sets[s], new_rho),
                        world.name + "/" + rho_case.name + "/set=" +
                            std::to_string(s) + "/threads=" +
                            std::to_string(fanout ? 4 : 1));
        }
        const auto full = CorrelationTable::FromEdgeCorrelations(
            g, new_rho, PathWeightMode::kNegLog, fanout, hops);
        ASSERT_TRUE(full.ok());
        ExpectSameCsr(
            ReadCsr(*table->RefreshedRows(g, new_rho, source_sets[0], fanout)),
            ReadCsr(*full), world.name + "/" + rho_case.name + "/rebuild");
      }
    }
  }
}

TEST_P(SparseClosureDifferentialTest, UnderflowThenPositivePath) {
  // Road 2 is reached at hop 2 through two tiny edges (product underflows
  // to 0) and again at hop 3 through three unit edges: it must appear once,
  // with 1.0, from C = 3 on, and not at all below.
  const int hops = GetParam();
  graph::GraphBuilder builder(5);
  std::vector<double> rho;
  const auto add = [&](graph::RoadId a, graph::RoadId b, double r) {
    builder.AddEdge(a, b);
    rho.push_back(r);
  };
  add(0, 1, 1e-200);
  add(1, 2, 1e-200);
  add(0, 3, 1.0);
  add(3, 4, 1.0);
  add(4, 2, 1.0);
  const graph::Graph g = *builder.Build();
  const auto table = CorrelationTable::FromEdgeCorrelations(
      g, rho, PathWeightMode::kNegLog, nullptr, hops);
  ASSERT_TRUE(table.ok());
  ExpectSameCsr(ReadCsr(*table), OracleCsr(g, rho, hops), "hand graph");
  EXPECT_EQ(table->Corr(0, 2), hops >= 3 ? 1.0 : 0.0);
}

TEST_P(SparseClosureDifferentialTest, HaloMemberRowsEqualGlobalRows) {
  // An induced subgraph holding the C-hop ball of its core roads rebuilds
  // the core rows bit for bit (DESIGN §7.2).
  const int hops = GetParam();
  const World world = std::move(Worlds()[0]);
  const graph::Graph& g = world.graph;
  const std::vector<double> rho = MixedRhos(g, 5);
  const std::vector<graph::RoadId> core = {0, 57, 58, 210,
                                           g.num_roads() - 1};
  std::vector<graph::RoadId> members = graph::RoadsWithinHops(g, core, hops);
  std::sort(members.begin(), members.end());
  ASSERT_LT(members.size(), static_cast<size_t>(g.num_roads()));
  const auto sub = graph::InducedSubgraph(g, members);
  ASSERT_TRUE(sub.ok());
  std::vector<double> sub_rho(static_cast<size_t>(sub->graph.num_edges()));
  for (graph::EdgeId e = 0; e < sub->graph.num_edges(); ++e) {
    const auto [a, b] = sub->graph.EdgeEndpoints(e);
    sub_rho[static_cast<size_t>(e)] = rho[static_cast<size_t>(
        g.FindEdge(sub->original_ids[static_cast<size_t>(a)],
                   sub->original_ids[static_cast<size_t>(b)]))];
  }
  const Csr global = OracleCsr(g, rho, hops);
  for (util::ThreadPool* fanout : Fanouts()) {
    const auto local = CorrelationTable::FromEdgeCorrelations(
        sub->graph, sub_rho, PathWeightMode::kNegLog, fanout, hops);
    ASSERT_TRUE(local.ok());
    const Csr got = ReadCsr(*local);
    for (size_t li = 0; li < members.size(); ++li) {
      const graph::RoadId gi = members[li];
      if (!std::binary_search(core.begin(), core.end(), gi)) continue;
      Csr local_row;
      Csr global_row;
      for (auto k = static_cast<size_t>(got.offsets[li]);
           k < static_cast<size_t>(got.offsets[li + 1]); ++k) {
        local_row.cols.push_back(
            sub->original_ids[static_cast<size_t>(got.cols[k])]);
        local_row.val_bits.push_back(got.val_bits[k]);
      }
      const auto gr = static_cast<size_t>(gi);
      for (auto k = static_cast<size_t>(global.offsets[gr]);
           k < static_cast<size_t>(global.offsets[gr + 1]); ++k) {
        global_row.cols.push_back(global.cols[k]);
        global_row.val_bits.push_back(global.val_bits[k]);
      }
      ExpectSameCsr(local_row, global_row, "row " + std::to_string(gi));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HopRadius, SparseClosureDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace crowdrtse::rtf
