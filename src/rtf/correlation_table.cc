#include "rtf/correlation_table.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>

#include "graph/bfs.h"
#include "graph/dijkstra.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace crowdrtse::rtf {

namespace {

/// CSR rows of the C-hop-bounded closure for a list of sources, in source
/// order: row i is [offsets[i], offsets[i + 1]) of cols/vals.
struct SparseRows {
  std::vector<int64_t> offsets{0};
  std::vector<graph::RoadId> cols;
  std::vector<double> vals;
};

/// Builds sparse rows of the C-hop-bounded closure: best_k(v) = max over
/// paths of at most k edges of the product of edge rhos, by Bellman-Ford
/// layering over the C-hop ball of the source. Every candidate product
/// multiplies its rhos in path order from the source and competes through
/// max, so the result is independent of neighbour iteration order — an
/// induced subgraph containing the whole ball reproduces these doubles bit
/// for bit (the partition halo invariant).
///
/// One builder serves many rows: its n-sized value and state arrays are
/// reset after each row through the list of roads that row reached, so a
/// row costs O(ball) and allocates nothing once the buffers have grown.
class BoundedHopRowBuilder {
 public:
  BoundedHopRowBuilder(const graph::Graph& graph,
                       const std::vector<double>& edge_rho, int hop_radius)
      : graph_(graph),
        edge_rho_(edge_rho),
        hop_radius_(hop_radius),
        value_(static_cast<size_t>(graph.num_roads()), 0.0),
        state_(static_cast<size_t>(graph.num_roads()), 0) {}

  /// Appends the row of `src` to `out`: entries with corr > 0, sorted by
  /// destination id.
  void AppendRow(graph::RoadId src, SparseRows& out) {
    Reach(src, 1.0);
    frontier_.assign(1, {src, 1.0});
    // Hop k relaxes from the values at the end of hop k - 1 (the frontier
    // snapshot), never from values written during hop k, so no path of
    // more than C edges contributes. Only roads whose value changed in
    // the last hop are relaxed: values only grow, and a road that did not
    // change already offered all its products one hop earlier, so
    // relaxing it again changes nothing. A first visit counts as a change
    // even when the product underflowed to 0 (the road is reached, with
    // value 0); an empty frontier is the early exit.
    for (int k = 0; k < hop_radius_ && !frontier_.empty(); ++k) {
      for (const auto& [u, val] : frontier_) {
        if (val <= 0.0) continue;
        for (const graph::Adjacency& adj : graph_.Neighbors(u)) {
          const double rho = edge_rho_[static_cast<size_t>(adj.edge)];
          if (rho <= 0.0) continue;
          const double cand = val * rho;
          const size_t v = static_cast<size_t>(adj.neighbor);
          if (!(state_[v] & kReached)) {
            Reach(adj.neighbor, cand);
          } else if (cand > value_[v]) {
            value_[v] = cand;
          } else {
            continue;
          }
          if (!(state_[v] & kChanged)) {
            state_[v] |= kChanged;
            changed_.push_back(adj.neighbor);
          }
        }
      }
      frontier_.clear();
      for (graph::RoadId v : changed_) {
        state_[static_cast<size_t>(v)] &= ~kChanged;
        frontier_.push_back({v, value_[static_cast<size_t>(v)]});
      }
      changed_.clear();
    }
    value_[static_cast<size_t>(src)] = 1.0;

    std::sort(reached_.begin(), reached_.end());
    for (graph::RoadId v : reached_) {
      double& value = value_[static_cast<size_t>(v)];
      if (value > 0.0) {
        out.cols.push_back(v);
        out.vals.push_back(value);
      }
      value = 0.0;
      state_[static_cast<size_t>(v)] = 0;
    }
    reached_.clear();
    out.offsets.push_back(static_cast<int64_t>(out.cols.size()));
  }

 private:
  static constexpr uint8_t kReached = 1;
  static constexpr uint8_t kChanged = 2;

  void Reach(graph::RoadId road, double value) {
    value_[static_cast<size_t>(road)] = value;
    state_[static_cast<size_t>(road)] = kReached;
    reached_.push_back(road);
  }

  const graph::Graph& graph_;
  const std::vector<double>& edge_rho_;
  const int hop_radius_;
  std::vector<double> value_;   // n; 0 outside the current row's ball
  std::vector<uint8_t> state_;  // n; kReached | kChanged bits
  std::vector<graph::RoadId> reached_;
  std::vector<graph::RoadId> changed_;
  std::vector<std::pair<graph::RoadId, double>> frontier_;
};

/// Rows a block builds before it sizes its buffers for the rest.
constexpr size_t kSampleRows = 64;

/// Reserves `block` for `rows` rows at half again the mean size of the
/// rows it holds, so the buffers are not regrown (and their pages touched
/// again) row by row. Untouched reserve costs address space only.
void ReserveForBlock(size_t rows, SparseRows& block) {
  const size_t built = block.offsets.size() - 1;
  const size_t expect = block.cols.size() * rows / built * 3 / 2;
  block.cols.reserve(expect);
  block.vals.reserve(expect);
}

/// Sparse rows for `sources`, in source order. With a multi-thread
/// `fanout` the sources split into one contiguous block per thread; each
/// block has its own builder and output buffers, and the blocks are
/// joined in order, so the rows do not depend on the thread count.
SparseRows BoundedHopRows(const graph::Graph& graph,
                          const std::vector<double>& edge_rho,
                          int hop_radius,
                          const std::vector<graph::RoadId>& sources,
                          util::ThreadPool* fanout) {
  const size_t count = sources.size();
  const size_t num_blocks =
      fanout != nullptr && fanout->num_threads() > 1 && count > 1
          ? std::min(count, static_cast<size_t>(fanout->num_threads()))
          : 1;
  std::vector<SparseRows> blocks(num_blocks);
  const auto build_blocks = [&](size_t begin, size_t end) {
    BoundedHopRowBuilder builder(graph, edge_rho, hop_radius);
    for (size_t b = begin; b < end; ++b) {
      const size_t lo = count * b / num_blocks;
      const size_t hi = count * (b + 1) / num_blocks;
      // Filled in a local and moved out: blocks[] of different threads
      // share cache lines.
      SparseRows block;
      block.offsets.reserve(hi - lo + 1);
      for (size_t i = lo; i < hi; ++i) {
        if (i == lo + kSampleRows) ReserveForBlock(hi - lo, block);
        builder.AppendRow(sources[i], block);
      }
      blocks[b] = std::move(block);
    }
  };
  if (num_blocks == 1) {
    build_blocks(0, 1);
    return std::move(blocks[0]);
  }
  fanout->ParallelFor(num_blocks, build_blocks);

  SparseRows rows;
  size_t nnz = 0;
  for (const SparseRows& block : blocks) nnz += block.cols.size();
  rows.offsets.reserve(count + 1);
  rows.cols.reserve(nnz);
  rows.vals.reserve(nnz);
  for (const SparseRows& block : blocks) {
    const int64_t base = static_cast<int64_t>(rows.cols.size());
    for (size_t i = 1; i < block.offsets.size(); ++i) {
      rows.offsets.push_back(base + block.offsets[i]);
    }
    rows.cols.insert(rows.cols.end(), block.cols.begin(), block.cols.end());
    rows.vals.insert(rows.vals.end(), block.vals.begin(), block.vals.end());
  }
  return rows;
}

}  // namespace

util::Result<CorrelationTable> CorrelationTable::Compute(
    const RtfModel& model, int slot, PathWeightMode mode,
    util::ThreadPool* fanout, int hop_radius) {
  if (slot < 0 || slot >= model.num_slots()) {
    return util::Status::OutOfRange("slot out of range");
  }
  std::vector<double> edge_rho(static_cast<size_t>(model.num_edges()));
  for (graph::EdgeId e = 0; e < model.num_edges(); ++e) {
    edge_rho[static_cast<size_t>(e)] = model.Rho(slot, e);
  }
  return FromEdgeCorrelations(model.graph(), edge_rho, mode, fanout,
                              hop_radius);
}

util::Result<CorrelationTable> CorrelationTable::FromEdgeCorrelations(
    const graph::Graph& graph, const std::vector<double>& edge_rho,
    PathWeightMode mode, util::ThreadPool* fanout, int hop_radius) {
  if (edge_rho.size() != static_cast<size_t>(graph.num_edges())) {
    return util::Status::InvalidArgument(
        "edge correlation count does not match the graph");
  }
  for (double rho : edge_rho) {
    if (!(rho >= 0.0 && rho <= 1.0)) {
      return util::Status::InvalidArgument(
          "edge correlations must lie in [0, 1]");
    }
  }
  if (hop_radius < 0) {
    return util::Status::InvalidArgument("hop radius must be >= 0");
  }
  if (hop_radius > 0 && mode != PathWeightMode::kNegLog) {
    // The bounded closure multiplies path products directly (the exact
    // Eq. 8 semantics); the reciprocal-weight heuristic exists only for
    // dense ablation runs.
    return util::Status::InvalidArgument(
        "hop-bounded correlation tables support the kNegLog path mode only");
  }

  const int n = graph.num_roads();

  if (hop_radius > 0) {
    std::vector<graph::RoadId> sources(static_cast<size_t>(n));
    std::iota(sources.begin(), sources.end(), 0);
    SparseRows rows =
        BoundedHopRows(graph, edge_rho, hop_radius, sources, fanout);
    CorrelationTable table;
    table.num_roads_ = n;
    table.hop_radius_ = hop_radius;
    table.row_offsets_ = std::move(rows.offsets);
    table.cols_ = std::move(rows.cols);
    table.vals_ = std::move(rows.vals);
    return table;
  }
  CorrelationTable table;
  table.num_roads_ = n;
  table.data_.assign(static_cast<size_t>(n) * static_cast<size_t>(n), 0.0);

  // Per-edge weights computed once for all n sources; the old callback
  // form re-derived -log(rho) at every relaxation of every Dijkstra.
  std::vector<double> weights(edge_rho.size());
  for (size_t e = 0; e < edge_rho.size(); ++e) {
    const double rho = edge_rho[e];
    if (rho <= 0.0) {
      weights[e] = graph::kUnreachable;  // zero correlation blocks
    } else if (mode == PathWeightMode::kNegLog) {
      weights[e] = -std::log(rho);
    } else {
      weights[e] = 1.0 / rho;
    }
  }

  // One Dijkstra per source; rows are disjoint, so sources fan out across
  // the pool with no synchronisation beyond the ParallelFor barrier. The
  // workspace amortises the heap/distance allocations across one chunk's
  // sources.
  const auto compute_row = [&](graph::RoadId src,
                               graph::DijkstraWorkspace& ws) {
    graph::DijkstraInto(graph, src, weights, ws);
    double* row = table.data_.data() +
                  static_cast<size_t>(src) * static_cast<size_t>(n);
    for (graph::RoadId dst = 0; dst < n; ++dst) {
      const double dist = ws.distance[static_cast<size_t>(dst)];
      if (dist == graph::kUnreachable) {
        row[dst] = 0.0;
        continue;
      }
      if (mode == PathWeightMode::kNegLog) {
        row[dst] = std::exp(-dist);
      } else {
        // Reconstruct the product along the chosen min-reciprocal path.
        double product = 1.0;
        for (graph::RoadId r = dst; r != src;) {
          const graph::RoadId parent = ws.parent[static_cast<size_t>(r)];
          const graph::EdgeId e = graph.FindEdge(r, parent);
          product *= edge_rho[static_cast<size_t>(e)];
          r = parent;
        }
        row[dst] = product;
      }
    }
    row[src] = 1.0;
  };

  if (fanout != nullptr && fanout->num_threads() > 1 && n > 1) {
    fanout->ParallelFor(static_cast<size_t>(n),
                        [&](size_t begin, size_t end) {
                          graph::DijkstraWorkspace ws;
                          for (size_t src = begin; src < end; ++src) {
                            compute_row(static_cast<graph::RoadId>(src), ws);
                          }
                        });
  } else {
    graph::DijkstraWorkspace ws;
    for (graph::RoadId src = 0; src < n; ++src) compute_row(src, ws);
  }
  return table;
}

util::Result<CorrelationTable> CorrelationTable::RefreshedRows(
    const graph::Graph& graph, const std::vector<double>& edge_rho,
    const std::vector<graph::RoadId>& sources,
    util::ThreadPool* fanout) const {
  if (hop_radius_ <= 0) {
    return util::Status::InvalidArgument(
        "RefreshedRows requires a sparse hop-bounded table (dense tables "
        "have no row locality; recompute in full)");
  }
  if (graph.num_roads() != num_roads_) {
    return util::Status::InvalidArgument(
        "graph road count does not match the table");
  }
  if (edge_rho.size() != static_cast<size_t>(graph.num_edges())) {
    return util::Status::InvalidArgument(
        "edge correlation count does not match the graph");
  }
  for (double rho : edge_rho) {
    if (!(rho >= 0.0 && rho <= 1.0)) {
      return util::Status::InvalidArgument(
          "edge correlations must lie in [0, 1]");
    }
  }
  // row_at[r]: index of r in unique_sources, -1 for rows carried over.
  std::vector<int64_t> row_at(static_cast<size_t>(num_roads_), -1);
  std::vector<graph::RoadId> unique_sources;
  for (graph::RoadId s : sources) {
    if (s < 0 || s >= num_roads_) {
      return util::Status::InvalidArgument("source road out of range: " +
                                           std::to_string(s));
    }
    if (row_at[static_cast<size_t>(s)] < 0) {
      row_at[static_cast<size_t>(s)] =
          static_cast<int64_t>(unique_sources.size());
      unique_sources.push_back(s);
    }
  }
  const SparseRows rows =
      BoundedHopRows(graph, edge_rho, hop_radius_, unique_sources, fanout);

  CorrelationTable out;
  out.num_roads_ = num_roads_;
  out.hop_radius_ = hop_radius_;
  out.row_offsets_.reserve(row_offsets_.size());
  out.cols_.reserve(cols_.size());
  out.vals_.reserve(vals_.size());
  out.row_offsets_.push_back(0);
  for (graph::RoadId r = 0; r < num_roads_; ++r) {
    // Refreshed rows come from the rebuilt slices; untouched rows carry
    // over bit for bit.
    const int64_t i = row_at[static_cast<size_t>(r)];
    const bool fresh = i >= 0;
    const std::vector<graph::RoadId>& src_cols = fresh ? rows.cols : cols_;
    const std::vector<double>& src_vals = fresh ? rows.vals : vals_;
    const std::vector<int64_t>& src_offsets =
        fresh ? rows.offsets : row_offsets_;
    const size_t at = fresh ? static_cast<size_t>(i) : static_cast<size_t>(r);
    const auto begin = static_cast<ptrdiff_t>(src_offsets[at]);
    const auto end = static_cast<ptrdiff_t>(src_offsets[at + 1]);
    out.cols_.insert(out.cols_.end(), src_cols.begin() + begin,
                     src_cols.begin() + end);
    out.vals_.insert(out.vals_.end(), src_vals.begin() + begin,
                     src_vals.begin() + end);
    out.row_offsets_.push_back(static_cast<int64_t>(out.cols_.size()));
  }
  return out;
}

std::vector<graph::RoadId> AffectedCorrelationRows(
    const graph::Graph& graph,
    const std::vector<graph::EdgeId>& changed_edges, int hop_radius) {
  std::vector<graph::RoadId> endpoints;
  endpoints.reserve(2 * changed_edges.size());
  for (graph::EdgeId e : changed_edges) {
    if (e < 0 || e >= graph.num_edges()) continue;
    const auto [a, b] = graph.EdgeEndpoints(e);
    endpoints.push_back(a);
    endpoints.push_back(b);
  }
  if (endpoints.empty()) return {};
  return graph::RoadsWithinHops(graph, endpoints,
                                std::max(0, hop_radius - 1));
}

util::Result<double> CorrelationTable::CheckedCorr(graph::RoadId i,
                                                   graph::RoadId j) const {
  if (!InRange(i) || !InRange(j)) {
    return util::Status::OutOfRange(
        "road id out of range for correlation table: (" + std::to_string(i) +
        ", " + std::to_string(j) + ") with " + std::to_string(num_roads_) +
        " roads");
  }
  return Corr(i, j);
}

double CorrelationTable::RoadSetCorr(
    graph::RoadId road, const std::vector<graph::RoadId>& set) const {
  double best = 0.0;
  if (hop_radius_ > 0) {
    for (graph::RoadId s : set) {
      assert(InRange(s));
      best = std::max(best, SparseCorr(road, s));
    }
    return best;
  }
  const double* row = Row(road);
  for (graph::RoadId s : set) {
    assert(InRange(s));
    best = std::max(best, row[s]);
  }
  return best;
}

double CorrelationTable::SparseCorr(graph::RoadId i, graph::RoadId j) const {
  const auto begin = cols_.begin() + row_offsets_[static_cast<size_t>(i)];
  const auto end = cols_.begin() + row_offsets_[static_cast<size_t>(i) + 1];
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return vals_[static_cast<size_t>(it - cols_.begin())];
}

namespace {
constexpr uint32_t kTableMagic = 0x47414D31;  // "GAM1"
// Layout revisions after the magic. v1 (the seed) had no version field; v2
// inserted this field, so v1 files fail the version check and recompute
// rather than being misparsed. v3 is the sparse hop-bounded layout; dense
// tables keep writing v2 so existing persisted caches stay warm.
constexpr uint32_t kDenseFormatVersion = 2;
constexpr uint32_t kSparseFormatVersion = 3;
}  // namespace

void CorrelationTable::AppendTo(util::BinaryWriter& writer) const {
  writer.WriteUint32(kTableMagic);
  if (hop_radius_ == 0) {
    writer.WriteUint32(kDenseFormatVersion);
    writer.WriteInt32(num_roads_);
    writer.WriteDoubleVector(data_);
    return;
  }
  writer.WriteUint32(kSparseFormatVersion);
  writer.WriteInt32(num_roads_);
  writer.WriteInt32(hop_radius_);
  std::vector<int32_t> offsets;
  offsets.reserve(row_offsets_.size());
  for (int64_t offset : row_offsets_) {
    offsets.push_back(static_cast<int32_t>(offset));
  }
  writer.WriteInt32Vector(offsets);
  writer.WriteInt32Vector(cols_);
  writer.WriteDoubleVector(vals_);
}

util::Result<CorrelationTable> CorrelationTable::ParseFrom(
    util::BinaryReader& reader) {
  util::Result<uint32_t> magic = reader.ReadUint32();
  if (!magic.ok()) return magic.status();
  if (*magic != kTableMagic) {
    return util::Status::InvalidArgument("not a correlation table file");
  }
  util::Result<uint32_t> version = reader.ReadUint32();
  if (!version.ok()) return version.status();
  if (*version != kDenseFormatVersion &&
      *version != kSparseFormatVersion) {
    return util::Status::InvalidArgument(
        "unsupported correlation table format version " +
        std::to_string(*version) + " (expected " +
        std::to_string(kDenseFormatVersion) + " dense or " +
        std::to_string(kSparseFormatVersion) + " sparse)");
  }
  util::Result<int32_t> num_roads = reader.ReadInt32();
  if (!num_roads.ok()) return num_roads.status();
  if (*num_roads < 0) {
    return util::Status::InvalidArgument("negative road count");
  }
  CorrelationTable table;
  table.num_roads_ = *num_roads;
  if (*version == kDenseFormatVersion) {
    util::Result<std::vector<double>> values = reader.ReadDoubleVector();
    if (!values.ok()) return values.status();
    const size_t expected = static_cast<size_t>(*num_roads) *
                            static_cast<size_t>(*num_roads);
    if (values->size() != expected) {
      return util::Status::InvalidArgument("table payload size mismatch");
    }
    table.data_ = std::move(*values);
    return table;
  }
  util::Result<int32_t> hop_radius = reader.ReadInt32();
  if (!hop_radius.ok()) return hop_radius.status();
  if (*hop_radius <= 0) {
    return util::Status::InvalidArgument(
        "sparse correlation table with non-positive hop radius");
  }
  util::Result<std::vector<int32_t>> offsets = reader.ReadInt32Vector();
  if (!offsets.ok()) return offsets.status();
  util::Result<std::vector<int32_t>> cols = reader.ReadInt32Vector();
  if (!cols.ok()) return cols.status();
  util::Result<std::vector<double>> vals = reader.ReadDoubleVector();
  if (!vals.ok()) return vals.status();
  if (offsets->size() != static_cast<size_t>(*num_roads) + 1) {
    return util::Status::InvalidArgument("sparse offset count mismatch");
  }
  if ((*offsets)[0] != 0 ||
      static_cast<size_t>(offsets->back()) != cols->size() ||
      cols->size() != vals->size()) {
    return util::Status::InvalidArgument("sparse payload size mismatch");
  }
  for (size_t r = 0; r + 1 < offsets->size(); ++r) {
    const int32_t begin = (*offsets)[r];
    const int32_t end = (*offsets)[r + 1];
    if (begin > end) {
      return util::Status::InvalidArgument(
          "sparse offsets must be non-decreasing");
    }
    for (int32_t k = begin; k < end; ++k) {
      const int32_t col = (*cols)[static_cast<size_t>(k)];
      if (col < 0 || col >= *num_roads) {
        return util::Status::InvalidArgument(
            "sparse column out of range");
      }
      if (k > begin && (*cols)[static_cast<size_t>(k - 1)] >= col) {
        return util::Status::InvalidArgument(
            "sparse row columns must be strictly increasing");
      }
    }
  }
  table.hop_radius_ = *hop_radius;
  table.row_offsets_.reserve(offsets->size());
  for (int32_t offset : *offsets) table.row_offsets_.push_back(offset);
  table.cols_ = std::move(*cols);
  table.vals_ = std::move(*vals);
  return table;
}

std::string CorrelationTable::Serialize() const {
  util::BinaryWriter writer;
  AppendTo(writer);
  return writer.buffer();
}

util::Result<CorrelationTable> CorrelationTable::Deserialize(
    const std::string& data) {
  util::BinaryReader reader(data);
  return ParseFrom(reader);
}

util::Status CorrelationTable::SaveToFile(const std::string& path) const {
  util::BinaryWriter writer;
  AppendTo(writer);
  return writer.Flush(path);
}

util::Result<CorrelationTable> CorrelationTable::LoadFromFile(
    const std::string& path) {
  util::Result<util::BinaryReader> reader =
      util::BinaryReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  return ParseFrom(*reader);
}

}  // namespace crowdrtse::rtf
