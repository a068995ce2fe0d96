#include "gsp/propagation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "graph/bfs.h"
#include "obs/flight_recorder.h"

namespace crowdrtse::gsp {

namespace {

/// Everything a sweep kernel touches, as raw pointers.
///
/// The unrolled kernel reads the *packed* arrays: per-query copies of the
/// slot parameters laid out contiguously in relax order (see PackRows), so
/// a sweep streams every input sequentially except the unavoidable
/// speeds[neighbour] gather. `model` and `slot` exist only for the
/// kReference kernel, which re-derives the weights through the accessor
/// API each visit.
struct SweepContext {
  // The relax order, level-contiguous; one sweep visits it front to back.
  const graph::RoadId* order = nullptr;
  size_t order_size = 0;
  // Packed relax-order views (valid for positions [0, order_size]).
  const size_t* packed_offsets = nullptr;  // position -> packed row start
  const graph::RoadId* packed_ids = nullptr;
  const double* packed_w = nullptr;     // pair_inv_var in relax order
  const double* packed_m = nullptr;     // pair_mean in relax order
  const double* packed_mu = nullptr;    // mu_inv_var per position
  const double* packed_base = nullptr;  // num_base per position
  const double* packed_den = nullptr;   // Eq. (18) denominator per position
  double* speeds = nullptr;
  const rtf::RtfModel* model = nullptr;
  int slot = 0;
};

/// One sweep: relaxes the roads of the relax order in place, front to
/// back; returns max |delta|.
using SweepFn = double (*)(const SweepContext&);

/// Original Eq. (18) formulation through the accessor API, with the
/// inverse-variance clamp (the unguarded 1/sigma^2 was the NaN-poisoning
/// bug). Accumulates in adjacency order, multiplying by the reciprocal —
/// exactly the arithmetic the unrolled kernel performs on rows of degree
/// < 4, so those rows are bit-identical between the two.
inline double UpdateRoadReference(const rtf::RtfModel& model, int slot,
                                  graph::RoadId road, const double* speeds,
                                  uint64_t* clamps) {
  const double sigma_i = model.Sigma(slot, road);
  const double inv_var_i =
      rtf::ClampedInvVariance(sigma_i * sigma_i, clamps);
  double numerator = model.Mu(slot, road) * inv_var_i;
  double denominator = inv_var_i;
  for (const graph::Adjacency& adj : model.graph().Neighbors(road)) {
    const double inv_pair =
        rtf::ClampedInvVariance(model.PairVariance(slot, adj.edge), clamps);
    const double mu_ij = model.PairMean(slot, road, adj.neighbor);
    numerator +=
        (speeds[static_cast<size_t>(adj.neighbor)] + mu_ij) * inv_pair;
    denominator += inv_pair;
  }
  return numerator / denominator;
}

double SweepReference(const SweepContext& c) {
  double local = 0.0;
  uint64_t clamps = 0;
  for (size_t pos = 0; pos < c.order_size; ++pos) {
    const graph::RoadId road = c.order[pos];
    const size_t ri = static_cast<size_t>(road);
    const double updated =
        UpdateRoadReference(*c.model, c.slot, road, c.speeds, &clamps);
    local = std::max(local, std::fabs(updated - c.speeds[ri]));
    c.speeds[ri] = updated;
  }
  rtf::AddInvVarianceClamps(clamps);
  return local;
}

/// Software prefetch for the unrolled kernel. After packing, every stream
/// but speeds[neighbour] is sequential (hardware-prefetched); the sweep is
/// latency-bound on those scattered speed reads at metro scale, so pull
/// the speeds of a row a couple of positions ahead — its packed ids are
/// already resident. Prefetching performs no arithmetic, so the results
/// are unchanged.
inline void PrefetchSpeeds(const SweepContext& c, size_t pos) {
  const size_t ahead = pos + 2;
  if (ahead >= c.order_size) return;
  const size_t begin = c.packed_offsets[ahead];
  const size_t end = c.packed_offsets[ahead + 1];
  for (size_t k = begin; k < end; ++k) {
    __builtin_prefetch(
        c.speeds + static_cast<size_t>(c.packed_ids[k]), 0, 1);
  }
}

/// Production sweep: the speed-independent part of the numerator
/// (mu_i/sigma_i^2 + sum_j mu_ij/sigma_ij^2) is read pre-folded from
/// packed_base, and only sum_j v_j/sigma_ij^2 accumulates per sweep — in
/// four independent lanes combined pairwise ((l0+l1)+(l2+l3)). The
/// denominator is read from the precomputed inv_var_sum fold, which holds
/// the bit-exact value the reference's accumulation produces. Relative to
/// the reference this reassociates the numerator by <= ~1e-12 (documented
/// tolerance); rows of degree < 4 take the reference's association and
/// stay bit-identical.
double SweepUnrolled(const SweepContext& c) {
  double local = 0.0;
  for (size_t pos = 0; pos < c.order_size; ++pos) {
    PrefetchSpeeds(c, pos);
    const size_t begin = c.packed_offsets[pos];
    const size_t end = c.packed_offsets[pos + 1];
    double num;
    if (end - begin < 4) {
      // Short rows: the reference's association, bit-identical to it.
      num = c.packed_mu[pos];
      for (size_t k = begin; k < end; ++k) {
        num += (c.speeds[static_cast<size_t>(c.packed_ids[k])] +
                c.packed_m[k]) *
               c.packed_w[k];
      }
    } else {
      double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
      size_t k = begin;
      for (; k + 4 <= end; k += 4) {
        n0 += c.speeds[static_cast<size_t>(c.packed_ids[k])] *
              c.packed_w[k];
        n1 += c.speeds[static_cast<size_t>(c.packed_ids[k + 1])] *
              c.packed_w[k + 1];
        n2 += c.speeds[static_cast<size_t>(c.packed_ids[k + 2])] *
              c.packed_w[k + 2];
        n3 += c.speeds[static_cast<size_t>(c.packed_ids[k + 3])] *
              c.packed_w[k + 3];
      }
      num = c.packed_base[pos] + ((n0 + n1) + (n2 + n3));
      for (; k < end; ++k) {
        num += c.speeds[static_cast<size_t>(c.packed_ids[k])] *
               c.packed_w[k];
      }
    }
    const double updated = num / c.packed_den[pos];
    const size_t ri = static_cast<size_t>(c.order[pos]);
    local = std::max(local, std::fabs(updated - c.speeds[ri]));
    c.speeds[ri] = updated;
  }
  return local;
}

/// Per-thread arena for the per-query scratch: the H-ball BFS, the speed
/// field, the relax order's packed parameter copies. Nothing in it is
/// filled per query at the graph's size: the BFS and the speed field are
/// epoch-stamped (a road's entry is valid only while its stamp equals the
/// current epoch, and every other road reads its periodic mean mu), so a
/// propagation touches the sampled roads, the H-ball and the ball's
/// neighbours only. Reused across queries, so steady-state propagation
/// allocates nothing.
struct Workspace {
  graph::StampedBfs bfs;
  std::vector<double> speeds;
  std::vector<uint32_t> speed_stamp;
  uint32_t speed_epoch = 0;
  // Packed relax-order copies of the slot parameters (see PackRows).
  std::vector<size_t> packed_offsets;
  std::vector<graph::RoadId> packed_ids;
  std::vector<double> packed_w;
  std::vector<double> packed_m;
  std::vector<double> packed_mu;
  std::vector<double> packed_base;
  std::vector<double> packed_den;

  /// Starts a new speed field over a graph of `n` roads.
  void BeginField(size_t n) {
    if (speed_stamp.size() < n) {
      speed_stamp.resize(n, 0);
      speeds.resize(n, 0.0);
    }
    if (++speed_epoch == 0) {
      std::fill(speed_stamp.begin(), speed_stamp.end(), 0u);
      speed_epoch = 1;
    }
  }

  bool Touched(graph::RoadId r) const {
    return speed_stamp[static_cast<size_t>(r)] == speed_epoch;
  }

  /// Brings road r into the field at its periodic mean (no-op when it is
  /// already there).
  void Touch(const rtf::RtfModel& model, int slot, graph::RoadId r) {
    if (Touched(r)) return;
    speed_stamp[static_cast<size_t>(r)] = speed_epoch;
    speeds[static_cast<size_t>(r)] = model.Mu(slot, r);
  }

  /// Road r's speed in the last propagation.
  double SpeedOf(const rtf::RtfModel& model, int slot,
                 graph::RoadId r) const {
    return Touched(r) ? speeds[static_cast<size_t>(r)] : model.Mu(slot, r);
  }
};

Workspace& ThreadWorkspace() {
  thread_local Workspace workspace;
  return workspace;
}

/// Copies the rows the query relaxes (the slot's SoA parameters over the
/// graph's CSR rows) into arrays contiguous in relax order, one pass.
/// Sweeps run several times over the same order (up to max_sweeps), so
/// paying one sequential copy turns every per-sweep parameter read from a
/// road-indexed scatter into a stream — only the speeds gather stays
/// irregular. Values are copied bit-for-bit; the arithmetic is unchanged.
void PackRows(const rtf::RtfModel::SlotSoa& soa, const graph::Graph& graph,
              Workspace& ws, SweepContext& c) {
  const std::span<const size_t> row_offsets = graph.RowOffsets();
  const std::span<const graph::RoadId> neighbor_ids = graph.NeighborIds();
  const size_t m = c.order_size;
  ws.packed_offsets.resize(m + 1);
  ws.packed_mu.resize(m);
  ws.packed_base.resize(m);
  ws.packed_den.resize(m);
  size_t total = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t r = static_cast<size_t>(c.order[i]);
    total += row_offsets[r + 1] - row_offsets[r];
  }
  ws.packed_ids.resize(total);
  ws.packed_w.resize(total);
  ws.packed_m.resize(total);
  size_t cursor = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t r = static_cast<size_t>(c.order[i]);
    ws.packed_offsets[i] = cursor;
    ws.packed_mu[i] = soa.mu_inv_var[r];
    ws.packed_base[i] = soa.num_base[r];
    ws.packed_den[i] = soa.inv_var_sum[r];
    const size_t begin = row_offsets[r];
    const size_t row = row_offsets[r + 1] - begin;
    std::copy_n(neighbor_ids.begin() + begin, row,
                ws.packed_ids.data() + cursor);
    std::copy_n(soa.pair_inv_var.begin() + begin, row,
                ws.packed_w.data() + cursor);
    std::copy_n(soa.pair_mean.begin() + begin, row,
                ws.packed_m.data() + cursor);
    cursor += row;
  }
  ws.packed_offsets[m] = cursor;
  c.packed_offsets = ws.packed_offsets.data();
  c.packed_ids = ws.packed_ids.data();
  c.packed_w = ws.packed_w.data();
  c.packed_m = ws.packed_m.data();
  c.packed_mu = ws.packed_mu.data();
  c.packed_base = ws.packed_base.data();
  c.packed_den = ws.packed_den.data();
}

/// Sweeps until no road moves by epsilon or the sweep cap is hit.
int RunSweeps(const SweepContext& ctx, SweepFn fn, double epsilon,
              int max_sweeps, bool& converged) {
  converged = false;
  int sweeps = 0;
  while (sweeps < max_sweeps) {
    ++sweeps;
    const double max_delta = fn(ctx);
    if (max_delta < epsilon) {
      converged = true;
      break;
    }
  }
  return sweeps;
}

}  // namespace

SpeedPropagator::SpeedPropagator(const rtf::RtfModel& model,
                                 GspOptions options)
    : model_(model), options_(options) {}

double SpeedPropagator::UpdateValue(int slot, graph::RoadId road,
                                    const std::vector<double>& speeds) const {
  uint64_t clamps = 0;
  const double updated =
      UpdateRoadReference(model_, slot, road, speeds.data(), &clamps);
  rtf::AddInvVarianceClamps(clamps);
  return updated;
}

util::Result<SpeedPropagator::FieldStats> SpeedPropagator::SolveField(
    int slot, const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<double>& sampled_speeds) const {
  if (slot < 0 || slot >= model_.num_slots()) {
    return util::Status::OutOfRange("slot out of range: " +
                                    std::to_string(slot));
  }
  if (sampled_roads.size() != sampled_speeds.size()) {
    return util::Status::InvalidArgument(
        "sampled roads/speeds length mismatch");
  }
  const int n = model_.num_roads();
  for (graph::RoadId r : sampled_roads) {
    if (r < 0 || r >= n) {
      return util::Status::InvalidArgument("sampled road out of range: " +
                                           std::to_string(r));
    }
  }
  if (options_.epsilon <= 0.0) {
    return util::Status::InvalidArgument("epsilon must be positive");
  }
  if (options_.hop_limit < 0) {
    return util::Status::InvalidArgument("hop_limit must be >= 0");
  }

  // Initialise: sampled roads take the probed data (a later duplicate
  // wins), everything else its periodic mean (paper "Initialization") —
  // implicitly, for every road the field never touches.
  Workspace& ws = ThreadWorkspace();
  ws.BeginField(static_cast<size_t>(n));
  for (size_t i = 0; i < sampled_roads.size(); ++i) {
    ws.Touch(model_, slot, sampled_roads[i]);
    ws.speeds[static_cast<size_t>(sampled_roads[i])] = sampled_speeds[i];
  }

  // Schedule: BFS hop levels from the sampled roads; level 0 (the samples
  // themselves, each exactly once) stays fixed, deeper levels update in
  // ascending hop order — the tail of the BFS order from level 1 on, which
  // holds no sampled road. A hop limit H stops the BFS at level H: nothing
  // deeper is relaxed.
  graph::StampedBfs& bfs = ws.bfs;
  bfs.Run(model_.graph(), sampled_roads,
          options_.hop_limit > 0 ? options_.hop_limit : -1);
  SweepContext ctx;
  if (bfs.num_levels() > 1) {
    const size_t begin = static_cast<size_t>(bfs.level_offsets()[1]);
    ctx.order = bfs.order().data() + begin;
    ctx.order_size = bfs.order().size() - begin;
  }
  FieldStats stats;
  if (ctx.order_size == 0) {
    // Nothing to relax: either no samples (pure periodic estimate) or the
    // samples cover everything.
    stats.converged = true;
    obs::RecordEvent(obs::EventKind::kGspSweep, slot, 0, 1);
    return stats;
  }
  // Every speed a sweep reads: the relaxed roads and their neighbours.
  for (size_t pos = 0; pos < ctx.order_size; ++pos) {
    const graph::RoadId r = ctx.order[pos];
    ws.Touch(model_, slot, r);
    for (const graph::Adjacency& adj : model_.graph().Neighbors(r)) {
      ws.Touch(model_, slot, adj.neighbor);
    }
  }

  ctx.speeds = ws.speeds.data();
  SweepFn fn = &SweepReference;
  if (options_.kernel == GspKernel::kReference) {
    ctx.model = &model_;
    ctx.slot = slot;
  } else {
    PackRows(model_.Soa(slot), model_.graph(), ws, ctx);
    fn = &SweepUnrolled;
  }
  stats.sweeps = RunSweeps(ctx, fn, options_.epsilon, options_.max_sweeps,
                           stats.converged);
  stats.relaxed = static_cast<int64_t>(ctx.order_size) * stats.sweeps;
  // ONE flight record per propagation (sweep count in the payload), never
  // per sweep: Propagate runs per query per shard while a sweep runs tens
  // of times inside it — per-iteration records would monopolize the ring.
  obs::RecordEvent(obs::EventKind::kGspSweep, slot, stats.sweeps,
                   stats.converged ? 1 : 0);
  return stats;
}

util::Result<GspResult> SpeedPropagator::Propagate(
    int slot, const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<double>& sampled_speeds) const {
  util::Result<FieldStats> stats =
      SolveField(slot, sampled_roads, sampled_speeds);
  if (!stats.ok()) return stats.status();
  const Workspace& ws = ThreadWorkspace();
  const int n = model_.num_roads();
  GspResult result;
  result.sweeps = stats->sweeps;
  result.converged = stats->converged;
  result.speeds.resize(static_cast<size_t>(n));
  result.hops.resize(static_cast<size_t>(n));
  for (graph::RoadId r = 0; r < n; ++r) {
    result.speeds[static_cast<size_t>(r)] = ws.SpeedOf(model_, slot, r);
    result.hops[static_cast<size_t>(r)] = ws.bfs.Hops(r);
  }
  return result;
}

util::Result<GspReadout> SpeedPropagator::PropagateAt(
    int slot, const std::vector<graph::RoadId>& sampled_roads,
    const std::vector<double>& sampled_speeds,
    const std::vector<graph::RoadId>& read_roads) const {
  for (graph::RoadId r : read_roads) {
    if (r < 0 || r >= model_.num_roads()) {
      return util::Status::InvalidArgument("read road out of range: " +
                                           std::to_string(r));
    }
  }
  util::Result<FieldStats> stats =
      SolveField(slot, sampled_roads, sampled_speeds);
  if (!stats.ok()) return stats.status();
  const Workspace& ws = ThreadWorkspace();
  GspReadout out;
  out.sweeps = stats->sweeps;
  out.converged = stats->converged;
  out.relaxed = stats->relaxed;
  out.speeds.reserve(read_roads.size());
  for (graph::RoadId r : read_roads) {
    out.speeds.push_back(ws.SpeedOf(model_, slot, r));
  }
  return out;
}

}  // namespace crowdrtse::gsp
