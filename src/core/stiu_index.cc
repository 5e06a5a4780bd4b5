#include "core/stiu_index.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/exp_golomb.h"
#include "common/varint.h"
#include "core/improved_ted.h"

namespace utcq::core {

namespace {

/// Entry index in E(.) of each path edge (accounting for the 0 repeats).
std::vector<uint32_t> EntryIndexOfPathEdge(
    const traj::TrajectoryInstance& inst) {
  std::vector<uint32_t> counts(inst.path.size(), 0);
  for (const auto& loc : inst.locations) ++counts[loc.path_index];
  std::vector<uint32_t> entry_idx(inst.path.size(), 0);
  uint32_t cursor = 0;
  for (size_t i = 0; i < inst.path.size(); ++i) {
    entry_idx[i] = cursor;
    cursor += 1 + (counts[i] > 1 ? counts[i] - 1 : 0);
  }
  return entry_idx;
}

/// First path-edge index entering each region, in travel order.
std::vector<std::pair<network::RegionId, uint32_t>> FirstVisits(
    const network::GridIndex& grid, const traj::TrajectoryInstance& inst) {
  std::vector<std::pair<network::RegionId, uint32_t>> visits;
  std::unordered_map<network::RegionId, bool> seen;
  for (uint32_t i = 0; i < inst.path.size(); ++i) {
    for (const network::RegionId re : grid.RegionsOfEdge(inst.path[i])) {
      if (!seen[re]) {
        seen[re] = true;
        visits.emplace_back(re, i);
      }
    }
  }
  return visits;
}

}  // namespace

StiuIndex::StiuIndex(const network::RoadNetwork& net,
                     const network::GridIndex& grid,
                     const traj::UncertainCorpus& corpus,
                     const CorpusView& cc,
                     const std::vector<std::vector<NrefFactorLayout>>& layouts,
                     StiuParams params)
    : grid_(grid), params_(params) {
  params_.time_partition_s = std::max<int64_t>(params_.time_partition_s, 1);
  const size_t partitions =
      static_cast<size_t>((traj::kSecondsPerDay + params_.time_partition_s - 1) /
                          params_.time_partition_s);
  temporal_.resize(corpus.size());
  // First and last partition each trajectory is active in.
  std::vector<std::pair<size_t, size_t>> active(corpus.size());
  region_refs_.resize(grid.num_regions());
  region_nrefs_.resize(grid.num_regions());

  for (size_t j = 0; j < corpus.size(); ++j) {
    const traj::UncertainTrajectory& tu = corpus[j];
    const TrajMeta& meta = cc.meta(j);

    // ---- temporal tuples: bit positions into the SIAR-coded T stream ----
    {
      // Skip the header (n varint + 17-bit t0) to find the first delta.
      common::BitReader r = cc.t_reader();
      r.Seek(meta.t_pos);
      common::GetVarint(r);
      r.GetBits(17);
      uint64_t pos = r.position();

      const auto deltas =
          SiarDeltas(tu.times, cc.params().default_interval_s);
      int64_t last_partition = -1;
      for (size_t i = 0; i < tu.times.size(); ++i) {
        const int64_t p = tu.times[i] / params_.time_partition_s;
        if (p != last_partition) {
          temporal_[j].push_back(
              {tu.times[i], static_cast<uint32_t>(i), pos});
          last_partition = p;
        }
        if (i < deltas.size()) {
          pos += common::ImprovedExpGolombLength(deltas[i]);
        }
      }
      const size_t first_p =
          static_cast<size_t>(tu.times.front() / params_.time_partition_s);
      const size_t last_p = std::min(
          partitions - 1,
          static_cast<size_t>(tu.times.back() / params_.time_partition_s));
      active[j] = {first_p, last_p};
    }

    // ---- spatial tuples ----
    // Region visit lists per instance, plus D-code bit offsets per ref.
    struct GroupAgg {
      float p_total = 0.0f;
      float p_max = 0.0f;  // over non-references only
      bool ref_passes = false;
      network::VertexId fv_id = network::kInvalidVertex;
      uint32_t fv_no = 0;
      uint32_t d_no = 0;
      uint64_t d_pos = 0;
    };
    // Aggregate per (region, ref group).
    std::unordered_map<uint64_t, GroupAgg> agg;
    auto key_of = [](network::RegionId re, uint32_t ref_pos) {
      return (static_cast<uint64_t>(re) << 20) | ref_pos;
    };

    for (uint32_t w = 0; w < tu.instances.size(); ++w) {
      const traj::TrajectoryInstance& inst = tu.instances[w];
      const auto [is_ref, idx] = meta.roles[w];
      const uint32_t ref_pos = is_ref ? idx : meta.nrefs[idx].ref_pos;
      const float p = is_ref ? meta.refs[idx].p_quantized
                             : meta.nrefs[idx].p_quantized;
      const auto entry_idx = EntryIndexOfPathEdge(inst);
      const auto visits = FirstVisits(grid, inst);

      // D-code offsets (references only): prefix bit lengths of codes.
      std::vector<uint64_t> d_offsets;
      if (is_ref) {
        d_offsets.resize(inst.locations.size() + 1, meta.refs[idx].d_pos);
        for (size_t k = 0; k < inst.locations.size(); ++k) {
          d_offsets[k + 1] =
              d_offsets[k] + cc.d_codec().CodeLength(inst.locations[k].rd);
        }
      }
      // Location ordinals per entry (gamma of the full bit-string).
      std::vector<uint32_t> gamma(inst.path.size(), 0);
      {
        uint32_t count = 0;
        size_t loc = 0;
        for (size_t i = 0; i < inst.path.size(); ++i) {
          while (loc < inst.locations.size() &&
                 inst.locations[loc].path_index == i) {
            ++count;
            ++loc;
          }
          gamma[i] = count;
        }
      }

      for (const auto& [re, path_edge] : visits) {
        GroupAgg& a = agg[key_of(re, ref_pos)];
        a.p_total += p;
        if (is_ref) {
          a.ref_passes = true;
          a.fv_no = entry_idx[path_edge];
          a.fv_id = path_edge == 0
                        ? traj::StartVertex(net, inst)
                        : net.edge(inst.path[path_edge]).from;
          a.d_no = path_edge == 0 ? 0 : gamma[path_edge - 1];
          // Bracketing D code: the last location at or before region entry.
          const uint32_t code =
              a.d_no > 0 ? a.d_no - 1 : 0;
          a.d_pos = d_offsets[std::min<size_t>(code, inst.locations.size())];
        } else {
          a.p_max = std::max(a.p_max, p);
          // Non-reference tuple.
          NrefTuple nt;
          nt.traj = static_cast<uint32_t>(j);
          nt.nref_idx = idx;
          nt.rv_no = entry_idx[path_edge];
          nt.rv_id = path_edge == 0
                         ? traj::StartVertex(net, inst)
                         : net.edge(inst.path[path_edge]).from;
          // Factor containing entry rv_no (ma.pos).
          const NrefFactorLayout& layout = layouts[j][idx];
          const auto it = std::upper_bound(layout.factor_entry_start.begin(),
                                           layout.factor_entry_start.end(),
                                           nt.rv_no);
          const size_t f =
              it == layout.factor_entry_start.begin()
                  ? 0
                  : static_cast<size_t>(it - layout.factor_entry_start.begin()) -
                        1;
          nt.ma_pos = f < layout.factor_bit_offset.size()
                          ? layout.factor_bit_offset[f]
                          : 0;
          region_nrefs_[re].push_back(nt);
        }
      }
    }

    for (const auto& [key, a] : agg) {
      RefTuple rt;
      rt.traj = static_cast<uint32_t>(j);
      rt.ref_idx = static_cast<uint32_t>(key & 0xFFFFFu);
      rt.fv_id = a.fv_id;
      rt.fv_no = a.fv_no;
      rt.d_no = a.d_no;
      rt.d_pos = a.d_pos;
      rt.p_total = a.p_total;
      rt.p_max = a.p_max;
      rt.ref_passes = a.ref_passes;
      region_refs_[static_cast<network::RegionId>(key >> 20)].push_back(rt);
    }
  }

  // Partition lists: count, then fill in trajectory order so every list
  // comes out ascending.
  partition_begin_.assign(partitions + 1, 0);
  for (const auto& [first, last] : active) {
    for (size_t p = first; p <= last; ++p) ++partition_begin_[p + 1];
  }
  for (size_t p = 0; p < partitions; ++p) {
    partition_begin_[p + 1] += partition_begin_[p];
  }
  partition_trajs_.resize(partition_begin_.back());
  std::vector<uint32_t> next(partition_begin_.begin(),
                             partition_begin_.end() - 1);
  for (size_t j = 0; j < active.size(); ++j) {
    for (size_t p = active[j].first; p <= active[j].second; ++p) {
      partition_trajs_[next[p]++] = static_cast<uint32_t>(j);
    }
  }
  BuildRuns();  // lists are sorted and in range by construction
}

StiuIndex::StiuIndex(const network::GridIndex& grid, common::ByteReader& in)
    : grid_(grid) {
  params_.cells_per_side = static_cast<uint32_t>(in.GetVarint());
  params_.time_partition_s =
      std::max<int64_t>(in.GetSignedVarint(), 1);

  const uint64_t num_trajs = in.GetVarint();
  const uint64_t num_partitions = in.GetVarint();
  const uint64_t num_regions = in.GetVarint();
  // An index only makes sense against the grid it was built over. Every
  // list below costs at least one payload byte per element, so any count
  // exceeding the remaining bytes is a corrupt length that would OOM
  // resize(); reject instead of allocating.
  const auto bad_count = [&in](uint64_t n) { return n > in.remaining(); };
  if (num_regions != grid.num_regions() || bad_count(num_trajs) ||
      bad_count(num_partitions) || !in.ok()) {
    in.Skip(in.remaining() + 1);  // latch ok() = false
    return;
  }

  temporal_.resize(num_trajs);
  for (auto& tuples : temporal_) {
    const uint64_t n = in.GetVarint();
    if (bad_count(n)) {
      in.Skip(in.remaining() + 1);
      break;
    }
    tuples.resize(n);
    traj::Timestamp prev_start = 0;
    for (auto& t : tuples) {
      t.t_start = prev_start + static_cast<traj::Timestamp>(in.GetVarint());
      prev_start = t.t_start;
      t.t_no = static_cast<uint32_t>(in.GetVarint());
      t.t_pos = in.GetVarint();
    }
  }
  // One offset per declared partition, not one container: a section
  // declaring many empty partitions costs 4 B each.
  partition_begin_.reserve(num_partitions + 1);
  partition_begin_.push_back(0);
  for (uint64_t p = 0; p < num_partitions; ++p) {
    const uint64_t n = in.GetVarint();
    if (bad_count(n)) {
      in.Skip(in.remaining() + 1);
      break;
    }
    for (uint64_t i = 0; i < n; ++i) {
      // Saturate rather than truncate: an id past 32 bits must fail
      // BuildRuns' range check, not alias a valid trajectory.
      partition_trajs_.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(in.GetVarint(), UINT32_MAX)));
    }
    partition_begin_.push_back(
        static_cast<uint32_t>(partition_trajs_.size()));
  }
  region_refs_.resize(num_regions);
  for (auto& tuples : region_refs_) {
    const uint64_t n = in.GetVarint();
    if (bad_count(n)) {
      in.Skip(in.remaining() + 1);
      break;
    }
    tuples.resize(n);
    for (auto& rt : tuples) {
      rt.traj = static_cast<uint32_t>(in.GetVarint());
      rt.ref_idx = static_cast<uint32_t>(in.GetVarint());
      rt.fv_id = static_cast<network::VertexId>(in.GetU32());
      rt.fv_no = static_cast<uint32_t>(in.GetVarint());
      rt.d_no = static_cast<uint32_t>(in.GetVarint());
      rt.d_pos = in.GetVarint();
      rt.p_total = in.GetF32();
      rt.p_max = in.GetF32();
      rt.ref_passes = in.GetU8() != 0;
    }
  }
  region_nrefs_.resize(num_regions);
  for (auto& tuples : region_nrefs_) {
    const uint64_t n = in.GetVarint();
    if (bad_count(n)) {
      in.Skip(in.remaining() + 1);
      break;
    }
    tuples.resize(n);
    for (auto& nt : tuples) {
      nt.traj = static_cast<uint32_t>(in.GetVarint());
      nt.nref_idx = static_cast<uint32_t>(in.GetVarint());
      nt.rv_id = static_cast<network::VertexId>(in.GetU32());
      nt.rv_no = static_cast<uint32_t>(in.GetVarint());
      nt.ma_pos = in.GetVarint();
    }
  }
  // The derived runs index per-trajectory arrays and binary-search the
  // lists, so an unsorted list or an out-of-range id is as malformed as a
  // bad count.
  if (in.ok() && !BuildRuns()) in.Skip(in.remaining() + 1);
  if (!in.ok()) {
    temporal_.clear();
    partition_begin_.clear();
    partition_trajs_.clear();
    region_refs_.clear();
    region_nrefs_.clear();
    runs_.clear();
    region_runs_.clear();
    postings_.clear();
    region_postings_.clear();
  }
}

bool StiuIndex::BuildRuns() {
  const size_t num_trajs = temporal_.size();
  const size_t num_regions = region_refs_.size();
  // Partitions each trajectory is listed in; the lists must be strictly
  // ascending, as the writer emits them and ForEachActiveRun searches them.
  const size_t listed = partition_trajs_.size();
  if (num_partitions() >= kWidePartition || listed >= UINT32_MAX) {
    return false;
  }
  std::vector<uint32_t> span(num_trajs, 0);
  for (size_t p = 0; p < num_partitions(); ++p) {
    const std::span<const uint32_t> trajs = TrajsIn(p);
    for (size_t i = 0; i < trajs.size(); ++i) {
      if (trajs[i] >= num_trajs || (i > 0 && trajs[i] <= trajs[i - 1])) {
        return false;
      }
      ++span[trajs[i]];
    }
  }
  // Each trajectory's partitions, ascending (a CSR over part_begin).
  std::vector<uint32_t> part_begin(num_trajs + 1, 0);
  for (size_t j = 0; j < num_trajs; ++j) {
    part_begin[j + 1] = part_begin[j] + span[j];
  }
  std::vector<uint32_t> parts(listed);
  {
    std::vector<uint32_t> next(part_begin.begin(), part_begin.end() - 1);
    for (uint32_t p = 0; p < num_partitions(); ++p) {
      for (const uint32_t j : TrajsIn(p)) parts[next[j]++] = p;
    }
  }

  // Runs: per region, a merge of its two lists into one run per
  // trajectory, then the sentinel. Once a trajectory's tuples are skipped,
  // a head below it means a list is out of trajectory order.
  region_runs_.assign(num_regions + 1, 0);
  for (size_t re = 0; re < num_regions; ++re) {
    const auto& refs = region_refs_[re];
    const auto& nrefs = region_nrefs_[re];
    if (refs.size() >= UINT32_MAX || nrefs.size() >= UINT32_MAX) return false;
    size_t a = 0;
    size_t b = 0;
    while (a < refs.size() || b < nrefs.size()) {
      const uint32_t j = std::min(a < refs.size() ? refs[a].traj : kNoTraj,
                                  b < nrefs.size() ? nrefs[b].traj : kNoTraj);
      if (j >= num_trajs) return false;
      runs_.push_back({j, static_cast<uint32_t>(a), static_cast<uint32_t>(b)});
      while (a < refs.size() && refs[a].traj == j) ++a;
      while (b < nrefs.size() && nrefs[b].traj == j) ++b;
      if ((a < refs.size() && refs[a].traj < j) ||
          (b < nrefs.size() && nrefs[b].traj < j)) {
        return false;
      }
    }
    runs_.push_back({kNoTraj, static_cast<uint32_t>(refs.size()),
                     static_cast<uint32_t>(nrefs.size())});
    if (runs_.size() >= UINT32_MAX) return false;
    region_runs_[re + 1] = static_cast<uint32_t>(runs_.size());
  }
  runs_.shrink_to_fit();

  // Postings: each run under every partition listing its trajectory, or
  // once under kWidePartition; sorted by (partition, run) per region.
  size_t num_postings = 0;
  for (const Run& r : runs_) {
    if (r.traj != kNoTraj) {
      num_postings += span[r.traj] > kMaxPostedSpan ? 1 : span[r.traj];
    }
  }
  if (num_postings >= UINT32_MAX) return false;
  postings_.reserve(num_postings);
  region_postings_.assign(num_regions + 1, 0);
  for (size_t re = 0; re < num_regions; ++re) {
    for (uint32_t run = region_runs_[re]; run + 1 < region_runs_[re + 1];
         ++run) {
      const uint32_t j = runs_[run].traj;
      if (span[j] > kMaxPostedSpan) {
        postings_.push_back({kWidePartition, run});
        continue;
      }
      for (uint32_t k = part_begin[j]; k < part_begin[j + 1]; ++k) {
        postings_.push_back({parts[k], run});
      }
    }
    std::sort(postings_.begin() + region_postings_[re], postings_.end(),
              [](const Posting& x, const Posting& y) {
                return x.partition != y.partition ? x.partition < y.partition
                                                  : x.run < y.run;
              });
    region_postings_[re + 1] = static_cast<uint32_t>(postings_.size());
  }
  return true;
}

void StiuIndex::Serialize(common::ByteWriter& out) const {
  out.PutVarint(params_.cells_per_side);
  out.PutSignedVarint(params_.time_partition_s);

  out.PutVarint(temporal_.size());
  out.PutVarint(num_partitions());
  out.PutVarint(region_refs_.size());

  for (const auto& tuples : temporal_) {
    out.PutVarint(tuples.size());
    // t_start is monotone within a trajectory: delta-code it.
    traj::Timestamp prev_start = 0;
    for (const auto& t : tuples) {
      out.PutVarint(static_cast<uint64_t>(t.t_start - prev_start));
      prev_start = t.t_start;
      out.PutVarint(t.t_no);
      out.PutVarint(t.t_pos);
    }
  }
  for (size_t p = 0; p < num_partitions(); ++p) {
    const std::span<const uint32_t> trajs = TrajsIn(p);
    out.PutVarint(trajs.size());
    for (const uint32_t j : trajs) out.PutVarint(j);
  }
  for (const auto& tuples : region_refs_) {
    out.PutVarint(tuples.size());
    for (const auto& rt : tuples) {
      out.PutVarint(rt.traj);
      out.PutVarint(rt.ref_idx);
      out.PutU32(rt.fv_id);
      out.PutVarint(rt.fv_no);
      out.PutVarint(rt.d_no);
      out.PutVarint(rt.d_pos);
      out.PutF32(rt.p_total);
      out.PutF32(rt.p_max);
      out.PutU8(rt.ref_passes ? 1 : 0);
    }
  }
  for (const auto& tuples : region_nrefs_) {
    out.PutVarint(tuples.size());
    for (const auto& nt : tuples) {
      out.PutVarint(nt.traj);
      out.PutVarint(nt.nref_idx);
      out.PutU32(nt.rv_id);
      out.PutVarint(nt.rv_no);
      out.PutVarint(nt.ma_pos);
    }
  }
}

const StiuIndex::TemporalTuple& StiuIndex::TemporalTupleFor(
    size_t j, traj::Timestamp t) const {
  const auto& tuples = temporal_[j];
  // Latest tuple with t_start <= t.
  auto it = std::upper_bound(
      tuples.begin(), tuples.end(), t,
      [](traj::Timestamp v, const TemporalTuple& tup) { return v < tup.t_start; });
  if (it != tuples.begin()) --it;
  return *it;
}

std::optional<size_t> StiuIndex::PartitionAt(traj::Timestamp t) const {
  if (t < 0) return std::nullopt;
  const size_t p = static_cast<size_t>(t / params_.time_partition_s);
  if (p >= num_partitions()) return std::nullopt;
  return p;
}

StiuIndex::RunTuples StiuIndex::TuplesOf(network::RegionId re,
                                         uint32_t j) const {
  const Run* const first = runs_.data() + region_runs_[re];
  const Run* const last = runs_.data() + region_runs_[re + 1] - 1;  // sentinel
  const Run* it = std::lower_bound(
      first, last, j, [](const Run& r, uint32_t v) { return r.traj < v; });
  if (it == last || it->traj != j) return {};
  return TuplesOfRun(re, static_cast<uint32_t>(it - runs_.data()));
}

size_t StiuIndex::temporal_size_bytes() const {
  size_t bytes = 0;
  for (const auto& v : temporal_) bytes += v.size() * sizeof(TemporalTuple);
  return bytes + partition_trajs_.size() * sizeof(uint32_t);
}

size_t StiuIndex::spatial_size_bytes() const {
  size_t bytes = 0;
  for (const auto& v : region_refs_) bytes += v.size() * sizeof(RefTuple);
  for (const auto& v : region_nrefs_) bytes += v.size() * sizeof(NrefTuple);
  return bytes;
}

size_t StiuIndex::SizeBytes() const {
  return sizeof(*this) + temporal_size_bytes() + spatial_size_bytes() +
         runs_.size() * sizeof(Run) + postings_.size() * sizeof(Posting) +
         (partition_begin_.size() + region_runs_.size() +
          region_postings_.size()) *
             sizeof(uint32_t);
}

}  // namespace utcq::core
