#ifndef UTCQ_CORE_STIU_INDEX_H_
#define UTCQ_CORE_STIU_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "core/corpus_view.h"
#include "network/grid_index.h"
#include "traj/types.h"

namespace utcq::core {

struct StiuParams {
  uint32_t cells_per_side = 32;       // spatial grid (Table 7: 8^2..128^2)
  int64_t time_partition_s = 1800;    // Table 7: 10..60 minutes
};

/// Spatio-temporal Information based Uncertain Trajectory Index
/// (Section 5.2). Built during compression: temporal tuples point into the
/// SIAR-coded T stream so where/range queries decode only the deltas after
/// the partition start; spatial tuples carry the final-vertex anchors plus
/// the p_total / p_max aggregates Lemmas 1-4 prune with.
///
/// The index is persistable: Serialize writes every tuple list to a byte
/// stream (the archive's StIU section) and the deserializing constructor
/// rebuilds an identical index against a grid reconstructed from the stored
/// cells_per_side — nothing in the loaded index depends on the original
/// uncompressed corpus.
///
/// Each region's ref and nref lists are sorted by trajectory. Both
/// constructors derive an in-memory candidate structure from them that is
/// never persisted: per region, one *run* per trajectory (the slices of
/// its tuples), and partition postings naming the runs of the trajectories
/// each time partition lists as active. A range query at tq reads only the
/// runs active in tq's partition; a when query binary-searches one
/// trajectory's run. Deriving it keeps every archive byte unchanged.
class StiuIndex {
 public:
  /// (t.start, t.no, t.pos) of Section 5.2's temporal part.
  struct TemporalTuple {
    traj::Timestamp t_start = 0;
    uint32_t t_no = 0;
    uint64_t t_pos = 0;  // absolute bit position of the (t_no+1)-th delta
  };

  /// Tuple of a reference w.r.t. a region (first form: the reference passes
  /// the region; second form, ref_passes = false: only members of its Rrs
  /// do — the paper's fv.id = infinity case).
  struct RefTuple {
    uint32_t traj = 0;
    uint32_t ref_idx = 0;
    network::VertexId fv_id = network::kInvalidVertex;
    uint32_t fv_no = 0;   // entry index of the region's first edge in E(ref)
    uint32_t d_no = 0;    // gamma(fv_no): locations at or before that entry
    uint64_t d_pos = 0;   // bit position of the bracketing D code
    float p_total = 0.0f;
    float p_max = 0.0f;   // max non-reference probability in the region
    bool ref_passes = false;
  };

  /// Tuple of a non-reference w.r.t. a region.
  struct NrefTuple {
    uint32_t traj = 0;
    uint32_t nref_idx = 0;
    network::VertexId rv_id = network::kInvalidVertex;
    uint32_t rv_no = 0;   // entry index of the region's first edge in E(nref)
    uint64_t ma_pos = 0;  // bit offset of the factor containing that entry
  };

  /// One trajectory's tuples within one region.
  struct RunTuples {
    std::span<const RefTuple> refs;
    std::span<const NrefTuple> nrefs;
  };

  /// Builds the index during compression (needs the uncompressed corpus for
  /// the spatial aggregates and the factor layouts for ma.pos).
  StiuIndex(const network::RoadNetwork& net, const network::GridIndex& grid,
            const traj::UncertainCorpus& corpus, const CorpusView& cc,
            const std::vector<std::vector<NrefFactorLayout>>& layouts,
            StiuParams params);

  /// Rebuilds an index from a Serialize()d byte stream (the archive's StIU
  /// section). `grid` must have been constructed with the cells_per_side
  /// recorded alongside the section; region-count mismatches, region lists
  /// not sorted by trajectory, and trajectory ids past the trajectory count
  /// (in region or partition lists, or partition lists not strictly
  /// ascending) latch `in.ok()` false and leave the index empty.
  StiuIndex(const network::GridIndex& grid, common::ByteReader& in);

  /// Writes params and every tuple list; the exact inverse of the reading
  /// constructor.
  void Serialize(common::ByteWriter& out) const;

  const network::GridIndex& grid() const { return grid_; }
  const StiuParams& params() const { return params_; }
  int64_t time_partition_s() const { return params_.time_partition_s; }

  /// Number of trajectories the index covers (TemporalOf's valid range).
  size_t num_trajectories() const { return temporal_.size(); }

  /// Temporal tuples of trajectory `j`, ordered by t_start.
  const std::vector<TemporalTuple>& TemporalOf(size_t j) const {
    return temporal_[j];
  }

  /// Best tuple to start a partial T decode for time `t` (the latest tuple
  /// with t_start <= t), or the first tuple when t precedes them all.
  const TemporalTuple& TemporalTupleFor(size_t j, traj::Timestamp t) const;

  /// Time partition containing `t`, or nullopt when no partition list
  /// covers it.
  std::optional<size_t> PartitionAt(traj::Timestamp t) const;

  const std::vector<RefTuple>& RefTuplesIn(network::RegionId re) const {
    return region_refs_[re];
  }
  const std::vector<NrefTuple>& NrefTuplesIn(network::RegionId re) const {
    return region_nrefs_[re];
  }

  /// The tuples trajectory `j` has in region `re` (both spans empty when it
  /// has none): a binary search over the region's runs.
  RunTuples TuplesOf(network::RegionId re, uint32_t j) const;

  /// Calls fn(RunTuples) once per trajectory that has tuples in region `re`
  /// and is active in partition `p` (p < the partition count, see
  /// PartitionAt), so the caller touches only the tuples it will use.
  template <typename Fn>
  void ForEachActiveRun(network::RegionId re, size_t p, Fn&& fn) const;

  /// Persisted tuples plus the derived runs and postings.
  size_t SizeBytes() const;
  size_t temporal_size_bytes() const;
  size_t spatial_size_bytes() const;

 private:
  /// Tuples [ref_begin, next run's ref_begin) of region_refs_[re], and
  /// likewise for nrefs. Each region's runs end in a sentinel run, so the
  /// next run always exists.
  struct Run {
    uint32_t traj = 0;
    uint32_t ref_begin = 0;
    uint32_t nref_begin = 0;
  };
  /// A run active in `partition`. Runs of trajectories spanning more than
  /// kMaxPostedSpan partitions are posted once under kWidePartition and
  /// checked against partition_trajs_ at query time instead, so the
  /// postings stay O(runs) whatever the partition count and spans.
  struct Posting {
    uint32_t partition = 0;
    uint32_t run = 0;
  };
  static constexpr uint32_t kWidePartition = UINT32_MAX;
  static constexpr uint32_t kNoTraj = UINT32_MAX;  // sentinel runs
  static constexpr uint32_t kMaxPostedSpan = 8;

  /// Validates the tuple and partition lists and derives runs_ and
  /// postings_ from them; false when a list is out of order, names a
  /// trajectory out of range, or outgrows the 32-bit run and posting ids.
  bool BuildRuns();

  RunTuples TuplesOfRun(network::RegionId re, uint32_t run) const {
    const Run& r = runs_[run];
    const Run& next = runs_[run + 1];
    return {{region_refs_[re].data() + r.ref_begin,
             region_refs_[re].data() + next.ref_begin},
            {region_nrefs_[re].data() + r.nref_begin,
             region_nrefs_[re].data() + next.nref_begin}};
  }

  const network::GridIndex& grid_;
  StiuParams params_;
  std::vector<std::vector<TemporalTuple>> temporal_;   // [traj]
  std::vector<std::vector<uint32_t>> partition_trajs_; // [partition]
  std::vector<std::vector<RefTuple>> region_refs_;     // [region]
  std::vector<std::vector<NrefTuple>> region_nrefs_;   // [region]
  // Derived by BuildRuns, never persisted.
  std::vector<Run> runs_;                  // region-major, sorted by traj
  std::vector<uint32_t> region_runs_;      // [region + 1] offsets into runs_
  std::vector<Posting> postings_;          // region-major, sorted
  std::vector<uint32_t> region_postings_;  // [region + 1] offsets
};

template <typename Fn>
void StiuIndex::ForEachActiveRun(network::RegionId re, size_t p,
                                 Fn&& fn) const {
  const Posting* const last = postings_.data() + region_postings_[re + 1];
  const Posting* it = std::lower_bound(
      postings_.data() + region_postings_[re], last, p,
      [](const Posting& a, size_t v) { return a.partition < v; });
  for (; it != last && it->partition == p; ++it) fn(TuplesOfRun(re, it->run));
  const std::vector<uint32_t>& active = partition_trajs_[p];
  for (it = std::lower_bound(
           it, last, kWidePartition,
           [](const Posting& a, uint32_t v) { return a.partition < v; });
       it != last; ++it) {
    if (std::binary_search(active.begin(), active.end(),
                           runs_[it->run].traj)) {
      fn(TuplesOfRun(re, it->run));
    }
  }
}

}  // namespace utcq::core

#endif  // UTCQ_CORE_STIU_INDEX_H_
