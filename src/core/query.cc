#include "core/query.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace utcq::core {

using network::Rect;
using traj::NetworkPosition;
using traj::Timestamp;
using traj::TrajectoryInstance;

namespace {

/// Asks `provider` (if any) for trajectory j's handle. A handle is only
/// trusted when its shape matches the trajectory's meta — anything else
/// (wrong trajectory, stale cache) decodes inline instead of indexing out
/// of bounds. Callers pin only after their own meta/index rejections; the
/// shared_ptr guards the query against concurrent eviction.
std::shared_ptr<const traj::DecodedTraj> PinHandle(
    const traj::DecodedProvider& provider, size_t j, const TrajMeta& meta) {
  if (!provider) return nullptr;
  auto dt = provider(static_cast<uint32_t>(j));
  if (dt != nullptr && (dt->times.size() != meta.n_points ||
                        dt->ref_insts.size() != meta.refs.size() ||
                        dt->nref_insts.size() != meta.nrefs.size())) {
    return nullptr;
  }
  return dt;
}

/// The one fallback rule of every handle-aware site below: with a handle,
/// an instance comes from its slot (nullptr when reconstruction had
/// failed); without one, `decode` materializes it into `storage`.
template <typename DecodeFn>
const TrajectoryInstance* SlotOrDecode(
    const traj::DecodedTraj* dt,
    std::vector<std::optional<TrajectoryInstance>> traj::DecodedTraj::*slots,
    uint32_t idx, std::optional<TrajectoryInstance>& storage,
    DecodeFn&& decode) {
  if (dt != nullptr) {
    const std::optional<TrajectoryInstance>& slot = (dt->*slots)[idx];
    return slot.has_value() ? &*slot : nullptr;
  }
  storage = decode();
  return storage.has_value() ? &*storage : nullptr;
}

}  // namespace

SubpathRelation ClassifySubpath(const network::RoadNetwork& net,
                                const TrajectoryInstance& inst, size_t i,
                                const Rect& re) {
  const uint32_t from = inst.locations[i].path_index;
  const uint32_t to = i + 1 < inst.locations.size()
                          ? inst.locations[i + 1].path_index
                          : from;
  // Degenerate instances (empty path, a path_index past the path, or
  // non-monotone location ordering) leave the loop below with zero
  // iterations; all_inside would then report a subpath that touches no
  // edge as kInside. Nothing travelled means nothing overlaps RE.
  if (inst.path.empty() || from >= inst.path.size() || to < from) {
    return SubpathRelation::kDisjoint;
  }
  bool all_inside = true;
  bool any_intersect = false;
  for (uint32_t k = from; k <= to && k < inst.path.size(); ++k) {
    const auto& e = net.edge(inst.path[k]);
    const auto& a = net.vertex(e.from);
    const auto& b = net.vertex(e.to);
    if (!network::SegmentInsideRect(a.x, a.y, b.x, b.y, re)) {
      all_inside = false;
    }
    if (network::SegmentIntersectsRect(a.x, a.y, b.x, b.y, re)) {
      any_intersect = true;
    }
  }
  if (all_inside) return SubpathRelation::kInside;
  if (!any_intersect) return SubpathRelation::kDisjoint;
  return SubpathRelation::kPartial;
}

std::vector<std::pair<uint32_t, TrajectoryInstance>>
UtcqQueryProcessor::DecodeQualifying(size_t j, double alpha,
                                     const traj::DecodedTraj* dt,
                                     QueryStats* stats) const {
  std::vector<std::pair<uint32_t, TrajectoryInstance>> result;
  const TrajMeta& meta = cc().meta(j);

  if (dt != nullptr) {
    // Same instances in the same refs-then-nrefs order as the decode path
    // below, served from the handle.
    for (uint32_t r = 0; r < meta.refs.size(); ++r) {
      if (meta.refs[r].p_quantized >= alpha && dt->ref_insts[r].has_value()) {
        result.emplace_back(meta.refs[r].orig_index, *dt->ref_insts[r]);
      }
    }
    for (uint32_t k = 0; k < meta.nrefs.size(); ++k) {
      const NrefMeta& nm = meta.nrefs[k];
      if (nm.p_quantized >= alpha && dt->nref_insts[k].has_value()) {
        result.emplace_back(nm.orig_index, *dt->nref_insts[k]);
      }
    }
    return result;
  }

  // Which references must be materialized: their own probability passes, or
  // one of their Rrs members' does.
  std::vector<bool> need_ref(meta.refs.size(), false);
  for (uint32_t r = 0; r < meta.refs.size(); ++r) {
    if (meta.refs[r].p_quantized >= alpha) need_ref[r] = true;
  }
  for (const NrefMeta& nm : meta.nrefs) {
    if (nm.p_quantized >= alpha) need_ref[nm.ref_pos] = true;
  }

  std::vector<DecodedInstance> refs(meta.refs.size());
  for (uint32_t r = 0; r < meta.refs.size(); ++r) {
    if (!need_ref[r]) continue;
    const uint64_t bits = decoder_.DecodeReferenceInto(j, r, &refs[r]);
    if (stats != nullptr) {
      ++stats->instances_decoded;
      stats->stream_bits_read += bits;
    }
    if (meta.refs[r].p_quantized >= alpha) {
      const auto inst = decoder_.ToInstance(refs[r]);
      if (inst.has_value()) {
        result.emplace_back(meta.refs[r].orig_index, *inst);
      }
    }
  }
  DecodedInstance scratch;
  for (uint32_t k = 0; k < meta.nrefs.size(); ++k) {
    const NrefMeta& nm = meta.nrefs[k];
    if (nm.p_quantized < alpha) continue;
    const uint64_t bits =
        decoder_.DecodeNonReferenceInto(j, k, refs[nm.ref_pos], &scratch);
    if (stats != nullptr) {
      ++stats->instances_decoded;
      stats->stream_bits_read += bits;
    }
    const auto inst = decoder_.ToInstance(scratch);
    if (inst.has_value()) result.emplace_back(nm.orig_index, *inst);
  }
  return result;
}

std::vector<traj::WhereHit> UtcqQueryProcessor::Where(
    size_t traj_idx, Timestamp t, double alpha, QueryStats* stats) const {
  return Where(traj_idx, t, alpha, {}, stats);
}

std::vector<traj::WhereHit> UtcqQueryProcessor::Where(
    size_t traj_idx, Timestamp t, double alpha,
    const traj::DecodedProvider& provider, QueryStats* stats) const {
  std::vector<traj::WhereHit> hits;
  if (traj_idx >= cc().num_trajectories()) return hits;  // untrusted id
  const TrajMeta& meta = cc().meta(traj_idx);
  if (t < meta.t_first || t > meta.t_last) return hits;
  const auto pinned = PinHandle(provider, traj_idx, meta);
  const traj::DecodedTraj* dt = pinned.get();

  // Partial T decompression: start at the temporal tuple for t. With a
  // handle the expanded sequence replaces the bitstream scan.
  const auto& tuple = index_.TemporalTupleFor(traj_idx, t);
  UtcqDecoder::SeekStats seek;
  const auto bracket =
      dt != nullptr
          ? UtcqDecoder::BracketInTimes(dt->times, meta.n_points, t,
                                        tuple.t_no, tuple.t_start)
          : decoder_.BracketTime(traj_idx, t, tuple.t_no, tuple.t_start,
                                 tuple.t_pos, &seek);
  if (stats != nullptr) {
    stats->stream_bits_read += seek.bits_read;
    stats->sync_seeks += seek.sync_seeks;
  }
  if (!bracket.has_value()) return hits;

  // All qualifying instances share the bracket, so their positions batch
  // through the strategy layer's multi-instance interpolation.
  const auto qualifying = DecodeQualifying(traj_idx, alpha, dt, stats);
  std::vector<const TrajectoryInstance*> insts;
  insts.reserve(qualifying.size());
  for (const auto& [w, inst] : qualifying) insts.push_back(&inst);
  const auto positions = traj::PositionsInBracket(
      net_, insts, bracket->index, bracket->t0, bracket->t1, t);
  hits.reserve(qualifying.size());
  for (size_t k = 0; k < qualifying.size(); ++k) {
    hits.push_back(
        {qualifying[k].first, qualifying[k].second.probability, positions[k]});
  }
  return hits;
}

std::vector<traj::WhenHit> UtcqQueryProcessor::When(size_t traj_idx,
                                                    network::EdgeId edge,
                                                    double rd, double alpha,
                                                    QueryStats* stats) const {
  return When(traj_idx, edge, rd, alpha, {}, stats);
}

std::vector<traj::WhenHit> UtcqQueryProcessor::When(
    size_t traj_idx, network::EdgeId edge, double rd, double alpha,
    const traj::DecodedProvider& provider, QueryStats* stats) const {
  std::vector<traj::WhenHit> hits;
  if (traj_idx >= cc().num_trajectories()) return hits;  // untrusted id
  const TrajMeta& meta = cc().meta(traj_idx);

  // Any instance passing <edge, rd> has spatial tuples in the regions the
  // edge overlaps (grid-boundary quantization makes the point's own region
  // unreliable at cell borders, so consult the edge's region list).
  const auto& regions = index_.grid().RegionsOfEdge(edge);

  // Reference-group tuples of this trajectory near the query location,
  // merged across the edge's regions (Lemma 1 needs the max p_max). Flat
  // vectors: a trajectory rarely has more than a handful of groups.
  std::vector<StiuIndex::RefTuple> groups;
  std::vector<uint32_t> nref_candidates;
  for (const network::RegionId re : regions) {
    const auto run = index_.TuplesOf(re, static_cast<uint32_t>(traj_idx));
    if (stats != nullptr) {
      stats->tuples_scanned += run.refs.size() + run.nrefs.size();
    }
    for (const auto& rt : run.refs) {
      bool merged = false;
      for (auto& g : groups) {
        if (g.ref_idx == rt.ref_idx) {
          g.p_max = std::max(g.p_max, rt.p_max);
          g.ref_passes = g.ref_passes || rt.ref_passes;
          merged = true;
          break;
        }
      }
      if (!merged) groups.push_back(rt);
    }
    for (const auto& nt : run.nrefs) {
      if (std::find(nref_candidates.begin(), nref_candidates.end(),
                    nt.nref_idx) == nref_candidates.end()) {
        nref_candidates.push_back(nt.nref_idx);
      }
    }
  }
  if (groups.empty()) return hits;  // no instance of Tu^j passes the edge
  if (stats != nullptr) stats->candidates += groups.size();
  const auto pinned = PinHandle(provider, traj_idx, meta);
  const traj::DecodedTraj* dt = pinned.get();

  std::vector<Timestamp> times_storage;  // decoded lazily when no handle
  const std::vector<Timestamp>* times = dt != nullptr ? &dt->times : nullptr;
  auto ensure_times = [&]() -> const std::vector<Timestamp>& {
    if (times == nullptr) {
      const uint64_t bits = decoder_.DecodeTimesInto(traj_idx, &times_storage);
      if (stats != nullptr) stats->stream_bits_read += bits;
      times = &times_storage;
    }
    return *times;
  };

  for (const auto& tuple : groups) {
    const StiuIndex::RefTuple* rt = &tuple;
    const bool need_nrefs = rt->p_max >= alpha;
    if (!need_nrefs && stats != nullptr) ++stats->pruned_lemma1;
    const bool need_ref_eval =
        rt->ref_passes && meta.refs[rt->ref_idx].p_quantized >= alpha;
    if (!need_nrefs && !need_ref_eval) continue;  // Lemma 1 full skip

    // The reference's decoded form is only needed on the inline path (its
    // non-references expand against it); a handle already has everything.
    std::optional<DecodedInstance> ref;
    if (dt == nullptr) {
      ref.emplace();
      const uint64_t bits =
          decoder_.DecodeReferenceInto(traj_idx, rt->ref_idx, &*ref);
      if (stats != nullptr) {
        ++stats->instances_decoded;
        stats->stream_bits_read += bits;
      }
    }
    // Quantized relative distances can pull the sampled span slightly off
    // the exact query position; widen by the D error bound.
    const double tol =
        2.0 * cc().params().eta_d * net_.edge(edge).length + 1e-6;
    if (need_ref_eval) {
      std::optional<TrajectoryInstance> inst_storage;
      const TrajectoryInstance* inst =
          SlotOrDecode(dt, &traj::DecodedTraj::ref_insts, rt->ref_idx,
                       inst_storage, [&] { return decoder_.ToInstance(*ref); });
      if (inst != nullptr) {
        for (const Timestamp t : traj::TimesAtPosition(
                 net_, *inst, ensure_times(), edge, rd, tol)) {
          hits.push_back({meta.refs[rt->ref_idx].orig_index,
                          inst->probability, t});
        }
      }
    }
    if (!need_nrefs) continue;
    // Only the Rrs members that pass these regions (their tuples name them).
    for (const uint32_t nref_idx : nref_candidates) {
      const NrefMeta& nm = meta.nrefs[nref_idx];
      if (nm.ref_pos != rt->ref_idx || nm.p_quantized < alpha) continue;
      std::optional<TrajectoryInstance> inst_storage;
      const TrajectoryInstance* inst = SlotOrDecode(
          dt, &traj::DecodedTraj::nref_insts, nref_idx, inst_storage, [&] {
            DecodedInstance d;
            const uint64_t bits =
                decoder_.DecodeNonReferenceInto(traj_idx, nref_idx, *ref, &d);
            if (stats != nullptr) {
              ++stats->instances_decoded;
              stats->stream_bits_read += bits;
            }
            return decoder_.ToInstance(d);
          });
      if (inst == nullptr) continue;
      for (const Timestamp t : traj::TimesAtPosition(
               net_, *inst, ensure_times(), edge, rd, tol)) {
        hits.push_back({nm.orig_index, inst->probability, t});
      }
    }
  }
  return hits;
}

traj::RangeResult UtcqQueryProcessor::Range(const Rect& region, Timestamp tq,
                                            double alpha,
                                            QueryStats* stats) const {
  return Range(region, tq, alpha, {}, stats);
}

traj::RangeResult UtcqQueryProcessor::Range(
    const Rect& region, Timestamp tq, double alpha,
    const traj::DecodedProvider& provider, QueryStats* stats) const {
  traj::RangeResult result;
  const auto partition = index_.PartitionAt(tq);
  if (!partition.has_value()) return result;  // no trajectory active at tq
  const auto retotal = index_.grid().RegionsInRect(region);

  // Candidate instances from the spatial tuples over retotal (a superset
  // of RE — Lemma 4's region) of the trajectories active at tq, as packed
  // keys: traj | is_ref | idx. Sort + unique beats hashing on the small
  // per-query candidate sets.
  std::vector<uint64_t> members;
  for (const network::RegionId re : retotal) {
    index_.ForEachActiveRun(re, *partition, [&](const auto& run) {
      if (stats != nullptr) {
        stats->tuples_scanned += run.refs.size() + run.nrefs.size();
      }
      for (const auto& rt : run.refs) {
        if (!rt.ref_passes) continue;
        members.push_back((static_cast<uint64_t>(rt.traj) << 33) |
                          (1ull << 32) | rt.ref_idx);
      }
      for (const auto& nt : run.nrefs) {
        members.push_back((static_cast<uint64_t>(nt.traj) << 33) |
                          nt.nref_idx);
      }
    });
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  for (size_t lo = 0; lo < members.size();) {
    const uint32_t j = static_cast<uint32_t>(members[lo] >> 33);
    size_t hi = lo;
    double p_sum = 0.0;
    const TrajMeta& meta = cc().meta(j);
    while (hi < members.size() &&
           static_cast<uint32_t>(members[hi] >> 33) == j) {
      const bool is_ref = (members[hi] >> 32) & 1;
      const uint32_t idx = static_cast<uint32_t>(members[hi] & 0xFFFFFFFFu);
      p_sum += is_ref ? meta.refs[idx].p_quantized
                      : meta.nrefs[idx].p_quantized;
      ++hi;
    }
    const size_t begin = lo;
    lo = hi;
    if (stats != nullptr) ++stats->candidates;
    if (tq < meta.t_first || tq > meta.t_last) continue;

    // Lemma 4: total probability mass near RE cannot reach alpha.
    if (p_sum < alpha) {
      if (stats != nullptr) ++stats->pruned_lemma4;
      continue;
    }

    const auto& tuple = index_.TemporalTupleFor(j, tq);
    UtcqDecoder::SeekStats seek;
    const auto bracket = decoder_.BracketTime(j, tq, tuple.t_no,
                                              tuple.t_start, tuple.t_pos,
                                              &seek);
    if (stats != nullptr) {
      stats->stream_bits_read += seek.bits_read;
      stats->sync_seeks += seek.sync_seeks;
    }
    if (!bracket.has_value()) continue;

    // Pin only now that every index/meta-level rejection has passed: a
    // decode-on-miss provider (the engine's cache) must never pay a full
    // decode for a candidate the bracket was about to discard.
    const auto pinned = PinHandle(provider, j, meta);
    const traj::DecodedTraj* dt = pinned.get();

    // Decode members, references first (reused across their Rrs).
    std::vector<std::pair<uint32_t, DecodedInstance>> ref_cache;
    auto ref_of = [&](uint32_t r) -> const DecodedInstance& {
      for (const auto& [key, value] : ref_cache) {
        if (key == r) return value;
      }
      ref_cache.emplace_back(r, DecodedInstance{});
      const uint64_t bits =
          decoder_.DecodeReferenceInto(j, r, &ref_cache.back().second);
      if (stats != nullptr) {
        ++stats->instances_decoded;
        stats->stream_bits_read += bits;
      }
      return ref_cache.back().second;
    };

    // Members are processed in chunks of 8: decode + classify the chunk,
    // batch the kPartial positions through the strategy interpolation
    // kernel, then fold probabilities back in strict member order — the
    // overlap_p summation order (and so any floating-point tie against
    // alpha) is exactly the one-at-a-time walk's. Lemma 3's early accept
    // still stops the walk; it merely lands at chunk granularity, so up to
    // seven members past the accepting one get decoded (counted in stats)
    // without affecting the result.
    constexpr size_t kChunk = 8;
    double overlap_p = 0.0;
    bool accepted = false;
    for (size_t cb = begin; cb < hi && !accepted; cb += kChunk) {
      const size_t ce = std::min(cb + kChunk, hi);
      const size_t cn = ce - cb;
      double pvals[kChunk];
      const TrajectoryInstance* insts[kChunk];
      SubpathRelation rels[kChunk];
      std::array<std::optional<TrajectoryInstance>, kChunk> storage;
      for (size_t k = cb; k < ce; ++k) {
        const size_t c = k - cb;
        const bool is_ref = (members[k] >> 32) & 1;
        const uint32_t idx = static_cast<uint32_t>(members[k] & 0xFFFFFFFFu);
        if (is_ref) {
          pvals[c] = meta.refs[idx].p_quantized;
          insts[c] = SlotOrDecode(
              dt, &traj::DecodedTraj::ref_insts, idx, storage[c],
              [&] { return decoder_.ToInstance(ref_of(idx)); });
        } else {
          pvals[c] = meta.nrefs[idx].p_quantized;
          insts[c] = SlotOrDecode(
              dt, &traj::DecodedTraj::nref_insts, idx, storage[c], [&] {
                const DecodedInstance& ref = ref_of(meta.nrefs[idx].ref_pos);
                DecodedInstance d;
                const uint64_t bits =
                    decoder_.DecodeNonReferenceInto(j, idx, ref, &d);
                if (stats != nullptr) {
                  ++stats->instances_decoded;
                  stats->stream_bits_read += bits;
                }
                return decoder_.ToInstance(d);
              });
        }
        if (insts[c] == nullptr) {
          rels[c] = SubpathRelation::kDisjoint;
          continue;
        }
        rels[c] = ClassifySubpath(net_, *insts[c], bracket->index, region);
        if (stats != nullptr && rels[c] != SubpathRelation::kPartial) {
          ++stats->pruned_lemma2;
        }
      }

      // Only kPartial members need an interpolated point-in-region test.
      std::vector<const TrajectoryInstance*> partial_insts;
      std::vector<size_t> partial_slots;
      for (size_t c = 0; c < cn; ++c) {
        if (insts[c] != nullptr && rels[c] == SubpathRelation::kPartial) {
          partial_insts.push_back(insts[c]);
          partial_slots.push_back(c);
        }
      }
      const auto positions = traj::PositionsInBracket(
          net_, partial_insts, bracket->index, bracket->t0, bracket->t1, tq);
      bool in_region[kChunk] = {};
      for (size_t v = 0; v < partial_slots.size(); ++v) {
        const network::Vertex xy =
            net_.PointOnEdge(positions[v].edge, positions[v].ndist);
        in_region[partial_slots[v]] = region.Contains(xy.x, xy.y);
      }

      for (size_t c = 0; c < cn; ++c) {
        if (insts[c] == nullptr) continue;
        if (rels[c] == SubpathRelation::kInside ||
            (rels[c] == SubpathRelation::kPartial && in_region[c])) {
          overlap_p += pvals[c];
        }
        if (overlap_p >= alpha) {  // Lemma 3 early accept
          if (stats != nullptr) ++stats->accepted_lemma3;
          accepted = true;
          break;
        }
      }
    }
    if (accepted) result.push_back(j);
  }
  return result;
}

}  // namespace utcq::core
