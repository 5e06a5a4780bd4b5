#ifndef UTCQ_TRAJ_DECODED_H_
#define UTCQ_TRAJ_DECODED_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "traj/types.h"

namespace utcq::traj {

/// A fully decoded uncertain trajectory, independent of any alpha: the
/// shared time sequence plus every instance expanded back to path +
/// locations. This is the unit the serving layer caches — decoding it once
/// costs the full bitstream walk (Exp-Golomb + PDDP + referential chain);
/// every query against the handle afterwards is pure in-memory filtering
/// and interpolation.
///
/// Slot layout mirrors UTCQ's referential split: ref_insts[r] is reference
/// r in TrajMeta::refs order, nref_insts[k] is non-reference k in
/// TrajMeta::nrefs order. A slot is nullopt when the instance failed
/// reconstruction (corrupt or degenerate stream) — exactly the cases the
/// live decode path drops.
struct DecodedTraj {
  std::vector<Timestamp> times;
  std::vector<std::optional<TrajectoryInstance>> ref_insts;
  std::vector<std::optional<TrajectoryInstance>> nref_insts;

  /// Approximate heap footprint, the unit the cache's byte budget is
  /// charged in. Counts vector payloads, not allocator slack.
  size_t ApproxBytes() const;
};

/// Lookup the query processor accepts in place of inline decoding: given a
/// trajectory index (local to the processor's corpus), returns a pinned
/// decoded handle, or nullptr to make the processor decode inline for that
/// trajectory. The processor consults it only after its own meta/index
/// rejections. The shared_ptr keeps a cached entry alive across concurrent
/// eviction for as long as the query holds it.
using DecodedProvider =
    std::function<std::shared_ptr<const DecodedTraj>(uint32_t traj_idx)>;

}  // namespace utcq::traj

#endif  // UTCQ_TRAJ_DECODED_H_
