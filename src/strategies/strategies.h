#ifndef UTCQ_STRATEGIES_STRATEGIES_H_
#define UTCQ_STRATEGIES_STRATEGIES_H_

#include <cstddef>
#include <cstdint>

#include "common/bitstream.h"

namespace utcq::strategies {

/// The decode kernel contract, as a table of function pointers. Two tables
/// implement it (DESIGN.md §12):
///
///  - kScalar: the production kernels — portable word-at-a-time reads
///    (64-bit loads + shift/mask, clz-based unary scans). Active() starts
///    on it on every host.
///  - kBitloop: the bit-at-a-time reference loops. Never active in
///    production; tests swap it in through SetActive as the oracle the
///    word kernels are differential-pinned to.
///
/// Every kScalar kernel is bit-exact against kBitloop: identical return
/// values, identical cursor positions on success paths, and identical
/// overflow()-latch behaviour on truncated or structurally invalid input.
/// Floating-point kernels perform the same elementwise operation sequence
/// in both tables, so doubles are identical too.
struct Kernels {
  /// Fixed-width MSB-first field read; contract of BitReader::GetBits.
  uint64_t (*get_bits)(common::BitReader& r, int width);

  /// Unary-run scans: count 0s (1s) up to the terminating 1 (0), consuming
  /// run + terminator. Returns the run length, or -1 with overflow()
  /// latched when the run is truncated by the end of the stream or exceeds
  /// `max_run` (no valid encoder output does).
  int (*scan_zero_run)(common::BitReader& r, int max_run);
  int (*scan_one_run)(common::BitReader& r, int max_run);

  /// `n` fixed-width fields into out[0..n): the entry-stream walk of
  /// reference-instance decode. Semantics of n successive get_bits calls.
  void (*read_fields)(common::BitReader& r, int width, uint32_t* out,
                      size_t n);

  /// `n` single bits into 0/1 bytes: the time-flag literal walk. Semantics
  /// of n successive GetBit calls.
  void (*unpack_bits)(common::BitReader& r, uint8_t* out, size_t n);

  /// One PDDP code: a `length_bits`-wide length field followed by that many
  /// code bits. Length fields beyond `max_bits` latch overflow() and
  /// decode to 0.0 (mirrors PddpCodec::Decode).
  double (*pddp_decode)(common::BitReader& r, int length_bits, int max_bits);

  /// Up to `n` improved Exp-Golomb deltas (the shared-times stream) into
  /// out: exactly the per-symbol composition scan_one_run(62) + sign +
  /// offset, batched so the calls inline into one loop. Returns how many
  /// symbols decoded cleanly; a short count means overflow() latched on
  /// the next symbol (whose bits are consumed but not stored).
  size_t (*decode_ieg)(common::BitReader& r, int64_t* out, size_t n);

  /// `n` PDDP codes into out[0..n): composition of n pddp_decode calls
  /// (the per-point rd stream of reference-instance decode).
  void (*pddp_run)(common::BitReader& r, int length_bits, int max_bits,
                   double* out, size_t n);

  /// out[i] = d0[i] + (d1[i] - d0[i]) * f — the constant-speed offset
  /// interpolation of Where/Range, batched over instances sharing one
  /// time bracket.
  void (*lerp)(const double* d0, const double* d1, double f, double* out,
               size_t n);

  /// out[i] = base[i] + x[i] * scale[i] — the mapped-location path-offset
  /// expansion of When's TimesAtPosition.
  void (*mul_add)(const double* base, const double* x, const double* scale,
                  double* out, size_t n);

  const char* name;
};

extern const Kernels kScalar;
extern const Kernels kBitloop;

/// The active table: kScalar unless a test swapped in another.
const Kernels& Active();

/// Swaps the active table (the differential tests swap in kBitloop). Not
/// safe to call concurrently with decoding.
void SetActive(const Kernels& kernels);

}  // namespace utcq::strategies

#endif  // UTCQ_STRATEGIES_STRATEGIES_H_
