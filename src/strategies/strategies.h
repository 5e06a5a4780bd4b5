#ifndef UTCQ_STRATEGIES_STRATEGIES_H_
#define UTCQ_STRATEGIES_STRATEGIES_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/bitstream.h"

namespace utcq::strategies {

/// Kernel tiers, ordered worst to best. Following kvazaar's `strategies/`
/// idiom, every tier implements the same kernel contract and one table is
/// picked at startup from CPUID; `UTCQ_STRATEGY` overrides the pick for
/// testing (the strategy-matrix ctest pass forces each tier in turn).
///
///  - kBitloop: the pre-optimization bit-at-a-time reference loops. Never
///    auto-selected; kept as the honest baseline the SIMD speedup claims
///    are measured against (bench_decode) and the oracle the other tiers
///    are differential-pinned to.
///  - kScalar: portable word-at-a-time kernels (64-bit loads + shift/mask,
///    clz-based unary scans). The floor every build has.
///  - kAvx2: adds 256-bit batched kernels (multi-field extraction via
///    variable shifts, bit-unpacking, 4-wide double interpolation) and
///    LZCNT unary scans.
enum class Tier : uint8_t { kBitloop = 0, kScalar = 1, kAvx2 = 2 };

inline constexpr int kNumTiers = 3;

/// The dispatch table. Every kernel is bit-exact against the kBitloop
/// reference: identical return values, identical cursor positions on
/// success paths, and identical overflow()-latch behaviour on truncated or
/// structurally invalid input (DESIGN.md §12 states the full contract).
/// Floating-point kernels perform the same elementwise operation sequence
/// as the scalar code and are built without FMA contraction, so doubles
/// are identical across tiers too.
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
  /// offset, batched so the calls stay inside one tier's TU. Returns how
  /// many symbols decoded cleanly; a short count means overflow() latched
  /// on the next symbol (whose bits are consumed but not stored).
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

  Tier tier;
  const char* name;
};

/// The active table. Resolved exactly once, on first call: the best
/// CPUID-supported tier, unless the UTCQ_STRATEGY environment variable
/// names a supported tier ("scalar", "avx2", "bitloop"). An env
/// value naming an unsupported or unknown tier falls back to the best
/// supported one (the strategy-matrix runner refuses to launch tests on
/// hosts lacking the forced tier instead — SKIP, never a silent PASS).
const Kernels& Active();

/// True when `tier`'s kernels are compiled in and the CPU can run them.
bool TierSupported(Tier tier);

/// Best tier this build + CPU supports (never kBitloop).
Tier BestSupportedTier();

/// `tier`'s table, or nullptr when unsupported.
const Kernels* KernelsFor(Tier tier);

/// Swaps the active table (benchmarks and the per-tier differential
/// tests). Returns false — leaving the active table unchanged — when the
/// tier is unsupported. Not safe to call concurrently with decoding.
bool SetActive(Tier tier);

const char* TierName(Tier tier);
bool ParseTier(std::string_view name, Tier* out);

}  // namespace utcq::strategies

#endif  // UTCQ_STRATEGIES_STRATEGIES_H_
