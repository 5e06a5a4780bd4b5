#ifndef UTCQ_STRATEGIES_WORD_KERNELS_H_
#define UTCQ_STRATEGIES_WORD_KERNELS_H_

// Kernel bodies behind the two tables in strategies.cc; include this only
// from there. Internal linkage lets the compiler inline the bodies into one
// another (the batched kernels call the scans and field reads directly)
// without exporting any of them.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/bitstream.h"

namespace utcq::strategies {
namespace {

// ---------------------------------------------------------------------------
// Bit-at-a-time reference kernels (kBitloop). These replicate the
// pre-optimization loops byte-for-byte — including which bits get consumed
// before overflow latches on truncated or overlong input — because they are
// the oracle the word kernels are differential-pinned against.
// ---------------------------------------------------------------------------

uint64_t BitloopGetBits(common::BitReader& r, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v = (v << 1) | static_cast<uint64_t>(r.GetBit());
  }
  return v;
}

int BitloopScanZeroRun(common::BitReader& r, int max_run) {
  int n = 0;
  while (!r.GetBit()) {
    ++n;
    if (r.overflow()) return -1;
    if (n > max_run) {
      r.MarkOverflow();
      return -1;
    }
  }
  return n;
}

int BitloopScanOneRun(common::BitReader& r, int max_run) {
  int j = 0;
  while (r.GetBit()) {
    ++j;
    if (r.overflow()) return -1;
    if (j > max_run) {
      r.MarkOverflow();
      return -1;
    }
  }
  // A truncated stream ends the run with a phantom 0 bit; report the
  // failure instead of letting the caller decode the garbage that follows.
  if (r.overflow()) return -1;
  return j;
}

void BitloopReadFields(common::BitReader& r, int width, uint32_t* out,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint32_t>(BitloopGetBits(r, width));
  }
}

void BitloopUnpackBits(common::BitReader& r, uint8_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = r.GetBit() ? 1 : 0;
  }
}

double BitloopPddpDecode(common::BitReader& r, int length_bits, int max_bits) {
  const int length = static_cast<int>(BitloopGetBits(r, length_bits));
  if (length > max_bits) {
    r.MarkOverflow();
    return 0.0;
  }
  const uint64_t code = BitloopGetBits(r, length);
  if (length == 0) return 0.0;
  return static_cast<double>(code) / std::ldexp(1.0, length);
}

size_t BitloopDecodeIeg(common::BitReader& r, int64_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int j = BitloopScanOneRun(r, 62);
    int64_t delta = 0;
    if (j > 0) {
      const bool negative = BitloopGetBits(r, 1) != 0;
      const uint64_t offset = BitloopGetBits(r, j);
      const int64_t magnitude =
          static_cast<int64_t>(offset + ((uint64_t{1} << j) - 1));
      delta = negative ? -magnitude : magnitude;
    }
    if (r.overflow()) return i;
    out[i] = delta;
  }
  return n;
}

void BitloopPddpRun(common::BitReader& r, int length_bits, int max_bits,
                    double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = BitloopPddpDecode(r, length_bits, max_bits);
  }
}

// The interpolation loops predate batching, so the "reference" is simply
// the same elementwise arithmetic; both tables share these bodies, so
// doubles match bit-for-bit.
void ScalarLerp(const double* d0, const double* d1, double f, double* out,
                size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = d0[i] + (d1[i] - d0[i]) * f;
  }
}

void ScalarMulAdd(const double* base, const double* x, const double* scale,
                  double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = base[i] + x[i] * scale[i];
  }
}

// ---------------------------------------------------------------------------
// Word-at-a-time kernels (kScalar). Built on BitReader::PeekBits64, whose
// phantom-zero masking of the stream tail makes run scans safe on
// untrusted archives.
// ---------------------------------------------------------------------------

int Clz64(uint64_t w) {
  // __builtin_clzll is undefined at 0.
  return w == 0 ? 64 : __builtin_clzll(w);
}

uint64_t WordGetBits(common::BitReader& r, int width) {
  return r.GetBits(width);
}

// Shared body of the two run scans, 64 bits per peek (`ones` complements
// the window, turning a one-run into a leading-zero count either way).
// Replicates the bitloop consumption exactly: a run longer than max_run
// consumes max_run + 1 run bits then latches overflow; a run truncated by
// the end of the stream consumes every remaining bit then latches
// overflow. Codec callers cap runs below 64, but the kernel contract takes
// any max_run >= 0, so a window full of run bits loops to the next one.
int ScanRunWindows(common::BitReader& r, bool ones, int max_run) {
  int run = 0;  // run bits consumed by earlier windows (always <= max_run)
  while (true) {
    const size_t rem = r.remaining();
    const uint64_t w = ones ? ~r.PeekBits64() : r.PeekBits64();
    const int lead = Clz64(w);
    if (lead < 64 && static_cast<size_t>(lead) < rem) {
      // Terminator found, inside both the window and the stream.
      if (run + lead > max_run) {
        r.Advance(static_cast<size_t>(max_run - run) + 1);
        r.MarkOverflow();
        return -1;
      }
      r.Advance(static_cast<size_t>(lead) + 1);
      return run + lead;
    }
    if (rem < 64) {
      // Every remaining bit is a run bit (phantom bits past the end never
      // count as stream content): truncated run.
      if (run + static_cast<int64_t>(rem) > max_run) {
        r.Advance(static_cast<size_t>(max_run - run) + 1);
      } else {
        r.Advance(rem);
      }
      r.MarkOverflow();
      return -1;
    }
    // A full window of run bits; consume it and keep scanning.
    if (run + 64 > max_run) {
      r.Advance(static_cast<size_t>(max_run - run) + 1);
      r.MarkOverflow();
      return -1;
    }
    r.Advance(64);
    run += 64;
  }
}

int WordScanZeroRun(common::BitReader& r, int max_run) {
  // A reader whose overflow already latched takes the bitloop path: the
  // reference loops check overflow() mid-run and bail after one bit, and
  // the poisoned-stream case is not worth a second semantics.
  if (r.overflow()) return BitloopScanZeroRun(r, max_run);
  return ScanRunWindows(r, /*ones=*/false, max_run);
}

int WordScanOneRun(common::BitReader& r, int max_run) {
  if (r.overflow()) return BitloopScanOneRun(r, max_run);
  return ScanRunWindows(r, /*ones=*/true, max_run);
}

void WordReadFields(common::BitReader& r, int width, uint32_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint32_t>(r.GetBits(width));
  }
}

void WordUnpackBits(common::BitReader& r, uint8_t* out, size_t n) {
  size_t i = 0;
  while (i < n && r.remaining() >= 64) {
    const uint64_t w = r.PeekBits64();
    const size_t take = std::min<size_t>(n - i, 64);
    for (size_t b = 0; b < take; ++b) {
      out[i + b] = static_cast<uint8_t>((w >> (63 - b)) & 1u);
    }
    r.Advance(take);
    i += take;
  }
  for (; i < n; ++i) {
    out[i] = r.GetBit() ? 1 : 0;
  }
}

// Batch of improved Exp-Golomb deltas. The win over per-symbol dispatch is
// that the scan and field reads below are direct calls the compiler
// inlines, keeping the reader state in registers across symbols —
// at one-bit group-0 codes the indirect call was most of the cost. The
// sign bit and the j-bit offset are one (j + 1)-bit read: same consumed
// bits, and the sign lands in the extracted word's MSB.
size_t WordDecodeIeg(common::BitReader& r, int64_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int j = WordScanOneRun(r, 62);
    int64_t delta = 0;
    if (j > 0) {
      const uint64_t bits = r.GetBits(j + 1);
      const uint64_t offset = bits & ((uint64_t{1} << j) - 1);
      const int64_t magnitude =
          static_cast<int64_t>(offset + ((uint64_t{1} << j) - 1));
      delta = (bits >> j) & 1 ? -magnitude : magnitude;
    }
    if (r.overflow()) return i;
    out[i] = delta;
  }
  return n;
}

double WordPddpDecode(common::BitReader& r, int length_bits, int max_bits) {
  if (length_bits > 0 && r.remaining() >= 64) {
    const uint64_t w = r.PeekBits64();
    const int length = static_cast<int>(w >> (64 - length_bits));
    if (length > max_bits) {
      // Reject after consuming only the length field, as the codec does.
      r.Advance(static_cast<size_t>(length_bits));
      r.MarkOverflow();
      return 0.0;
    }
    if (length_bits + length <= 64) {
      if (length == 0) {
        r.Advance(static_cast<size_t>(length_bits));
        return 0.0;
      }
      const uint64_t code = (w >> (64 - length_bits - length)) &
                            ((uint64_t{1} << length) - 1);
      r.Advance(static_cast<size_t>(length_bits + length));
      return static_cast<double>(code) / std::ldexp(1.0, length);
    }
    r.Advance(static_cast<size_t>(length_bits));
    const uint64_t code = r.GetBits(length);
    return static_cast<double>(code) / std::ldexp(1.0, length);
  }
  // Stream tail (or degenerate zero-width length field): the plain reads
  // already carry the phantom-zero / overflow-latch semantics.
  const int length = static_cast<int>(r.GetBits(length_bits));
  if (length > max_bits) {
    r.MarkOverflow();
    return 0.0;
  }
  const uint64_t code = r.GetBits(length);
  if (length == 0) return 0.0;
  return static_cast<double>(code) / std::ldexp(1.0, length);
}

void WordPddpRun(common::BitReader& r, int length_bits, int max_bits,
                 double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = WordPddpDecode(r, length_bits, max_bits);
  }
}

}  // namespace
}  // namespace utcq::strategies

#endif  // UTCQ_STRATEGIES_WORD_KERNELS_H_
