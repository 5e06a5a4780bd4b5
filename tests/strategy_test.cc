// Differential pinning of the production decode kernels (DESIGN.md §12).
//
// Every kScalar kernel is compared against the kBitloop reference table on
// the same inputs: return values, cursor positions and overflow() latching
// must match bit-for-bit — on clean streams, truncated streams,
// structurally invalid codes and buffers whose final partial byte carries
// garbage padding. The suite closes with corpus-level proof: full
// decompression and the three probabilistic queries produce identical
// results with either table active.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bitstream.h"
#include "common/exp_golomb.h"
#include "common/pddp.h"
#include "common/rng.h"
#include "core/utcq.h"
#include "network/grid_index.h"
#include "strategies/strategies.h"
#include "test_fixtures.h"
#include "traj/generator.h"
#include "traj/profiles.h"

namespace utcq {
namespace {

using common::BitReader;
using common::BitWriter;
using common::Rng;
using strategies::Kernels;

const Kernels& kRef = strategies::kBitloop;
const Kernels& kWord = strategies::kScalar;

/// Restores the startup-active table after a test that calls SetActive.
class ActiveTableGuard {
 public:
  ActiveTableGuard() : saved_(strategies::Active()) {}
  ~ActiveTableGuard() { strategies::SetActive(saved_); }

 private:
  const Kernels& saved_;
};

/// A random byte buffer viewed as `size_bits` bits. The bytes beyond the
/// last valid bit stay random on purpose: PeekBits64-based kernels must
/// mask that padding to the phantom zeros the bit loop reads.
struct RandomStream {
  std::vector<uint8_t> bytes;
  size_t size_bits = 0;

  BitReader reader() const { return BitReader(bytes.data(), size_bits); }
};

RandomStream MakeRandomStream(Rng& rng, size_t max_bytes) {
  RandomStream s;
  const size_t n = static_cast<size_t>(rng.UniformInt(1, max_bytes));
  s.bytes.resize(n);
  for (auto& b : s.bytes) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  s.size_bits = n * 8 - static_cast<size_t>(rng.UniformInt(0, 7));
  return s;
}

void ExpectSameState(const BitReader& got, const BitReader& want,
                     const char* what) {
  EXPECT_EQ(got.position(), want.position()) << what;
  EXPECT_EQ(got.overflow(), want.overflow()) << what;
}

/// Bitwise (not approximate) equality of two double arrays. An empty
/// vector's data() may be null, which memcmp must never see even for a
/// zero length.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(StrategyPlumbing, ScalarIsActiveAndSetActiveSwaps) {
  EXPECT_EQ(&strategies::Active(), &kWord);
  EXPECT_STREQ(strategies::Active().name, "scalar");
  {
    ActiveTableGuard guard;
    strategies::SetActive(kRef);
    EXPECT_EQ(&strategies::Active(), &kRef);
    EXPECT_STREQ(strategies::Active().name, "bitloop");
  }
  EXPECT_EQ(&strategies::Active(), &kWord);
}

TEST(StrategyKernels, GetBitsMatchesReference) {
  const uint64_t seed = test::BaseSeed(1001);
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomStream s = MakeRandomStream(rng, 40);
    BitReader got = s.reader();
    BitReader want = s.reader();
    // Read width sequences that cross word boundaries, hit the end and
    // keep reading past it (phantom zeros + latched overflow).
    while (!want.overflow()) {
      const int width = static_cast<int>(rng.UniformInt(0, 64));
      EXPECT_EQ(kWord.get_bits(got, width), kRef.get_bits(want, width))
          << "seed=" << seed << " pos=" << want.position();
      ExpectSameState(got, want, "get_bits");
    }
    // A read after the latch behaves identically too.
    EXPECT_EQ(kWord.get_bits(got, 17), kRef.get_bits(want, 17));
    ExpectSameState(got, want, "post-latch");
  }
}

TEST(StrategyKernels, UnaryScansMatchReferenceOnRandomStreams) {
  const uint64_t seed = test::BaseSeed(1002);
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    // Biased bits make long runs (including overlong ones) likely.
    const double p_one = rng.Uniform(0.02, 0.98);
    BitWriter w;
    const int nbits = static_cast<int>(rng.UniformInt(1, 400));
    for (int i = 0; i < nbits; ++i) w.PutBit(rng.Bernoulli(p_one));
    const bool zeros = rng.Bernoulli(0.5);
    const int max_run = static_cast<int>(rng.UniformInt(0, 80));

    BitReader got(w);
    BitReader want(w);
    auto scan = zeros ? kWord.scan_zero_run : kWord.scan_one_run;
    auto ref_scan = zeros ? kRef.scan_zero_run : kRef.scan_one_run;
    while (true) {
      const int a = scan(got, max_run);
      const int b = ref_scan(want, max_run);
      EXPECT_EQ(a, b) << "seed=" << seed << " zeros=" << zeros
                      << " max_run=" << max_run
                      << " pos=" << want.position();
      ExpectSameState(got, want, "scan");
      if (a != b || a < 0) break;
    }
  }
}

TEST(StrategyKernels, UnaryScansMatchReferenceOnCraftedStreams) {
  // Runs straddling the crafted edges: exactly max_run, one over, truncated
  // by the stream end, empty stream, and a run ending in garbage padding.
  struct Case {
    size_t run;        // leading non-terminator bits
    bool terminated;   // whether a terminator bit follows
    size_t trailing;   // extra random-ish bits after the terminator
    int max_run;
  };
  const Case cases[] = {
      {0, true, 10, 63},   {1, true, 0, 63},    {63, true, 5, 63},
      {64, true, 5, 63},   {62, true, 0, 62},   {63, true, 0, 62},
      {10, false, 0, 63},  {0, false, 0, 63},   {70, false, 0, 63},
      {5, true, 3, 5},     {6, true, 3, 5},     {64, false, 0, 63},
      {65, false, 0, 63},  {128, true, 1, 200}, {130, false, 0, 200},
  };
  for (const bool zeros : {true, false}) {
    for (const Case& c : cases) {
      BitWriter w;
      w.PutRun(!zeros ? true : false, c.run);
      if (c.terminated) w.PutBit(zeros);
      for (size_t i = 0; i < c.trailing; ++i) w.PutBit((i & 1) != 0);

      // Garbage padding: view one bit fewer than written so the byte's
      // tail carries stale bits past size_bits.
      for (const size_t shrink : {size_t{0}, size_t{1}}) {
        if (shrink > w.size_bits()) continue;
        const size_t bits = w.size_bits() - shrink;
        BitReader got(w.bytes().data(), bits);
        BitReader want(w.bytes().data(), bits);
        auto scan = zeros ? kWord.scan_zero_run : kWord.scan_one_run;
        auto ref_scan = zeros ? kRef.scan_zero_run : kRef.scan_one_run;
        EXPECT_EQ(scan(got, c.max_run), ref_scan(want, c.max_run))
            << "zeros=" << zeros << " run=" << c.run
            << " max_run=" << c.max_run << " shrink=" << shrink;
        ExpectSameState(got, want, "crafted");
      }
    }
  }
}

TEST(StrategyKernels, UnaryScansMatchReferenceWithPreLatchedOverflow) {
  BitWriter w;
  w.PutRun(false, 20);
  BitReader got(w);
  BitReader want(w);
  got.MarkOverflow();
  want.MarkOverflow();
  EXPECT_EQ(kWord.scan_zero_run(got, 63), kRef.scan_zero_run(want, 63));
  ExpectSameState(got, want, "pre-latched");
  EXPECT_EQ(kWord.scan_one_run(got, 62), kRef.scan_one_run(want, 62));
  ExpectSameState(got, want, "pre-latched");
}

TEST(StrategyKernels, ReadFieldsAndUnpackBitsMatchReference) {
  const uint64_t seed = test::BaseSeed(1003);
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomStream s = MakeRandomStream(rng, 64);
    // Widths up to 20 plus degenerate width 0; counts that overrun the
    // stream exercise the tail/overflow path.
    const int width = static_cast<int>(rng.UniformInt(0, 20));
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 80));

    BitReader got = s.reader();
    BitReader want = s.reader();
    std::vector<uint32_t> out_got(n + 1, 0xA5A5A5A5u);
    std::vector<uint32_t> out_want(n + 1, 0xA5A5A5A5u);
    kWord.read_fields(got, width, out_got.data(), n);
    kRef.read_fields(want, width, out_want.data(), n);
    EXPECT_EQ(out_got, out_want)
        << "seed=" << seed << " width=" << width << " n=" << n;
    ExpectSameState(got, want, "read_fields");

    BitReader bgot = s.reader();
    BitReader bwant = s.reader();
    const size_t skip = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(s.size_bits)));
    bgot.Advance(skip);
    bwant.Advance(skip);
    std::vector<uint8_t> bits_got(n + 1, 0xEE);
    std::vector<uint8_t> bits_want(n + 1, 0xEE);
    kWord.unpack_bits(bgot, bits_got.data(), n);
    kRef.unpack_bits(bwant, bits_want.data(), n);
    EXPECT_EQ(bits_got, bits_want)
        << "seed=" << seed << " n=" << n << " skip=" << skip;
    ExpectSameState(bgot, bwant, "unpack_bits");
  }
}

TEST(StrategyKernels, CodecsMatchReferenceThroughSetActive) {
  // The integration-shaped differential: the real codec entry points
  // (GetExpGolomb / GetImprovedExpGolomb / PddpCodec::Decode) dispatch
  // through Active(), so decoding one stream with either table must yield
  // identical values, cursor positions and overflow state.
  ActiveTableGuard guard;
  const uint64_t seed = test::BaseSeed(1004);
  Rng rng(seed);
  const common::PddpCodec pddp(0.001);

  for (int trial = 0; trial < 50; ++trial) {
    BitWriter w;
    std::vector<int> ops;      // 0: eg(k), 1: improved, 2: pddp
    std::vector<int> ks_ord;   // order k per eg op
    const int n_ops = static_cast<int>(rng.UniformInt(1, 120));
    for (int i = 0; i < n_ops; ++i) {
      const int op = static_cast<int>(rng.UniformInt(0, 2));
      ops.push_back(op);
      int k = 0;
      switch (op) {
        case 0: {
          k = static_cast<int>(rng.UniformInt(0, 8));
          const uint64_t v = static_cast<uint64_t>(
              rng.UniformInt(0, rng.Bernoulli(0.2) ? 2000000 : 200));
          common::PutExpGolomb(w, v, k);
          break;
        }
        case 1:
          common::PutImprovedExpGolomb(w, rng.UniformInt(-5000, 5000));
          break;
        default:
          pddp.Encode(w, rng.Uniform(0.0, 1.0));
          break;
      }
      ks_ord.push_back(k);
    }
    // Half the trials truncate the stream mid-code to pin the overflow
    // paths through the real codecs.
    size_t bits = w.size_bits();
    if (rng.Bernoulli(0.5)) {
      bits = static_cast<size_t>(rng.UniformInt(0, bits));
    }

    struct Run {
      std::vector<uint64_t> eg;
      std::vector<int64_t> ieg;
      std::vector<double> pd;
      size_t pos;
      bool overflow;
    };
    auto decode_all = [&](const Kernels& kernels) {
      strategies::SetActive(kernels);
      Run run;
      BitReader r(w.bytes().data(), bits);
      for (int i = 0; i < n_ops; ++i) {
        switch (ops[i]) {
          case 0:
            run.eg.push_back(common::GetExpGolomb(r, ks_ord[i]));
            break;
          case 1:
            run.ieg.push_back(common::GetImprovedExpGolomb(r));
            break;
          default:
            run.pd.push_back(pddp.Decode(r));
            break;
        }
      }
      run.pos = r.position();
      run.overflow = r.overflow();
      return run;
    };

    const Run want = decode_all(kRef);
    const Run got = decode_all(kWord);
    EXPECT_EQ(got.eg, want.eg) << "seed=" << seed;
    EXPECT_EQ(got.ieg, want.ieg) << "seed=" << seed;
    ASSERT_EQ(got.pd.size(), want.pd.size());
    for (size_t i = 0; i < want.pd.size(); ++i) {
      // Bitwise double equality, not approximate.
      EXPECT_EQ(std::memcmp(&got.pd[i], &want.pd[i], sizeof(double)), 0)
          << "seed=" << seed << " i=" << i;
    }
    EXPECT_EQ(got.pos, want.pos);
    EXPECT_EQ(got.overflow, want.overflow);
  }
}

TEST(StrategyKernels, PddpDecodeRejectsOversizedLengthLikeReference) {
  // A length field beyond max_bits: structurally invalid (no real codec
  // writes one), must latch overflow after consuming exactly the length
  // field. Driven with raw kernel parameters because a real PddpCodec's
  // field width cannot represent an out-of-range length.
  constexpr int kLengthBits = 4;
  constexpr int kMaxBits = 7;
  BitWriter w;
  w.PutBits(kMaxBits + 2, kLengthBits);
  w.PutBits(0x5A5A5A5A5A5A5Aull, 56);  // bits a buggy kernel might consume
  w.PutBits(0xFF, 8);                  // pad past one peek window
  BitReader got(w);
  BitReader want(w);
  const double a = kWord.pddp_decode(got, kLengthBits, kMaxBits);
  const double b = kRef.pddp_decode(want, kLengthBits, kMaxBits);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
  EXPECT_TRUE(got.overflow());
  EXPECT_EQ(got.position(), static_cast<size_t>(kLengthBits));
  ExpectSameState(got, want, "pddp oversize");
}

TEST(StrategyKernels, BatchedDeltaDecodeMatchesReference) {
  const uint64_t seed = test::BaseSeed(1006);
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    // A run of improved Exp-Golomb deltas biased toward the group-0 codes
    // real time streams are made of, with occasional large outliers.
    const int count = static_cast<int>(rng.UniformInt(0, 80));
    BitWriter w;
    std::vector<int64_t> want_vals;
    for (int i = 0; i < count; ++i) {
      int64_t delta = 0;
      const int shape = static_cast<int>(rng.UniformInt(0, 9));
      if (shape >= 7) {
        delta = rng.UniformInt(-5000, 5000);
      } else if (shape >= 4) {
        delta = rng.UniformInt(-3, 3);
      }
      common::PutImprovedExpGolomb(w, delta);
      want_vals.push_back(delta);
    }
    // Half the trials truncate the stream mid-code; the batch must stop at
    // the same symbol with the same cursor and overflow state.
    size_t bits = w.size_bits();
    if (trial % 2 == 1 && bits > 0) {
      bits -= static_cast<size_t>(rng.UniformInt(1, bits));
    }
    const BitReader base(w.bytes().data(), bits);
    // Ask for more symbols than were written sometimes: the short-count
    // return path must agree too.
    const size_t ask =
        static_cast<size_t>(count) + static_cast<size_t>(rng.UniformInt(0, 2));
    std::vector<int64_t> want(ask, -777), got(ask, -777);
    BitReader want_r = base;
    const size_t want_n = kRef.decode_ieg(want_r, want.data(), ask);
    BitReader got_r = base;
    std::fill(got.begin(), got.end(), -777);
    const size_t got_n = kWord.decode_ieg(got_r, got.data(), ask);
    EXPECT_EQ(got_n, want_n);
    EXPECT_EQ(got, want);
    ExpectSameState(got_r, want_r, "decode_ieg");
    // On clean full-length streams the decoded deltas are the encoder's.
    if (trial % 2 == 0) {
      ASSERT_EQ(want_n, static_cast<size_t>(count));
      for (int i = 0; i < count; ++i) EXPECT_EQ(want[i], want_vals[i]);
    }
  }
}

TEST(StrategyKernels, BatchedPddpRunMatchesReference) {
  const uint64_t seed = test::BaseSeed(1007);
  Rng rng(seed);
  const common::PddpCodec codec(0.001);
  for (int trial = 0; trial < 200; ++trial) {
    const int count = static_cast<int>(rng.UniformInt(0, 60));
    BitWriter w;
    for (int i = 0; i < count; ++i) {
      codec.Encode(w, rng.Uniform(0.0, 1.0));
    }
    size_t bits = w.size_bits();
    if (trial % 2 == 1 && bits > 0) {
      bits -= static_cast<size_t>(rng.UniformInt(1, bits));
    }
    const BitReader base(w.bytes().data(), bits);
    std::vector<double> want(static_cast<size_t>(count), -1.0);
    std::vector<double> got(static_cast<size_t>(count), -1.0);
    BitReader want_r = base;
    kRef.pddp_run(want_r, codec.length_field_bits(), codec.max_code_bits(),
                  want.data(), want.size());
    BitReader got_r = base;
    std::fill(got.begin(), got.end(), -1.0);
    kWord.pddp_run(got_r, codec.length_field_bits(), codec.max_code_bits(),
                   got.data(), got.size());
    EXPECT_TRUE(SameBits(got, want));
    ExpectSameState(got_r, want_r, "pddp_run");
  }
}

TEST(StrategyKernels, FloatKernelsAreBitExact) {
  const uint64_t seed = test::BaseSeed(1005);
  Rng rng(seed);
  for (int trial = 0; trial < 100; ++trial) {
    // Magnitudes where contraction or reassociation would visibly change
    // the rounding.
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 13));
    std::vector<double> a(n), b(n), c(n), got(n, -1.0), want(n, -2.0);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-1e7, 1e7);
      b[i] = rng.Uniform(-1e7, 1e7);
      c[i] = rng.Uniform(-1e3, 1e3);
    }
    const double f = rng.Uniform(-2.0, 2.0);

    kWord.lerp(a.data(), b.data(), f, got.data(), n);
    for (size_t i = 0; i < n; ++i) want[i] = a[i] + (b[i] - a[i]) * f;
    EXPECT_TRUE(SameBits(got, want)) << "lerp seed=" << seed;

    kWord.mul_add(a.data(), b.data(), c.data(), got.data(), n);
    for (size_t i = 0; i < n; ++i) want[i] = a[i] + b[i] * c[i];
    EXPECT_TRUE(SameBits(got, want)) << "mul_add seed=" << seed;
  }
}

TEST(StrategyCorpus, AllTiersDecodeAndQueryIdentically) {
  // End-to-end: one compressed corpus, decompressed and queried with each
  // table active. Hit-for-hit identical — positions and probabilities are
  // compared as exact doubles, not approximately.
  ActiveTableGuard guard;
  const auto profile = traj::ChengduProfile();
  const auto net = test::MakeSmallCity(profile, 14);
  const auto corpus = test::MakeSmallCorpus(net, profile, 2024, 40);

  core::UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  const network::GridIndex grid(net, 8);
  const core::UtcqSystem sys(net, grid, corpus, params, {8, 900});

  struct TableRun {
    traj::UncertainCorpus decoded;
    std::vector<std::vector<traj::WhereHit>> where;
    std::vector<std::vector<traj::WhenHit>> when;
    std::vector<traj::RangeResult> range;
  };
  const auto bbox = net.bounding_box();
  auto run_with = [&](const Kernels& kernels) {
    strategies::SetActive(kernels);
    TableRun run;
    run.decoded = sys.decoder().DecompressAll();
    Rng rng(7);  // same query workload for both tables
    for (int q = 0; q < 30; ++q) {
      const size_t j =
          static_cast<size_t>(rng.UniformInt(0, corpus.size() - 1));
      const auto& tu = corpus[j];
      const traj::Timestamp t =
          tu.times.front() +
          rng.UniformInt(0, std::max<int64_t>(
                                tu.times.back() - tu.times.front(), 1));
      const double alpha = rng.Uniform(0.05, 0.8);
      run.where.push_back(sys.queries().Where(j, t, alpha));

      const auto& inst0 = tu.instances.front();
      const auto& loc = inst0.locations[static_cast<size_t>(
          rng.UniformInt(0, inst0.locations.size() - 1))];
      run.when.push_back(sys.queries().When(
          j, inst0.path[loc.path_index], loc.rd, alpha));

      const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
      const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
      const double half = rng.Uniform(100.0, 600.0);
      run.range.push_back(sys.queries().Range(
          {cx - half, cy - half, cx + half, cy + half}, t, alpha));
    }
    return run;
  };

  const TableRun want = run_with(kRef);
  ASSERT_EQ(want.decoded.size(), corpus.size());
  const TableRun got = run_with(kWord);
  ASSERT_EQ(got.decoded.size(), want.decoded.size());
  for (size_t j = 0; j < want.decoded.size(); ++j) {
    EXPECT_EQ(got.decoded[j].id, want.decoded[j].id);
    EXPECT_EQ(got.decoded[j].times, want.decoded[j].times) << "traj " << j;
    EXPECT_EQ(got.decoded[j].instances, want.decoded[j].instances)
        << "traj " << j;
  }
  EXPECT_EQ(got.where, want.where);
  EXPECT_EQ(got.when, want.when);
  EXPECT_EQ(got.range, want.range);
}

}  // namespace
}  // namespace utcq
