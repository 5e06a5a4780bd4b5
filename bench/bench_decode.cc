// Decode-kernel benchmark: full-trajectory decode throughput and cold
// query throughput under every supported strategy tier, measured against
// the kBitloop reference — the pre-optimization bit-at-a-time loops kept
// precisely so the SIMD speedup claim has an honest baseline.
//
// Emits BENCH_decode.json (machine-readable, one object). The equivalence
// gate decompresses the whole corpus under every tier and counts
// mismatches against the bitloop result; a nonzero count fails the run —
// a fast kernel that decodes different bits is a bug, not a speedup.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/utcq.h"
#include "obs/metrics.h"
#include "strategies/strategies.h"

namespace {

using namespace utcq;         // NOLINT
using namespace utcq::bench;  // NOLINT

double SafeRate(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

struct TierRun {
  const char* name = nullptr;
  double decode_seconds = 0.0;
  double decode_mbps = 0.0;
  double qps = 0.0;
  double speedup_vs_bitloop = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const long requested = argc > 1 ? std::atol(argv[1]) : 0;
  if (argc > 1 && requested <= 0) {
    std::fprintf(stderr, "usage: %s [trajectories > 0]\n", argv[0]);
    return 2;
  }
  const size_t trajectories = argc > 1 ? static_cast<size_t>(requested)
                                       : TrajectoryCount(600);
  const auto w = MakeWorkload(traj::ChengduProfile(), trajectories);
  const network::GridIndex grid(w->net, 32);

  core::UtcqParams params;
  params.default_interval_s = w->profile.default_interval_s;
  params.eta_p = w->profile.eta_p;
  const core::UtcqSystem sys(w->net, grid, w->corpus, params,
                             core::StiuParams{32, 1800});
  const core::UtcqDecoder decoder = sys.decoder();
  const double payload_bytes =
      static_cast<double>(sys.compressed().total_bits()) / 8.0;
  const size_t n = sys.compressed().num_trajectories();

  // Cold-query workload: one answerable Where per trajectory (mid time).
  struct Point {
    uint32_t traj;
    traj::Timestamp t;
  };
  std::vector<Point> points;
  const size_t distinct = std::min<size_t>(n, 400);
  for (uint32_t j = 0; j < distinct; ++j) {
    const auto& tu = w->corpus[j];
    points.push_back({j, (tu.times.front() + tu.times.back()) / 2});
  }
  const double alpha = 0.3;

  // The tier list: bitloop first (it is the baseline every speedup divides
  // by), then every supported optimized tier in ascending order.
  std::vector<strategies::Tier> tiers = {strategies::Tier::kBitloop};
  for (const strategies::Tier t :
       {strategies::Tier::kScalar, strategies::Tier::kAvx2}) {
    if (strategies::TierSupported(t)) tiers.push_back(t);
  }

  // --- equivalence gate: every tier must decode the identical corpus ------
  size_t mismatches = 0;
  strategies::SetActive(strategies::Tier::kBitloop);
  const traj::UncertainCorpus want = decoder.DecompressAll();
  for (size_t ti = 1; ti < tiers.size(); ++ti) {
    strategies::SetActive(tiers[ti]);
    const traj::UncertainCorpus got = decoder.DecompressAll();
    for (size_t j = 0; j < n; ++j) {
      if (got[j].times != want[j].times ||
          got[j].instances != want[j].instances) {
        ++mismatches;
      }
    }
  }
  std::printf("equivalence: %zu mismatches across %zu tiers (expected 0)\n",
              mismatches, tiers.size() - 1);

  // --- per-tier decode + query throughput ---------------------------------
  // Repetitions target a fixed decoded volume (~200k trajectory decodes)
  // regardless of corpus size: per-rep time on these corpora is a few
  // milliseconds, far too short a window for a stable speedup ratio.
  const int reps =
      std::max(8, static_cast<int>(200000 / std::max<size_t>(n, 1)));
  std::vector<TierRun> runs;
  common::Stopwatch watch;
  uint64_t sink = 0;  // defeats dead-code elimination of the decode loops
  for (const strategies::Tier tier : tiers) {
    strategies::SetActive(tier);
    TierRun run;
    run.name = strategies::TierName(tier);

    // The timed loop is the bitstream decode of the whole payload: shared
    // times, every reference, every non-reference expanded against its
    // decoded reference — everything the compressed bits encode, through
    // the same entry points DecodeTraj uses, but without ToInstance's
    // network-walk reconstruction (which never touches the bitstream and
    // would dilute a kernel measurement with graph traversal).
    // Scratch buffers live outside the loop (the ...Into decode entry
    // points reuse their capacity), so after the first pass the timed
    // region is bitstream work, not one allocator round-trip per instance.
    std::vector<traj::Timestamp> times;
    std::vector<core::DecodedInstance> refs;
    core::DecodedInstance scratch;
    const auto decode_payload = [&](size_t j) {
      const auto& meta = decoder.view().meta(j);
      decoder.DecodeTimesInto(j, &times);
      sink += times.size();
      if (refs.size() < meta.refs.size()) refs.resize(meta.refs.size());
      for (uint32_t ri = 0; ri < meta.refs.size(); ++ri) {
        decoder.DecodeReferenceInto(j, ri, &refs[ri]);
        sink += refs[ri].entries.size();
      }
      for (uint32_t k = 0; k < meta.nrefs.size(); ++k) {
        decoder.DecodeNonReferenceInto(j, k, refs[meta.nrefs[k].ref_pos],
                                       &scratch);
        sink += scratch.rds.size();
      }
    };
    for (size_t j = 0; j < std::min<size_t>(n, 16); ++j) {
      decode_payload(j);  // warm-up
    }
    watch.Restart();
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t j = 0; j < n; ++j) decode_payload(j);
    }
    run.decode_seconds = watch.ElapsedSeconds();
    run.decode_mbps = SafeRate(payload_bytes * reps / (1024.0 * 1024.0),
                               run.decode_seconds);

    watch.Restart();
    for (const Point& p : points) {
      sink += sys.queries().Where(p.traj, p.t, alpha).size();
    }
    run.qps = SafeRate(static_cast<double>(points.size()),
                       watch.ElapsedSeconds());

    runs.push_back(run);
    std::printf("%-8s decode %.3fs (%.2f MiB/s), where %.0f qps\n", run.name,
                run.decode_seconds, run.decode_mbps, run.qps);
  }
  strategies::SetActive(strategies::BestSupportedTier());

  const double bitloop_mbps = runs.front().decode_mbps;
  const TierRun* best = &runs.front();
  for (TierRun& run : runs) {
    run.speedup_vs_bitloop =
        bitloop_mbps > 0.0 ? run.decode_mbps / bitloop_mbps : 0.0;
    if (run.decode_mbps > best->decode_mbps) best = &run;
  }
  std::printf("best tier %s: %.2fx vs bitloop (sink %llu)\n", best->name,
              best->speedup_vs_bitloop,
              static_cast<unsigned long long>(sink));

  std::FILE* json = std::fopen("BENCH_decode.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_decode.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"decode\",\n");
  std::fprintf(json, "  \"trajectories\": %zu,\n", n);
  std::fprintf(json, "  \"decode_reps\": %d,\n", reps);
  std::fprintf(json, "  \"payload_bytes\": %.0f,\n", payload_bytes);
  std::fprintf(json, "  \"threads_available\": %u,\n",
               common::DefaultThreads());
  std::fprintf(json, "  \"threads_effective\": %u,\n",
               common::EffectiveThreads(n, 0));
  std::fprintf(json, "  \"equivalence_mismatches\": %zu,\n", mismatches);
  std::fprintf(json, "  \"best_tier\": \"%s\",\n", best->name);
  std::fprintf(json, "  \"best_speedup_vs_bitloop\": %.3f,\n",
               best->speedup_vs_bitloop);
  std::fprintf(json, "  \"tiers\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const TierRun& r = runs[i];
    std::fprintf(json,
                 "    {\"tier\": \"%s\", \"decode_seconds\": %.6f, "
                 "\"decode_mbps\": %.3f, \"qps\": %.3f, "
                 "\"speedup_vs_bitloop\": %.3f}%s\n",
                 r.name, r.decode_seconds, r.decode_mbps, r.qps,
                 r.speedup_vs_bitloop, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  AppendMetricsJson(json, obs::MetricRegistry::Global().Snapshot());
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_decode.json\n");
  return mismatches == 0 ? 0 : 1;
}
