// Fig. 12: scalability with data size (20%..100% of the corpus).
//
// Paper shape: compression ratios are roughly independent of corpus size;
// UTCQ's compression time grows linearly (trajectories are processed one
// by one) while TED's grows super-linearly (corpus-wide grouping and
// matrix packing); range query times grow linearly for both with UTCQ
// ahead.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/utcq.h"
#include "ted/ted_index.h"
#include "ted/ted_query.h"

namespace {

using namespace utcq;          // NOLINT
using namespace utcq::bench;   // NOLINT

traj::UncertainCorpus Slice(const traj::UncertainCorpus& corpus,
                            int percent) {
  const size_t keep = std::max<size_t>(
      1, corpus.size() * static_cast<size_t>(percent) / 100);
  return traj::UncertainCorpus(corpus.begin(),
                               corpus.begin() + static_cast<long>(keep));
}

void BM_Compress(benchmark::State& state, traj::DatasetProfile profile,
                 bool use_utcq, int percent) {
  const auto w = MakeWorkload(profile, TrajectoryCount(600));
  const auto corpus = Slice(w->corpus, percent);
  const auto raw = traj::MeasureRawSize(w->net, corpus);
  double cr = 0.0;
  for (auto _ : state) {
    if (use_utcq) {
      core::UtcqParams params;
      params.default_interval_s = profile.default_interval_s;
      params.eta_p = profile.eta_p;
      core::UtcqCompressor comp(w->net, params);
      const auto cc = comp.Compress(corpus);
      cr = static_cast<double>(raw.total()) /
           static_cast<double>(cc.compressed_bits().total());
    } else {
      ted::TedParams params;
      params.eta_p = profile.eta_p;
      ted::TedCompressor comp(w->net, params);
      const auto cc = comp.Compress(corpus);
      cr = static_cast<double>(raw.total()) /
           static_cast<double>(cc.compressed_bits().total());
    }
    benchmark::DoNotOptimize(cr);
  }
  state.counters["CR"] = cr;
  state.counters["trajectories"] = static_cast<double>(corpus.size());
}

void BM_RangeQueries(benchmark::State& state, traj::DatasetProfile profile,
                     bool use_utcq, int percent) {
  const auto w = MakeWorkload(profile, TrajectoryCount(600));
  const auto corpus = Slice(w->corpus, percent);
  const network::GridIndex grid(w->net, 32);

  common::Rng rng(7);
  const auto bbox = w->net.bounding_box();
  struct Q {
    network::Rect re;
    traj::Timestamp tq;
  };
  std::vector<Q> queries;
  for (int i = 0; i < 150; ++i) {
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const double half = rng.Uniform(150.0, 700.0);
    queries.push_back({{cx - half, cy - half, cx + half, cy + half},
                       rng.UniformInt(0, traj::kSecondsPerDay - 1)});
  }

  size_t results = 0;
  if (use_utcq) {
    core::UtcqParams params;
    params.default_interval_s = profile.default_interval_s;
    params.eta_p = profile.eta_p;
    const core::UtcqSystem sys(w->net, grid, corpus, params, {32, 1800});
    for (auto _ : state) {
      results = 0;
      for (const auto& q : queries) {
        results += sys.queries().Range(q.re, q.tq, 0.5).size();
      }
      benchmark::DoNotOptimize(results);
    }
    // Clock-free work per query, from one untimed pass: StIU tuples read
    // for candidate generation, and per candidate trajectory.
    core::QueryStats stats;
    for (const auto& q : queries) sys.queries().Range(q.re, q.tq, 0.5, &stats);
    state.counters["tuples_scanned_per_range"] =
        static_cast<double>(stats.tuples_scanned) / queries.size();
    state.counters["tuples_scanned_per_candidate"] =
        static_cast<double>(stats.tuples_scanned) /
        std::max<uint64_t>(stats.candidates, 1);
  } else {
    ted::TedParams params;
    params.eta_p = profile.eta_p;
    const auto cc = ted::TedCompressor(w->net, params).Compress(corpus);
    const ted::TedIndex index(w->net, grid, cc, 1800);
    const ted::TedQueryProcessor proc(w->net, cc, index);
    for (auto _ : state) {
      results = 0;
      for (const auto& q : queries) {
        results += proc.Range(q.re, q.tq, 0.5).size();
      }
      benchmark::DoNotOptimize(results);
    }
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(queries.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

int main(int argc, char** argv) {
  const auto profiles = utcq::traj::AllProfiles();
  for (const auto& profile : {profiles[1], profiles[2]}) {  // CD, HZ (paper)
    for (const int percent : {20, 40, 60, 80, 100}) {
      benchmark::RegisterBenchmark(
          ("Fig12ab/UTCQ/" + profile.name + "/data_pct:" +
           std::to_string(percent))
              .c_str(),
          BM_Compress, profile, true, percent)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("Fig12ab/TED/" + profile.name + "/data_pct:" +
           std::to_string(percent))
              .c_str(),
          BM_Compress, profile, false, percent)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("Fig12cd/UTCQ/" + profile.name + "/data_pct:" +
           std::to_string(percent))
              .c_str(),
          BM_RangeQueries, profile, true, percent)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("Fig12cd/TED/" + profile.name + "/data_pct:" +
           std::to_string(percent))
              .c_str(),
          BM_RangeQueries, profile, false, percent)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
