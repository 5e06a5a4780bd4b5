// Query-serving benchmark: cold vs. warm throughput through the
// serve::QueryEngine's decoded-trajectory cache, batched execution at
// batch sizes {1, 16, 256}, and the cache-budget sweep.
//
// Emits BENCH_query.json (machine-readable, one object) — the recorded
// baseline for the serving layer, the counterpart of BENCH_shard.json for
// the build pipeline. Every division is guarded: a sub-resolution timer
// reading must produce 0, never NaN/inf, so CI's JSON validation can
// reject genuine corruption.

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
#include "serve/query_engine.h"

namespace {

using namespace utcq;         // NOLINT
using namespace utcq::bench;  // NOLINT

double SafeRate(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

double SafeRatio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct BatchRun {
  size_t batch_size = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double hit_rate = 0.0;
};

struct BudgetRun {
  size_t budget_bytes = 0;
  double qps = 0.0;
  double hit_rate = 0.0;
  size_t resident_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const long requested = argc > 1 ? std::atol(argv[1]) : 0;
  if (argc > 1 && requested <= 0) {
    std::fprintf(stderr, "usage: %s [trajectories > 0]\n", argv[0]);
    return 2;
  }
  const size_t trajectories = argc > 1 ? static_cast<size_t>(requested)
                                       : TrajectoryCount(800);
  const auto w = MakeWorkload(traj::HangzhouProfile(), trajectories);
  const network::GridIndex grid(w->net, 32);

  core::UtcqParams params;
  params.default_interval_s = w->profile.default_interval_s;
  params.eta_p = w->profile.eta_p;
  // Dense sync tables: HZ trajectories are short (mean ~13 edges), so the
  // default interval of 32 would leave most of them sync-free and the
  // cold-bracketed section below would never seek. Sync emission is
  // meta-only — stream bytes and every result are unchanged.
  params.t_sync_interval = 4;
  const core::UtcqSystem sys(w->net, grid, w->corpus, params,
                             core::StiuParams{32, 1800});
  const double alpha = 0.3;

  // Point-query targets: one Where at the trajectory's mid time and one
  // When on an edge its first instance travels — both answerable, neither
  // trivially empty.
  struct Point {
    uint32_t traj;
    traj::Timestamp t;
    network::EdgeId edge;
  };
  std::vector<Point> points;
  const size_t distinct = std::min<size_t>(trajectories, 400);
  for (uint32_t j = 0; j < distinct; ++j) {
    const auto& tu = w->corpus[j];
    points.push_back({j, (tu.times.front() + tu.times.back()) / 2,
                      tu.instances.front().path.front()});
  }

  // --- correctness gate: the engine must be result-identical to the
  // uncached processor before any of its numbers mean anything.
  size_t mismatches = 0;
  {
    serve::QueryEngine engine(sys.queries());
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 cold, pass 1 warm
      for (size_t i = 0; i < std::min<size_t>(points.size(), 50); ++i) {
        const Point& p = points[i];
        if (engine.Where(p.traj, p.t, alpha) !=
            sys.queries().Where(p.traj, p.t, alpha)) {
          ++mismatches;
        }
        if (engine.When(p.traj, p.edge, 0.5, alpha) !=
            sys.queries().When(p.traj, p.edge, 0.5, alpha)) {
          ++mismatches;
        }
      }
    }
  }
  std::printf("equivalence: %zu mismatches (expected 0)\n", mismatches);

  // --- cold vs. warm single-trajectory throughput -------------------------
  // Cold = every query pays the full bitstream decode, the pre-v3
  // baseline: a 1-byte budget still pins through the cache but evicts
  // every entry on insert (budget 0 would switch to partial decode);
  // warm = the working set is fully resident after an untimed fill pass.
  serve::EngineOptions cold_opts;
  cold_opts.cache_budget_bytes = 1;
  serve::QueryEngine cold_engine(sys.queries(), cold_opts);
  common::Stopwatch watch;
  for (const Point& p : points) {
    cold_engine.Where(p.traj, p.t, alpha);
    cold_engine.When(p.traj, p.edge, 0.5, alpha);
  }
  const double cold_seconds = watch.ElapsedSeconds();
  const double cold_queries = 2.0 * static_cast<double>(points.size());
  const double cold_hit_rate = cold_engine.stats().hit_rate();

  // --- cold time-bracketed partial decode (archive v3, DESIGN.md §16) -----
  // The same workload at budget 0, answered from the seekable bitstreams
  // (the engine decodes partially when nothing can stay resident). The
  // acceptance gate is strict: the bracketed path must consume fewer
  // compressed-stream bytes than the full decodes above — otherwise the
  // seek machinery is dead weight and this benchmark fails the run.
  serve::EngineOptions bracketed_opts;
  bracketed_opts.cache_budget_bytes = 0;
  serve::QueryEngine bracketed_engine(sys.queries(), bracketed_opts);
  size_t bracketed_mismatches = 0;
  for (size_t i = 0; i < std::min<size_t>(points.size(), 50); ++i) {
    const Point& p = points[i];
    if (bracketed_engine.Where(p.traj, p.t, alpha) !=
        sys.queries().Where(p.traj, p.t, alpha)) {
      ++bracketed_mismatches;
    }
    if (bracketed_engine.When(p.traj, p.edge, 0.5, alpha) !=
        sys.queries().When(p.traj, p.edge, 0.5, alpha)) {
      ++bracketed_mismatches;
    }
  }
  watch.Restart();
  for (const Point& p : points) {
    bracketed_engine.Where(p.traj, p.t, alpha);
    bracketed_engine.When(p.traj, p.edge, 0.5, alpha);
  }
  const double bracketed_seconds = watch.ElapsedSeconds();
  const double cold_bracketed_qps = SafeRate(cold_queries, bracketed_seconds);
  const auto bracketed_stats = bracketed_engine.stats();
  const uint64_t decode_bytes_partial = bracketed_stats.decode_bytes_partial;
  const uint64_t decode_bytes_full_cold = cold_engine.stats().bytes_decoded;
  const uint64_t sync_seeks = bracketed_stats.sync_seeks;
  const bool partial_gate_ok =
      bracketed_mismatches == 0 && bracketed_stats.partial_queries > 0 &&
      decode_bytes_partial > 0 && decode_bytes_partial < decode_bytes_full_cold;
  std::printf(
      "cold bracketed: %.0f qps, %llu partial stream bytes vs %llu full "
      "decode bytes, %llu sync seeks, gate %s\n",
      cold_bracketed_qps,
      static_cast<unsigned long long>(decode_bytes_partial),
      static_cast<unsigned long long>(decode_bytes_full_cold),
      static_cast<unsigned long long>(sync_seeks),
      partial_gate_ok ? "ok" : "FAILED");

  serve::EngineOptions warm_opts;
  warm_opts.cache_budget_bytes = 128ull << 20;
  // The warm engine is the instrumented one: its registry becomes the
  // baseline's "metrics" object (the other engines keep private
  // registries so their stats stay phase-exact).
  obs::MetricRegistry metrics_registry;
  warm_opts.registry = &metrics_registry;
  serve::QueryEngine engine(sys.queries(), warm_opts);
  for (const Point& p : points) {  // untimed fill
    engine.Where(p.traj, p.t, alpha);
    engine.When(p.traj, p.edge, 0.5, alpha);
  }

  const int warm_reps = 5;
  const auto warm_before = engine.stats();
  watch.Restart();
  for (int rep = 0; rep < warm_reps; ++rep) {
    for (const Point& p : points) {
      engine.Where(p.traj, p.t, alpha);
      engine.When(p.traj, p.edge, 0.5, alpha);
    }
  }
  const double warm_seconds = watch.ElapsedSeconds();
  const double warm_queries = warm_reps * cold_queries;
  const auto warm_after = engine.stats();
  const uint64_t warm_lookups = (warm_after.cache_hits + warm_after.cache_misses) -
                                (warm_before.cache_hits + warm_before.cache_misses);
  const double warm_hit_rate = SafeRatio(
      static_cast<double>(warm_after.cache_hits - warm_before.cache_hits),
      static_cast<double>(warm_lookups));

  const double cold_qps = SafeRate(cold_queries, cold_seconds);
  const double warm_qps = SafeRate(warm_queries, warm_seconds);
  std::printf("cold: %.0f qps, warm: %.0f qps (%.1fx), warm hit rate %.3f\n",
              cold_qps, warm_qps, SafeRatio(warm_qps, cold_qps),
              warm_hit_rate);

  // --- batched execution under cache pressure -----------------------------
  // The stream round-robins across more trajectories than the budget can
  // hold: one-at-a-time execution thrashes the LRU, batch grouping decodes
  // each trajectory once per batch. This is the workload batching exists
  // for; extra cores sharpen it but are not required.
  const size_t pool = std::min<size_t>(points.size(), 64);
  size_t avg_bytes = 0;
  for (size_t j = 0; j < std::min<size_t>(pool, 8); ++j) {
    avg_bytes += sys.queries().decoder().DecodeTraj(points[j].traj).ApproxBytes();
  }
  avg_bytes /= std::min<size_t>(pool, 8);

  std::vector<serve::QueryRequest> stream;
  for (size_t i = 0; i < 1024; ++i) {
    const Point& p = points[i % pool];
    stream.push_back(i % 2 == 0
                         ? serve::QueryRequest::MakeWhere(p.traj, p.t, alpha)
                         : serve::QueryRequest::MakeWhen(p.traj, p.edge, 0.5,
                                                         alpha));
  }

  std::vector<BatchRun> batch_runs;
  for (const size_t batch_size : {size_t{1}, size_t{16}, size_t{256}}) {
    serve::EngineOptions opts;
    // Room for ~8 decoded trajectories: far less than the 64 the stream
    // cycles through, so retention alone cannot serve it.
    opts.cache_budget_bytes = 8 * avg_bytes;
    serve::QueryEngine batch_engine(sys.queries(), opts);
    watch.Restart();
    for (size_t off = 0; off < stream.size(); off += batch_size) {
      const std::vector<serve::QueryRequest> chunk(
          stream.begin() + off,
          stream.begin() + std::min(off + batch_size, stream.size()));
      batch_engine.ExecuteBatch(chunk);
    }
    const double seconds = watch.ElapsedSeconds();
    batch_runs.push_back({batch_size, seconds,
                          SafeRate(static_cast<double>(stream.size()), seconds),
                          batch_engine.stats().hit_rate()});
    std::printf("batch=%zu: %.3fs, %.0f qps, hit rate %.3f\n", batch_size,
                seconds, batch_runs.back().qps, batch_runs.back().hit_rate);
  }

  // --- cache-budget sweep -------------------------------------------------
  std::vector<BudgetRun> budget_runs;
  common::Rng rng(11);
  std::vector<serve::QueryRequest> skewed;
  for (size_t i = 0; i < 2048; ++i) {
    // Square the uniform draw: a zipf-ish skew toward low indices, the
    // popular-entity access pattern caches are built for.
    const double u = rng.Uniform(0.0, 1.0);
    const Point& p = points[static_cast<size_t>(
        u * u * static_cast<double>(points.size() - 1))];
    skewed.push_back(serve::QueryRequest::MakeWhere(p.traj, p.t, alpha));
  }
  for (const size_t budget :
       {size_t{0}, size_t{2} << 20, size_t{16} << 20, size_t{128} << 20}) {
    serve::EngineOptions opts;
    opts.cache_budget_bytes = budget;
    serve::QueryEngine sweep_engine(sys.queries(), opts);
    watch.Restart();
    for (const auto& req : skewed) sweep_engine.Execute(req);
    const double seconds = watch.ElapsedSeconds();
    const auto stats = sweep_engine.stats();
    budget_runs.push_back(
        {budget, SafeRate(static_cast<double>(skewed.size()), seconds),
         stats.hit_rate(), stats.cache_resident_bytes});
    std::printf("budget=%zuMiB: %.0f qps, hit rate %.3f\n", budget >> 20,
                budget_runs.back().qps, budget_runs.back().hit_rate);
  }

  const auto final_stats = engine.stats();
  std::FILE* json = std::fopen("BENCH_query.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_query.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"query_serving\",\n");
  std::fprintf(json, "  \"trajectories\": %zu,\n", trajectories);
  std::fprintf(json, "  \"distinct_targets\": %zu,\n", points.size());
  std::fprintf(json, "  \"threads_available\": %u,\n",
               common::DefaultThreads());
  std::fprintf(json, "  \"threads_effective_batch\": %u,\n",
               common::EffectiveThreads(256, 0));
  std::fprintf(json, "  \"equivalence_mismatches\": %zu,\n", mismatches);
  std::fprintf(json, "  \"cold_qps\": %.3f,\n", cold_qps);
  std::fprintf(json, "  \"warm_qps\": %.3f,\n", warm_qps);
  std::fprintf(json, "  \"warm_over_cold\": %.3f,\n",
               SafeRatio(warm_qps, cold_qps));
  std::fprintf(json, "  \"cold_hit_rate\": %.4f,\n", cold_hit_rate);
  std::fprintf(json, "  \"warm_hit_rate\": %.4f,\n", warm_hit_rate);
  std::fprintf(json, "  \"cold_bracketed_qps\": %.3f,\n", cold_bracketed_qps);
  std::fprintf(json, "  \"bracketed_over_cold\": %.3f,\n",
               SafeRatio(cold_bracketed_qps, cold_qps));
  std::fprintf(json, "  \"decode_bytes_partial\": %llu,\n",
               static_cast<unsigned long long>(decode_bytes_partial));
  std::fprintf(json, "  \"decode_bytes_full_cold\": %llu,\n",
               static_cast<unsigned long long>(decode_bytes_full_cold));
  std::fprintf(json, "  \"sync_seeks\": %llu,\n",
               static_cast<unsigned long long>(sync_seeks));
  std::fprintf(json, "  \"p50_latency_us\": %.2f,\n",
               final_stats.p50_latency_us);
  std::fprintf(json, "  \"p99_latency_us\": %.2f,\n",
               final_stats.p99_latency_us);
  std::fprintf(json, "  \"avg_decoded_traj_bytes\": %zu,\n", avg_bytes);
  std::fprintf(json, "  \"batch_runs\": [\n");
  for (size_t i = 0; i < batch_runs.size(); ++i) {
    const BatchRun& r = batch_runs[i];
    std::fprintf(json,
                 "    {\"batch_size\": %zu, \"seconds\": %.6f, "
                 "\"qps\": %.3f, \"hit_rate\": %.4f}%s\n",
                 r.batch_size, r.seconds, r.qps, r.hit_rate,
                 i + 1 < batch_runs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"budget_runs\": [\n");
  for (size_t i = 0; i < budget_runs.size(); ++i) {
    const BudgetRun& r = budget_runs[i];
    std::fprintf(json,
                 "    {\"budget_bytes\": %zu, \"qps\": %.3f, "
                 "\"hit_rate\": %.4f, \"resident_bytes\": %zu}%s\n",
                 r.budget_bytes, r.qps, r.hit_rate, r.resident_bytes,
                 i + 1 < budget_runs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  AppendMetricsJson(json, metrics_registry.Snapshot());
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_query.json\n");
  return mismatches == 0 && partial_gate_ok ? 0 : 1;
}
