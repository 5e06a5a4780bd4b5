// Query-serving layer: the engine must be result-identical to the uncached
// processors under every cache state — cold, warm, thrashing at tiny byte
// budgets, and hammered concurrently — and the batched API must equal
// one-at-a-time execution exactly.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "serve/decoded_cache.h"
#include "serve/query_engine.h"
#include "shard/sharded.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::serve {
namespace {

struct ServeFixture {
  ServeFixture() {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 14);
    traj::UncertainTrajectoryGenerator gen(net, profile, 777);
    corpus = gen.GenerateCorpus(50);
    grid = std::make_unique<network::GridIndex>(net, 16);
    params.default_interval_s = profile.default_interval_s;
    sys = std::make_unique<core::UtcqSystem>(net, *grid, corpus, params,
                                             core::StiuParams{16, 900});
  }

  /// A deterministic mixed query workload over the fixture corpus.
  std::vector<QueryRequest> MakeWorkload(size_t count, uint64_t seed) const {
    std::vector<QueryRequest> reqs;
    common::Rng rng(seed);
    const auto bbox = net.bounding_box();
    for (size_t i = 0; i < count; ++i) {
      const auto j =
          static_cast<uint32_t>(rng.UniformInt(0, corpus.size() - 1));
      const auto& tu = corpus[j];
      const double alpha = rng.Uniform(0.1, 0.6);
      switch (rng.UniformInt(0, 2)) {
        case 0:
          reqs.push_back(QueryRequest::MakeWhere(
              j, rng.UniformInt(tu.times.front(), tu.times.back()), alpha));
          break;
        case 1: {
          const auto& path = tu.instances.front().path;
          reqs.push_back(QueryRequest::MakeWhen(
              j, path[rng.UniformInt(0, path.size() - 1)],
              rng.Uniform(0.0, 1.0), alpha));
          break;
        }
        default: {
          const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
          const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
          const double half = rng.Uniform(200.0, 900.0);
          reqs.push_back(QueryRequest::MakeRange(
              {cx - half, cy - half, cx + half, cy + half},
              rng.UniformInt(tu.times.front(), tu.times.back()), alpha));
          break;
        }
      }
    }
    return reqs;
  }

  /// Ground truth: the uncached processor's answer.
  QueryResult Uncached(const QueryRequest& req) const {
    QueryResult expected;
    expected.kind = req.kind;
    switch (req.kind) {
      case QueryKind::kWhere:
        expected.where = sys->queries().Where(req.traj, req.t, req.alpha);
        break;
      case QueryKind::kWhen:
        expected.when =
            sys->queries().When(req.traj, req.edge, req.rd, req.alpha);
        break;
      case QueryKind::kRange:
        expected.range = sys->queries().Range(req.region, req.t, req.alpha);
        break;
    }
    return expected;
  }

  static bool SameResult(const QueryResult& a, const QueryResult& b) {
    return a.where == b.where && a.when == b.when && a.range == b.range;
  }

  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
  std::unique_ptr<network::GridIndex> grid;
  core::UtcqParams params;
  std::unique_ptr<core::UtcqSystem> sys;
};

ServeFixture& Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

TEST(DecodedTrajCache, LruEvictsLeastRecentlyUsed) {
  // Single cache shard so the eviction order is fully deterministic.
  const size_t unit = [&] {
    traj::DecodedTraj probe;
    probe.times.resize(100);
    return probe.ApproxBytes();
  }();

  DecodedTrajCache cache(2 * unit, 1);
  std::atomic<int> decodes{0};
  auto counted = [&](uint64_t key) {
    return cache.GetOrDecode(key, [&, key] {
      ++decodes;
      traj::DecodedTraj dt;
      dt.times.resize(100);
      (void)key;
      return dt;
    });
  };

  counted(1);
  counted(2);
  EXPECT_EQ(decodes.load(), 2);
  counted(1);  // hit; makes key 2 the LRU victim
  EXPECT_EQ(decodes.load(), 2);
  counted(3);  // evicts 2
  EXPECT_NE(cache.Peek(1), nullptr);
  EXPECT_EQ(cache.Peek(2), nullptr);
  EXPECT_NE(cache.Peek(3), nullptr);
  counted(2);  // re-decodes
  EXPECT_EQ(decodes.load(), 4);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_LE(stats.resident_bytes, cache.budget_bytes());
}

TEST(DecodedTrajCache, PinsSurviveEviction) {
  traj::DecodedTraj big;
  big.times.resize(4096);
  const size_t bytes = big.ApproxBytes();

  DecodedTrajCache cache(bytes / 2, 1);  // nothing fits
  const auto pin = cache.GetOrDecode(7, [&] { return big; });
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->times.size(), 4096u);
  // The entry was evicted on insert (over budget), but the pin holds it.
  EXPECT_EQ(cache.Peek(7), nullptr);
  EXPECT_EQ(cache.stats().resident_entries, 0u);
  EXPECT_EQ(pin->times.size(), 4096u);
}

TEST(QueryEngine, MatchesUncachedColdAndWarm) {
  ServeFixture& f = Fixture();
  QueryEngine engine(f.sys->queries());
  const auto reqs = f.MakeWorkload(120, 9001);
  for (int pass = 0; pass < 2; ++pass) {  // cold, then fully warm
    for (const auto& req : reqs) {
      EXPECT_TRUE(ServeFixture::SameResult(engine.Execute(req),
                                           f.Uncached(req)))
          << "pass " << pass;
    }
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.queries, 240u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
}

TEST(QueryEngine, WhenOnForeignEdgesMatchesWithoutDecoding) {
  ServeFixture& f = Fixture();
  QueryEngine engine(f.sys->queries());
  // Sweep edges regardless of whether trajectory 0 passes them: the
  // index-only rejection must agree with the uncached answer, and edges
  // the trajectory never passes must not cost a decode. An edge is
  // foreign when the uncached When finds no reference group near it.
  std::vector<network::EdgeId> foreign;
  std::vector<network::EdgeId> passed;
  for (network::EdgeId e = 0; e < 40; ++e) {
    core::QueryStats qs;
    const auto want = f.sys->queries().When(0, e, 0.5, 0.2, &qs);
    if (qs.candidates == 0) {
      EXPECT_TRUE(want.empty()) << "edge " << e;
      foreign.push_back(e);
    } else {
      passed.push_back(e);
    }
  }
  ASSERT_FALSE(foreign.empty());  // the sweep must hit foreign edges
  for (const network::EdgeId e : foreign) {
    EXPECT_TRUE(engine.When(0, e, 0.5, 0.2).empty()) << "edge " << e;
  }
  // Rejections shy of the cache leave no miss traffic behind.
  EXPECT_EQ(engine.stats().cache_misses, 0u);
  for (const network::EdgeId e : passed) {
    EXPECT_EQ(engine.When(0, e, 0.5, 0.2),
              f.sys->queries().When(0, e, 0.5, 0.2))
        << "edge " << e;
  }
  // Only passed-edge queries may have pinned the trajectory.
  EXPECT_LE(engine.stats().cache_misses, 1u);
}

TEST(QueryEngine, BudgetZeroNeverTouchesTheCache) {
  // A partial decode must never land in the DecodedTrajCache under the
  // full-decode key: a later query hitting that entry would trust a stale
  // prefix as the complete trajectory. The partial path is structurally
  // cache-free — budget 0 selects it, and the cache must stay empty in
  // both directions (no inserts, no hits, no misses).
  ServeFixture& f = Fixture();
  core::UtcqParams params = f.params;
  params.t_sync_interval = 2;  // dense sync tables so the seek path engages
  const core::UtcqSystem sys2(f.net, *f.grid, f.corpus, params,
                              core::StiuParams{16, 900});

  EngineOptions popts;
  popts.cache_budget_bytes = 0;
  QueryEngine partial(sys2.queries(), popts);

  const auto reqs = f.MakeWorkload(120, 2026);
  std::vector<QueryResult> got;
  got.reserve(reqs.size());
  for (const auto& req : reqs) got.push_back(partial.Execute(req));

  const EngineStats ps = partial.stats();
  EXPECT_GT(ps.partial_queries, 0u);
  EXPECT_GT(ps.decode_bytes_partial, 0u);
  EXPECT_GT(ps.sync_seeks, 0u);
  EXPECT_EQ(ps.cache_resident_bytes, 0u);
  EXPECT_EQ(ps.cache_resident_entries, 0u);
  EXPECT_EQ(ps.cache_hits + ps.cache_misses, 0u);

  // The partial answers are hit-for-hit identical to the full-decode
  // engine over the same corpus (and to the uncached oracle).
  QueryEngine full(sys2.queries());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(ServeFixture::SameResult(got[i], full.Execute(reqs[i])))
        << "request " << i;
    EXPECT_TRUE(ServeFixture::SameResult(got[i], f.Uncached(reqs[i])))
        << "request " << i;
  }

  // After partial traffic, a full-decode engine's first pin of a
  // trajectory is a genuine miss that materializes the complete decode:
  // resident bytes equal the whole trajectory exactly, not a prefix.
  QueryEngine fresh(sys2.queries());
  (void)fresh.Where(0, f.corpus[0].times.front(), 0.3);
  const core::UtcqDecoder decoder(f.net, sys2.compressed());
  const auto st = fresh.stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_resident_bytes, decoder.DecodeTraj(0).ApproxBytes());
  EXPECT_EQ(st.partial_queries, 0u);
}

TEST(QueryEngine, TinyBudgetEvictionStaysCorrect) {
  ServeFixture& f = Fixture();
  EngineOptions opts;
  opts.cache_budget_bytes = 512;  // far below one decoded trajectory
  QueryEngine engine(f.sys->queries(), opts);
  const auto reqs = f.MakeWorkload(80, 4242);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& req : reqs) {
      EXPECT_TRUE(ServeFixture::SameResult(engine.Execute(req),
                                           f.Uncached(req)));
    }
  }
  const auto stats = engine.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_resident_bytes, opts.cache_budget_bytes);
  EXPECT_EQ(stats.cache_hits, 0u);  // nothing can stay resident
}

TEST(QueryEngine, BatchEqualsSequential) {
  ServeFixture& f = Fixture();
  const auto reqs = f.MakeWorkload(150, 31337);

  QueryEngine batch_engine(f.sys->queries());
  const auto batched = batch_engine.ExecuteBatch(reqs);
  ASSERT_EQ(batched.size(), reqs.size());

  QueryEngine seq_engine(f.sys->queries());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const QueryResult sequential = seq_engine.Execute(reqs[i]);
    EXPECT_TRUE(ServeFixture::SameResult(batched[i], sequential)) << i;
    EXPECT_TRUE(ServeFixture::SameResult(batched[i], f.Uncached(reqs[i])))
        << i;
  }
  EXPECT_EQ(batch_engine.stats().batches, 1u);
  EXPECT_EQ(batch_engine.stats().queries, reqs.size());
}

TEST(QueryEngine, ConcurrentMixedQueriesMatchUncached) {
  ServeFixture& f = Fixture();
  // Budget sized so the working set does not fully fit: threads race
  // hits, misses, and evictions against each other.
  EngineOptions opts;
  opts.cache_budget_bytes = 64 * 1024;
  QueryEngine engine(f.sys->queries(), opts);

  const auto reqs = f.MakeWorkload(100, 5150);
  std::vector<QueryResult> expected;
  expected.reserve(reqs.size());
  for (const auto& req : reqs) expected.push_back(f.Uncached(req));

  constexpr int kThreads = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the workload at its own offset so cache states
      // interleave differently per thread.
      for (size_t i = 0; i < reqs.size(); ++i) {
        const size_t k = (i + static_cast<size_t>(t) * 25) % reqs.size();
        if (!ServeFixture::SameResult(engine.Execute(reqs[k]), expected[k])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(engine.stats().queries, static_cast<size_t>(kThreads) * reqs.size());
}

TEST(QueryEngine, ShardedBackendMatchesAndSharesCache) {
  ServeFixture& f = Fixture();
  shard::ShardOptions sopts;
  sopts.num_shards = 4;
  const shard::ShardedCompressor compressor(f.net, *f.grid, f.params,
                                            core::StiuParams{16, 900}, sopts);
  const shard::ShardedBuild build = compressor.Compress(f.corpus);
  const std::string manifest = ::testing::TempDir() + "/serve_set.utcq";
  std::string error;
  ASSERT_TRUE(build.Save(manifest, &error)) << error;
  shard::ShardedCorpus sharded;
  ASSERT_TRUE(sharded.Open(f.net, manifest, &error)) << error;

  QueryEngine engine(sharded);
  EXPECT_EQ(engine.num_trajectories(), f.corpus.size());
  const auto reqs = f.MakeWorkload(120, 2718);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& req : reqs) {
      const QueryResult got = engine.Execute(req);
      // The sharded set is pinned result-identical to the unsharded system
      // (shard_test), so the unsharded processor is ground truth here too.
      EXPECT_TRUE(ServeFixture::SameResult(got, f.Uncached(req)));
    }
  }
  // Range fan-out ran through the shared cache: its candidate pins must
  // show up as engine cache traffic.
  EXPECT_GT(engine.stats().cache_hits, 0u);

  // Batch over the sharded backend as well.
  QueryEngine batch_engine(sharded);
  const auto batched = batch_engine.ExecuteBatch(reqs);
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(ServeFixture::SameResult(batched[i], f.Uncached(reqs[i])));
  }

  for (uint32_t s = 0; s < build.plan.num_shards(); ++s) {
    std::remove(shard::ShardArchivePath(manifest, s).c_str());
  }
  std::remove(manifest.c_str());
}

TEST(QueryEngine, OutOfRangeTrajectoryAnswersEmpty) {
  ServeFixture& f = Fixture();
  obs::MetricRegistry registry;
  EngineOptions opts;
  opts.registry = &registry;
  QueryEngine engine(f.sys->queries(), opts);
  const auto n = static_cast<uint32_t>(engine.num_trajectories());
  // Untrusted ids past the corpus answer empty instead of reading past
  // the routing table / meta array.
  EXPECT_TRUE(engine.Where(n, 100, 0.3).empty());
  EXPECT_TRUE(engine.When(n + 5, 0, 0.5, 0.3).empty());
  const std::vector<QueryRequest> reqs = {
      QueryRequest::MakeWhere(n + 1, 100, 0.3),
      QueryRequest::MakeWhere(0, f.corpus[0].times.front(), 0.3)};
  const auto results = engine.ExecuteBatch(reqs);
  EXPECT_TRUE(results[0].where.empty());
  EXPECT_EQ(results[1].where, f.sys->queries().Where(
                                  0, f.corpus[0].times.front(), 0.3));
  EXPECT_EQ(engine.stats().queries, 4u);

  // Rejected requests still record exactly one latency sample each, from
  // Execute and ExecuteBatch alike.
  const auto snap = registry.Snapshot();
  uint64_t queries = 0;
  uint64_t samples = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve.engine.queries") queries = value;
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (name.rfind("serve.engine.latency_ns.", 0) == 0) samples += hist.count;
  }
  EXPECT_EQ(queries, 4u);
  EXPECT_EQ(samples, queries);
}

TEST(QueryEngine, StatsReportLatencyPercentiles) {
  ServeFixture& f = Fixture();
  QueryEngine engine(f.sys->queries());
  const auto reqs = f.MakeWorkload(60, 99);
  engine.ExecuteBatch(reqs);
  const auto stats = engine.stats();
  EXPECT_GT(stats.p50_latency_us, 0.0);
  EXPECT_GE(stats.p99_latency_us, stats.p50_latency_us);
  EXPECT_GT(stats.bytes_decoded, 0u);
}

/// Advances by a programmable step on every read, so each query's
/// latency (two reads: start and finish) is exactly `step` nanoseconds —
/// the slow-query log becomes fully deterministic.
struct StepClock : obs::Clock {
  mutable uint64_t now = 0;
  uint64_t step = 0;
  uint64_t NowNanos() const override { return now += step; }
};

TEST(QueryEngine, SlowQueryLogRetainsTheWorstDeterministically) {
  ServeFixture& f = Fixture();
  StepClock clock;
  EngineOptions opts;
  opts.clock = &clock;
  opts.slow_query_threshold_us = 1;
  opts.slow_query_log_size = 4;
  QueryEngine engine(f.sys->queries(), opts);

  // Below threshold: never logged, cache misses included.
  clock.step = 100;  // 0.1 µs per query
  for (int i = 0; i < 3; ++i) {
    engine.Where(0, f.corpus[0].times.front(), 0.3);
  }
  EXPECT_EQ(engine.stats().slow_queries, 0u);
  EXPECT_TRUE(engine.slow_queries().empty());

  // Six slow queries on one trajectory with rising synthetic latencies
  // (2..7 µs), then one slower miss on a fresh trajectory (10 µs). The
  // log holds 4 entries: it must retain exactly the worst four.
  for (uint64_t us = 2; us <= 7; ++us) {
    clock.step = us * 1000;
    engine.Where(1, f.corpus[1].times.front(), 0.3);
  }
  clock.step = 10 * 1000;
  engine.Where(2, f.corpus[2].times.front(), 0.3);

  const auto slow = engine.slow_queries();
  ASSERT_EQ(slow.size(), 4u);
  EXPECT_EQ(engine.stats().slow_queries, 4u);
  // Sorted slowest first: 10, 7, 6, 5 µs — the 2/3/4 µs entries were
  // displaced.
  EXPECT_DOUBLE_EQ(slow[0].latency_us, 10.0);
  EXPECT_DOUBLE_EQ(slow[1].latency_us, 7.0);
  EXPECT_DOUBLE_EQ(slow[2].latency_us, 6.0);
  EXPECT_DOUBLE_EQ(slow[3].latency_us, 5.0);
  // The 10 µs query decoded trajectory 2 for the first time: a miss with
  // its decode cost attributed. The others were warm repeats.
  EXPECT_EQ(slow[0].traj, 2u);
  EXPECT_FALSE(slow[0].cache_hit);
  EXPECT_GT(slow[0].decode_bytes, 0u);
  for (size_t i = 1; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].traj, 1u);
    EXPECT_TRUE(slow[i].cache_hit);
    EXPECT_EQ(slow[i].decode_bytes, 0u);
    EXPECT_EQ(slow[i].kind, QueryKind::kWhere);
  }
}

TEST(QueryEngine, ZeroThresholdDisablesTheSlowQueryLog) {
  ServeFixture& f = Fixture();
  StepClock clock;
  clock.step = 1000 * 1000;  // every query takes a synthetic 1 ms
  EngineOptions opts;
  opts.clock = &clock;
  opts.slow_query_threshold_us = 0;  // disabled
  QueryEngine engine(f.sys->queries(), opts);
  engine.Where(0, f.corpus[0].times.front(), 0.3);
  EXPECT_TRUE(engine.slow_queries().empty());
  EXPECT_EQ(engine.stats().slow_queries, 0u);
}

TEST(QueryEngine, SharedRegistryExportsTheEngineCountersExactly) {
  ServeFixture& f = Fixture();
  obs::MetricRegistry registry;
  EngineOptions opts;
  opts.registry = &registry;
  QueryEngine engine(f.sys->queries(), opts);
  const auto reqs = f.MakeWorkload(40, 123);
  engine.ExecuteBatch(reqs);
  for (const auto& req : reqs) engine.Execute(req);

  const auto stats = engine.stats();
  const auto snap = registry.Snapshot();
  const auto counter = [&snap](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "counter " << name << " missing";
    return 0;
  };
  EXPECT_EQ(counter("serve.engine.queries"), stats.queries);
  EXPECT_EQ(counter("serve.engine.queries"), 2 * reqs.size());
  EXPECT_EQ(counter("serve.engine.batches"), stats.batches);
  EXPECT_EQ(counter("serve.cache.hits"), stats.cache_hits);
  EXPECT_EQ(counter("serve.cache.misses"), stats.cache_misses);
  // Every pin the workload took is accounted: hits + misses covers all
  // cache lookups, and the evictions counter matches.
  EXPECT_EQ(counter("serve.cache.evictions"), stats.cache_evictions);
}

}  // namespace
}  // namespace utcq::serve
