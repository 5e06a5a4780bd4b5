// The two workloads that serve a corpus compressed in one batch:
//
//   point-hot   6,400 trajectories in one archive, engine cache at its
//               256 MiB default (the ~29 MB decoded working set fits), 2
//               closed-loop connections of Zipf-skewed Where/When. Wire,
//               session, dispatch, pool hand-off and cache hits carry it.
//   range-scan  12,800 trajectories in a 4-shard hash-partitioned set, an
//               8 MiB engine cache against ~58 MB of decoded trajectories,
//               1 closed-loop connection of Range, the shards answered one
//               after another. StIU candidate scan, Lemma pruning and
//               decode on misses carry it.
//
// Each is the other's no-change control: a wire or session change should
// move point-hot only, a Range or index change range-scan only.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "bench.h"
#include "bench_common.h"
#include "core/decoder.h"
#include "core/utcq.h"
#include "gate.h"
#include "net/client.h"
#include "network/grid_index.h"
#include "shard/sharded.h"
#include "verify/oracle.h"

namespace perfbench {

namespace {

using utcq::serve::QueryRequest;

struct Spec {
  size_t trajectories = 0;
  /// 0 serves one archive; otherwise a hash-partitioned set of this many.
  uint32_t shards = 0;
  size_t cache_budget_bytes = 0;
  unsigned connections = 1;
  /// Range-only traffic instead of the Where/When mix.
  bool range_traffic = false;
  size_t gate_requests = 0;
  /// EngineOptions::num_threads: 0 fans out over every core, 1 answers a
  /// query's shards one after another on the session thread.
  unsigned fan_out = 0;
};

constexpr Spec kPointHot{6400, 0, 256ull << 20, 2, false, 600, 0};
// Serial shards: with a 4-way fan-out a Range needs every core at once,
// and its rate moved by up to 1.5x between runs of the same code and seed on
// a host whose other tenants take CPU time; serial it moved by ~6%.
constexpr Spec kRangeScan{12800, 4, 8ull << 20, 1, true, 40, 1};
/// Times a timed run sets up; setup_s is the median.
constexpr int kSetupRepeats = 3;
constexpr double kZipfExponent = 0.99;
constexpr size_t kRequestPool = 1 << 16;
/// Encoder passes of a timed run; the ingest_* figures are their medians.
constexpr int kEncodePasses = 3;

/// One set-up serving stack. Members are destroyed bottom-up: the server
/// stops before the engine, the engine before what it borrows, and the
/// registry last.
struct Served {
  utcq::obs::MetricRegistry registry;
  std::unique_ptr<utcq::network::GridIndex> grid;
  utcq::archive::ArchiveReader reader;
  std::unique_ptr<utcq::core::StiuIndex> index;
  std::unique_ptr<utcq::core::UtcqQueryProcessor> qp;
  std::unique_ptr<utcq::shard::ShardedCorpus> sharded;
  std::unique_ptr<utcq::serve::QueryEngine> engine;
  std::unique_ptr<utcq::net::TcpServer> server;
  std::vector<std::string> files;
  utcq::traj::ComponentSizes compressed_bits;
  double setup_s = 0.0;
};

/// Compress and build StIU (UtcqSystem, or ShardedCompressor for a set),
/// save, reopen and start the server, then wait for the first answered
/// query. The traced run puts a span around each stage.
std::unique_ptr<Served> SetUp(const Spec& spec,
                              const utcq::bench::Workload& w,
                              const utcq::network::GridIndex& grid,
                              const utcq::core::UtcqParams& params,
                              const std::string& dir, Tracer* tracer,
                              std::string* error) {
  auto s = std::make_unique<Served>();
  const auto& net = w.net;
  ScopedSpan setup_span(tracer, "setup");
  const int64_t t0 = NowNs();
  if (spec.shards == 0) {
    const std::string path = dir + "/corpus.utcq";
    std::unique_ptr<utcq::core::UtcqSystem> sys;
    {
      ScopedSpan span(tracer, "compress");
      sys = std::make_unique<utcq::core::UtcqSystem>(net, grid, w.corpus,
                                                     params, kStiuParams);
    }
    s->compressed_bits = sys->compressed().compressed_bits();
    {
      ScopedSpan span(tracer, "archive.save");
      if (!utcq::archive::ArchiveWriter(sys->compressed(), &sys->index())
               .Save(path, error)) {
        return nullptr;
      }
    }
    {
      ScopedSpan span(tracer, "archive.open");
      if (!s->reader.Open(path, error)) return nullptr;
      s->grid = std::make_unique<utcq::network::GridIndex>(
          net, s->reader.index_cells_per_side());
      s->index = s->reader.LoadIndex(*s->grid, error);
      if (s->index == nullptr) return nullptr;
    }
    s->qp = std::make_unique<utcq::core::UtcqQueryProcessor>(
        net, s->reader.view(), *s->index);
    s->files = {path};
  } else {
    const std::string manifest = dir + "/set.utcq";
    utcq::shard::ShardOptions sopts;
    sopts.num_shards = spec.shards;
    sopts.policy = utcq::shard::ShardPolicy::kHash;
    utcq::shard::ShardedBuild build;
    {
      ScopedSpan span(tracer, "compress");
      build = utcq::shard::ShardedCompressor(net, grid, params, kStiuParams,
                                             sopts)
                  .Compress(w.corpus);
    }
    s->compressed_bits = build.compressed_bits();
    {
      ScopedSpan span(tracer, "archive.save");
      if (!build.Save(manifest, error)) return nullptr;
    }
    {
      ScopedSpan span(tracer, "archive.open");
      s->sharded = std::make_unique<utcq::shard::ShardedCorpus>();
      if (!s->sharded->Open(net, manifest, error)) return nullptr;
    }
    s->files = {manifest};
    for (uint32_t i = 0; i < spec.shards; ++i) {
      s->files.push_back(utcq::shard::ShardArchivePath(manifest, i));
    }
  }
  utcq::serve::EngineOptions eopts;
  eopts.cache_budget_bytes = spec.cache_budget_bytes;
  eopts.registry = &s->registry;
  eopts.num_threads = spec.fan_out;
  using utcq::serve::QueryEngine;
  s->engine = s->sharded != nullptr
                  ? std::make_unique<QueryEngine>(*s->sharded, eopts)
                  : std::make_unique<QueryEngine>(*s->qp, eopts);
  s->server = StartServer(
      s->engine.get(), &s->registry,
      QueryRequest::MakeWhere(0, w.corpus.front().times.front(), 0.1), tracer,
      error);
  if (s->server == nullptr) return nullptr;
  s->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

/// The decompressed served corpus in global id order: what every engine
/// reconstructs, quantization included, and so what the oracle scans.
utcq::traj::UncertainCorpus Decompressed(const Served& s) {
  if (s.sharded == nullptr) return s.qp->decoder().DecompressAll();
  utcq::traj::UncertainCorpus out(s.sharded->num_trajectories());
  for (uint32_t sh = 0; sh < s.sharded->num_shards(); ++sh) {
    auto local = s.sharded->shard_queries(sh).decoder().DecompressAll();
    const auto& members = s.sharded->manifest().shards[sh].members;
    for (size_t i = 0; i < local.size(); ++i) {
      out[members[i]] = std::move(local[i]);
    }
  }
  return out;
}

/// Brings every trajectory into the engine cache (point-hot's working set
/// fits), so the measured window sees the warm path only.
bool WarmUp(const Served& s, const utcq::traj::UncertainCorpus& corpus) {
  utcq::net::Client client;
  if (!client.Connect("127.0.0.1", s.server->port())) return false;
  std::vector<QueryRequest> batch;
  std::vector<utcq::serve::QueryResult> results;
  for (uint32_t j = 0; j < corpus.size(); ++j) {
    batch.push_back(QueryRequest::MakeWhere(j, corpus[j].times.front(), 0.1));
    if (batch.size() == 256 || j + 1 == corpus.size()) {
      if (!client.Batch(batch, &results).ok) return false;
      batch.clear();
    }
  }
  return true;
}

std::vector<Part> PartsOf(const Served& s,
                          const utcq::network::RoadNetwork& net,
                          LoadedIndices* keep) {
  if (s.sharded != nullptr) {
    const std::vector<std::string> shard_files(s.files.begin() + 1,
                                               s.files.end());
    return ShardParts(*s.sharded, shard_files, net, keep);
  }
  Part p{s.qp.get(), s.index.get(), {}};
  p.members.resize(s.qp->decoder().view().num_trajectories());
  for (uint32_t j = 0; j < p.members.size(); ++j) p.members[j] = j;
  return {std::move(p)};
}

/// The correctness gate: a seeded sample over the wire against the oracle.
/// False (with the reason in `r`) on a mismatch.
bool Gate(const Spec& spec, const Served& served, const utcq::bench::Workload& w,
          const utcq::core::UtcqParams& params,
          const std::vector<QueryRequest>& pool, Result* r) {
  const utcq::traj::UncertainCorpus decoded = Decompressed(served);
  const utcq::verify::Oracle oracle(w.net, decoded, params.eta_d);
  const std::vector<QueryRequest> sample(pool.begin(),
                                         pool.begin() + spec.gate_requests);
  const GateResult g =
      CheckOverWire(served.server->port(), sample, w.net, oracle);
  r->attempted += g.checked;
  r->failed += g.failed;
  if (g.mismatches == 0) return true;
  r->correct = false;
  r->error = g.first_mismatch;
  return false;
}

Result RunBatch(const Spec& spec, const Options& opts) {
  Result r;
  Tracer tracer;
  Tracer* const tr = opts.trace ? &tracer : nullptr;
  const utcq::traj::DatasetProfile profile = utcq::traj::HangzhouProfile();
  const auto w =
      utcq::bench::MakeWorkload(profile, spec.trajectories, opts.seed);
  const utcq::network::GridIndex grid(w->net, kStiuParams.cells_per_side);
  const utcq::core::UtcqParams params = CompressionParams(profile);
  const size_t points = MappedPoints(w->corpus);

  // Seeded request pool; connection c starts at its own offset.
  utcq::common::Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + 17);
  const auto bbox = w->net.bounding_box();
  utcq::traj::Timestamp t_lo = w->corpus.front().times.front();
  utcq::traj::Timestamp t_hi = w->corpus.front().times.back();
  for (const auto& tu : w->corpus) {
    t_lo = std::min(t_lo, tu.times.front());
    t_hi = std::max(t_hi, tu.times.back());
  }
  const Zipf zipf(w->corpus.size(), kZipfExponent, rng);
  std::vector<QueryRequest> pool;
  pool.reserve(kRequestPool);
  while (pool.size() < kRequestPool) {
    if (spec.range_traffic) {
      pool.push_back(MakeRange(bbox, t_lo, t_hi, rng));
      continue;
    }
    const uint32_t id = zipf.Sample(rng);
    pool.push_back(rng.Bernoulli(0.5) ? MakeWhere(w->corpus[id], id, rng)
                                      : MakeWhen(w->corpus[id], id, rng));
  }
  const size_t stride = pool.size() / spec.connections;
  const RequestSource source = [&](unsigned c, uint64_t i) {
    return pool[(c * stride + i) % pool.size()];
  };

  // Set up several times and keep the last stack: setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < (opts.trace ? 1 : kSetupRepeats); ++rep) {
    served.reset();
    std::string error;
    served = SetUp(spec, *w, grid, params, opts.work_dir, tr, &error);
    if (served == nullptr) {
      r.correct = false;
      r.error = "setup failed: " + error;
      return r;
    }
    setup_s.push_back(served->setup_s);
  }
  const uint16_t port = served->server->port();

  // The encoder passes run while the server is idle: after a long load
  // window they ran up to 40% slower, and by how much varied from run to
  // run.
  std::vector<EncodeStats> passes;
  for (int pass = 0; pass < (opts.trace ? 0 : kEncodePasses); ++pass) {
    passes.push_back(EncodePass(w->net, w->corpus, params));
  }

  // peak_rss_mb is the peak while serving: warm-up and the load window.
  // The set-ups' freed heap goes back to the system first, so growth of
  // the serving stack shows even below the set-up's own peak.
  ReleaseFreeHeap();
  RssSampler rss;
  if (!spec.range_traffic && !WarmUp(*served, w->corpus)) {
    r.correct = false;
    r.error = "warm-up batch failed";
    return r;
  }

  const LoadStats load =
      RunClosedLoop(port, spec.connections, opts.seconds, source, nullptr);
  r.attempted += load.attempted;
  r.failed += load.failed;
  r.samples = load.window.count();
  const WindowStats window = MedianOfSubWindows(load.window);
  if (load.window.min_sub_count() < Window::kMinSamples) {
    r.correct = false;
    r.error = "a sub-window completed " +
              std::to_string(load.window.min_sub_count()) + " queries, under " +
              std::to_string(Window::kMinSamples) + ": too few for its p99";
    return r;
  }

  const double peak_rss_mb = rss.Stop();

  if (!opts.trace) {
    // The gate runs after the peak is taken: its copies of the corpus are
    // the benchmark's own.
    if (!Gate(spec, *served, *w, params, pool, &r)) return r;
    MetricSet& m = r.metrics;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("qps", window.rate, "1/s");
    m.Set("query_p50_us", window.p50, "us");
    m.Set("query_p99_us", window.p99, "us");
    const auto median_of = [&passes](double EncodeStats::*field) {
      std::vector<double> v;
      for (const EncodeStats& e : passes) v.push_back(e.*field);
      return Median(v);
    };
    m.Set("ingest_points_per_s", median_of(&EncodeStats::points_per_s), "1/s");
    m.Set("ingest_p50_us", median_of(&EncodeStats::p50_us), "us");
    m.Set("ingest_p99_us", median_of(&EncodeStats::p99_us), "us");
    r.encode_samples = w->corpus.size();
    m.Set("compression_ratio",
          CompressionRatio(w->net, w->corpus, served->compressed_bits),
          "ratio");
    uint64_t bytes = 0;
    for (const auto& f : served->files) bytes += FileBytes(f);
    m.Set("disk_bytes_per_point",
          static_cast<double>(bytes) / static_cast<double>(points), "B");
    m.Set("peak_rss_mb", peak_rss_mb, "MiB");
    m.Set("success_rate",
          SafeDiv(static_cast<double>(r.attempted - r.failed),
                  static_cast<double>(r.attempted)),
          "ratio");
    return r;
  }

  // Traced run: the window above was the untraced reference; repeat it
  // traced, with registry deltas around it, then probe each layer.
  const auto reg_before = served->registry.Snapshot();
  const auto glob_before = utcq::obs::MetricRegistry::Global().Snapshot();
  const LoadStats traced =
      RunClosedLoop(port, spec.connections, opts.seconds, source, tr);
  const RegistryDelta reg(reg_before, served->registry.Snapshot());
  const RegistryDelta glob(glob_before,
                           utcq::obs::MetricRegistry::Global().Snapshot());
  r.attempted += traced.attempted;
  r.failed += traced.failed;
  if (!Gate(spec, *served, *w, params, pool, &r)) return r;
  MetricSet& m = r.metrics;
  AddWindowLayerMetrics(reg, glob, traced, &m);
  m.Set("loadgen.lag_ms.max", traced.max_gap_ms, "ms");
  ProbeWire(port, *served->engine,
            std::vector<QueryRequest>(pool.begin(), pool.begin() + 500), tr,
            &m);

  std::vector<QueryRequest> engine_sample;
  std::vector<QueryRequest> whens;
  std::vector<QueryRequest> ranges;
  for (int i = 0; i < 300; ++i) {
    const uint32_t id = zipf.Sample(rng);
    engine_sample.push_back(MakeWhere(w->corpus[id], id, rng));
    engine_sample.push_back(MakeWhen(w->corpus[id], id, rng));
    whens.push_back(engine_sample.back());
  }
  for (int i = 0; i < 200; ++i) {
    engine_sample.push_back(MakeRange(bbox, t_lo, t_hi, rng));
    if (i < 64) ranges.push_back(engine_sample.back());
  }
  ProbeEngine(*served->engine, engine_sample, tr, &m);
  LoadedIndices indices;
  const std::vector<Part> parts = PartsOf(*served, w->net, &indices);
  ProbeCore(parts, ranges, whens, tr, &m);
  std::vector<std::vector<uint32_t>> members;
  for (const Part& part : parts) members.push_back(part.members);
  ProbeCompress(w->net, grid, w->corpus, members, params, tr, &m);
  AddArchiveLayerMetrics(tracer, &m);
  uint64_t stiu = 0;
  uint64_t total = 0;
  for (const auto& f : served->files) {
    const auto [s, b] = ArchiveSplit(f);
    stiu += s;
    total += b;
  }
  m.Set("archive.stiu_bytes_share",
        SafeDiv(static_cast<double>(stiu), static_cast<double>(total)),
        "ratio");
  ProbeIngestIdle(w->net, profile, opts.seed, opts.work_dir + "/ingest-probe",
                  tr, &m);
  FinishTrace(tracer, load.qps(), traced.qps(), opts, &m);
  return r;
}

}  // namespace

Result RunPointHot(const Options& opts) { return RunBatch(kPointHot, opts); }

Result RunRangeScan(const Options& opts) { return RunBatch(kRangeScan, opts); }

}  // namespace perfbench
