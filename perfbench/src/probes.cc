#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "core/encoder.h"
#include "net/client.h"
#include "network/grid_index.h"

namespace perfbench {

using utcq::serve::QueryKind;
using utcq::serve::QueryRequest;

std::vector<Part> ShardParts(const utcq::shard::ShardedCorpus& set,
                             const std::vector<std::string>& shard_files,
                             const utcq::network::RoadNetwork& net,
                             LoadedIndices* keep) {
  std::vector<Part> parts;
  for (uint32_t s = 0; s < set.num_shards() && s < shard_files.size(); ++s) {
    auto reader = std::make_unique<utcq::archive::ArchiveReader>();
    if (!reader->Open(shard_files[s])) return {};
    auto grid = std::make_unique<utcq::network::GridIndex>(
        net, reader->index_cells_per_side());
    auto index = reader->LoadIndex(*grid);
    if (index == nullptr) return {};
    parts.push_back({&set.shard_queries(s), index.get(),
                     set.manifest().shards[s].members});
    keep->readers.push_back(std::move(reader));
    keep->grids.push_back(std::move(grid));
    keep->indices.push_back(std::move(index));
  }
  return parts;
}

void AddWindowLayerMetrics(const RegistryDelta& server,
                           const RegistryDelta& global, const LoadStats& load,
                           MetricSet* out) {
  const double q = static_cast<double>(std::max<uint64_t>(load.ok, 1));
  const auto count = [&server](const char* name) {
    return static_cast<double>(server.Counter(name));
  };
  const auto handle = server.Histogram("net.handle_ns");
  out->Set("net.handle_us.p50", handle.p50() / 1000.0, "us");
  out->Set("net.handle_us.p99", handle.p99() / 1000.0, "us");
  out->Set("net.bytes_per_query",
           (count("net.bytes.in") + count("net.bytes.out")) / q, "B");
  const double hits = count("serve.cache.hits");
  out->Set("serve.cache.hit_rate",
           SafeDiv(hits, hits + count("serve.cache.misses")), "ratio");
  out->Set("serve.cache.evictions_per_query",
           count("serve.cache.evictions") / q, "count");
  out->Set("serve.decode_bytes_per_query",
           (count("serve.cache.decoded_bytes") +
            count("serve.engine.decode_bytes_partial")) / q,
           "B");
  out->Set("serve.partial_share",
           SafeDiv(count("serve.engine.partial_queries"),
                   count("serve.engine.queries")),
           "ratio");
  out->Set("pool.tasks_per_query",
           static_cast<double>(global.Counter("pool.tasks")) / q, "count");
  out->Set("pool.steals_per_query",
           static_cast<double>(global.Counter("pool.steals")) / q, "count");
}

void ProbeWire(uint16_t port, utcq::serve::QueryEngine& engine,
               const std::vector<QueryRequest>& sample, Tracer* tracer,
               MetricSet* out) {
  utcq::net::Client client;
  if (!client.Connect("127.0.0.1", port)) return;
  std::vector<double> wire_us;
  utcq::serve::QueryResult got;
  for (const QueryRequest& req : sample) {
    ScopedSpan pair_span(tracer, "wire.pair");
    ScopedSpan query_span(tracer, "client.query");
    const int64_t t0 = NowNs();
    if (!client.Query(req, &got).ok) break;
    const int64_t t1 = NowNs();
    query_span.Close();
    ScopedSpan engine_span(tracer, "engine.paired");
    engine.Execute(req);
    const int64_t t2 = NowNs();
    wire_us.push_back(static_cast<double>((t1 - t0) - (t2 - t1)) / 1000.0);
  }
  client.Close();
  out->Set("net.wire_us.p50", Median(wire_us), "us");
}

void ProbeCompress(const utcq::network::RoadNetwork& net,
                   const utcq::network::GridIndex& grid,
                   const utcq::traj::UncertainCorpus& corpus,
                   const std::vector<std::vector<uint32_t>>& parts,
                   const utcq::core::UtcqParams& params, Tracer* tracer,
                   MetricSet* out) {
  const utcq::core::UtcqCompressor compressor(net, params);
  double encode_s = 0.0;
  double stiu_s = 0.0;
  size_t points = 0;
  for (const auto& members : parts) {
    utcq::traj::UncertainCorpus sub;
    for (const uint32_t j : members) sub.push_back(corpus[j]);
    points += MappedPoints(sub);
    std::vector<std::vector<utcq::core::NrefFactorLayout>> layouts;
    utcq::core::CompressedCorpus cc;
    {
      ScopedSpan span(tracer, "compress.encode");
      const int64_t t0 = NowNs();
      cc = compressor.Compress(sub, &layouts);
      encode_s += static_cast<double>(NowNs() - t0) / 1e9;
    }
    ScopedSpan span(tracer, "compress.stiu_build");
    const int64_t t0 = NowNs();
    const utcq::core::StiuIndex index(net, grid, sub, cc, layouts, kStiuParams);
    stiu_s += static_cast<double>(NowNs() - t0) / 1e9;
  }
  out->Set("compress.encode_s", encode_s, "s");
  out->Set("compress.stiu_build_s", stiu_s, "s");
  out->Set("compress.points_per_s",
           SafeDiv(static_cast<double>(points), encode_s + stiu_s), "1/s");
}

void ProbeCore(const std::vector<Part>& parts,
               const std::vector<QueryRequest>& ranges,
               const std::vector<QueryRequest>& whens, Tracer* tracer,
               MetricSet* out) {
  // Every trajectory pre-decoded once: the DecodeTraj timings, and the
  // provider of the pre-decoded Range whose gap to the uncached call is
  // the decode share.
  std::vector<std::vector<std::shared_ptr<const utcq::traj::DecodedTraj>>>
      decoded(parts.size());
  std::vector<double> decode_us;
  double decode_bytes = 0.0;
  for (size_t p = 0; p < parts.size(); ++p) {
    const auto& decoder = parts[p].qp->decoder();
    const size_t n = decoder.view().num_trajectories();
    decoded[p].reserve(n);
    for (size_t j = 0; j < n; ++j) {
      ScopedSpan span(tracer, "decode.traj");
      const int64_t t0 = NowNs();
      auto dt = std::make_shared<const utcq::traj::DecodedTraj>(
          decoder.DecodeTraj(j));
      decode_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      decode_bytes += static_cast<double>(dt->ApproxBytes());
      decoded[p].push_back(std::move(dt));
    }
  }
  double decode_total_us = 0.0;
  for (const double us : decode_us) decode_total_us += us;
  std::fprintf(stderr,
               "perfbench: decoded working set %.1f MB in %zu trajectories\n",
               decode_bytes / 1e6, decode_us.size());

  std::vector<double> range_us;
  std::vector<double> predecoded_us;
  std::vector<double> spread;
  double tuples = 0.0;
  double hits = 0.0;
  utcq::core::QueryStats total;
  for (const QueryRequest& r : ranges) {
    std::vector<double> part_us;
    for (const Part& part : parts) {
      for (const auto re : part.index->grid().RegionsInRect(r.region)) {
        tuples += static_cast<double>(part.index->RefTuplesIn(re).size() +
                                      part.index->NrefTuplesIn(re).size());
      }
      utcq::core::QueryStats qs;
      ScopedSpan span(tracer, "core.range");
      const int64_t t0 = NowNs();
      hits += static_cast<double>(
          part.qp->Range(r.region, r.t, r.alpha, &qs).size());
      part_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      total.candidates += qs.candidates;
      total.pruned_lemma2 += qs.pruned_lemma2;
      total.pruned_lemma4 += qs.pruned_lemma4;
      total.accepted_lemma3 += qs.accepted_lemma3;
      total.stream_bits_read += qs.stream_bits_read;
    }
    double sum = 0.0;
    for (const double us : part_us) sum += us;
    range_us.push_back(sum);
    spread.push_back(SafeDiv(Max(part_us),
                             sum / static_cast<double>(part_us.size())));
    double pre = 0.0;
    for (size_t p = 0; p < parts.size(); ++p) {
      const auto& handles = decoded[p];
      const utcq::traj::DecodedProvider provider = [&handles](uint32_t j) {
        return handles[j];
      };
      ScopedSpan span(tracer, "core.range_predecoded");
      const int64_t t0 = NowNs();
      parts[p].qp->Range(r.region, r.t, r.alpha, provider);
      pre += static_cast<double>(NowNs() - t0) / 1000.0;
    }
    predecoded_us.push_back(pre);
  }
  const double nr = static_cast<double>(std::max<size_t>(ranges.size(), 1));
  const double cand = static_cast<double>(total.candidates);
  out->Set("shard.range_us.max_over_mean", Median(spread), "ratio");
  out->Set("stiu.tuples_scanned_per_range", tuples / nr, "count");
  out->Set("stiu.candidates_per_range", cand / nr, "count");
  out->Set("stiu.hits_per_tuple", SafeDiv(hits, tuples), "ratio");
  const double pruned =
      static_cast<double>(total.pruned_lemma2 + total.pruned_lemma4);
  out->Set("lemma.pruned_share", SafeDiv(pruned, cand), "ratio");
  out->Set("lemma.accepted_lemma3_share",
           SafeDiv(static_cast<double>(total.accepted_lemma3), cand), "ratio");
  out->Set("core.range_us.p50", Median(range_us), "us");
  out->Set("core.range_predecoded_us.p50", Median(predecoded_us), "us");

  // The When pre-check scans the all-time reference tuples of the edge's
  // regions until it meets the target trajectory.
  std::unordered_map<uint32_t, std::pair<size_t, uint32_t>> route;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (uint32_t local = 0; local < parts[p].members.size(); ++local) {
      route[parts[p].members[local]] = {p, local};
    }
  }
  double scanned = 0.0;
  for (const QueryRequest& w : whens) {
    const auto it = route.find(w.traj);
    if (it == route.end()) continue;
    const auto& index = *parts[it->second.first].index;
    const uint32_t local = it->second.second;
    bool found = false;
    for (const auto re : index.grid().RegionsOfEdge(w.edge)) {
      for (const auto& rt : index.RefTuplesIn(re)) {
        scanned += 1.0;
        if (rt.traj == local) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
  }
  out->Set("stiu.ref_tuples_per_when",
           scanned / static_cast<double>(std::max<size_t>(whens.size(), 1)),
           "count");

  out->Set("decode.traj_us.p50", Median(decode_us), "us");
  out->Set("decode.mb_per_s", SafeDiv(decode_bytes, decode_total_us), "MB/s");
  out->Set("decode.stream_bits_per_query",
           static_cast<double>(total.stream_bits_read) / nr, "bit");
}

void ProbeEngine(utcq::serve::QueryEngine& engine,
                 const std::vector<QueryRequest>& sample, Tracer* tracer,
                 MetricSet* out) {
  std::vector<double> us[3];
  for (const QueryRequest& req : sample) {
    static constexpr const char* kSpan[3] = {"engine.where", "engine.when",
                                             "engine.range"};
    const auto k = static_cast<size_t>(req.kind);
    ScopedSpan span(tracer, kSpan[k]);
    const int64_t t0 = NowNs();
    engine.Execute(req);
    us[k].push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  out->Set("serve.engine_us.where.p50",
           Median(us[static_cast<size_t>(QueryKind::kWhere)]), "us");
  out->Set("serve.engine_us.when.p50",
           Median(us[static_cast<size_t>(QueryKind::kWhen)]), "us");
  const auto& range = us[static_cast<size_t>(QueryKind::kRange)];
  out->Set("serve.engine_us.range.p50", Percentile(range, 0.50), "us");
  out->Set("serve.engine_us.range.p99", Percentile(range, 0.99), "us");
}

void AddArchiveLayerMetrics(const Tracer& tracer, MetricSet* out) {
  const auto self = tracer.SelfTimesUs();
  const auto seconds = [&self](const char* name) {
    double s = 0.0;
    if (const auto it = self.find(name); it != self.end()) {
      for (const double us : it->second) s += us / 1e6;
    }
    return s;
  };
  out->Set("archive.save_s", seconds("archive.save"), "s");
  out->Set("archive.open_s", seconds("archive.open"), "s");
}

void FinishTrace(const Tracer& tracer, double untraced_qps, double traced_qps,
                 const Options& opts, MetricSet* out) {
  out->Set("trace.overhead", SafeDiv(traced_qps, untraced_qps), "ratio");
  if (!opts.trace_summary.empty()) tracer.WriteSummary(opts.trace_summary);
}

}  // namespace perfbench
