#ifndef UTCQ_PERFBENCH_BENCH_H_
#define UTCQ_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "common/rng.h"
#include "core/corpus_meta.h"
#include "core/query.h"
#include "core/stiu_index.h"
#include "load.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "shard/sharded.h"
#include "support.h"
#include "trace.h"
#include "traj/profiles.h"
#include "traj/types.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run (archives, manifests); removed at exit.
  std::string work_dir;
  /// Traced runs write the per-span summary here.
  std::string trace_summary;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Samples behind the query and the encoder percentiles.
  uint64_t samples = 0;
  uint64_t encode_samples = 0;
  /// Why the run is not correct, or why it could not finish.
  std::string error;
};

Result RunPointHot(const Options& opts);
Result RunRangeScan(const Options& opts);

// ------------------------------------------------------------ shared setup

/// StIU parameters every workload compresses with.
inline constexpr utcq::core::StiuParams kStiuParams{32, 1800};

utcq::core::UtcqParams CompressionParams(const utcq::traj::DatasetProfile& p);

/// Request makers over one trajectory of the corpus; alpha is uniform in
/// [0.1, 0.6] and Range half-widths in [200, 900] m everywhere.
utcq::serve::QueryRequest MakeWhere(const utcq::traj::UncertainTrajectory& tu,
                                    uint32_t id, utcq::common::Rng& rng);
utcq::serve::QueryRequest MakeWhen(const utcq::traj::UncertainTrajectory& tu,
                                   uint32_t id, utcq::common::Rng& rng);
utcq::serve::QueryRequest MakeRange(const utcq::network::Rect& bbox,
                                    utcq::traj::Timestamp t_lo,
                                    utcq::traj::Timestamp t_hi,
                                    utcq::common::Rng& rng);

size_t MappedPoints(const utcq::traj::UncertainCorpus& corpus);
/// Raw bits / compressed bits: the paper's Table 8 total ratio.
double CompressionRatio(const utcq::network::RoadNetwork& net,
                        const utcq::traj::UncertainCorpus& corpus,
                        const utcq::traj::ComponentSizes& compressed);
/// (StIU section bytes, file bytes) of one archive file.
std::pair<uint64_t, uint64_t> ArchiveSplit(const std::string& path);

/// The last step of every set-up: starts a loopback TCP server over
/// `engine`, recording into `registry`, and returns once a client has
/// had `first` answered. nullptr (with a reason) on failure.
std::unique_ptr<utcq::net::TcpServer> StartServer(
    utcq::serve::QueryEngine* engine, utcq::obs::MetricRegistry* registry,
    const utcq::serve::QueryRequest& first, Tracer* tracer, std::string* error);

/// One pass of the write path's encoder over a corpus: every trajectory
/// through UtcqCompressor::AppendTrajectory, the step a streaming seal
/// runs too.
struct EncodeStats {
  double points_per_s = 0.0;  // mapped points over the pass's time
  double p50_us = 0.0;        // per-trajectory append latency
  double p99_us = 0.0;
};
EncodeStats EncodePass(const utcq::network::RoadNetwork& net,
                       const utcq::traj::UncertainCorpus& corpus,
                       const utcq::core::UtcqParams& params);

// ------------------------------------------------------------ layer probes

/// One independently indexed part of the served corpus: a single archive,
/// one shard of a set, or one flushed generation.
struct Part {
  const utcq::core::UtcqQueryProcessor* qp = nullptr;
  const utcq::core::StiuIndex* index = nullptr;
  /// Global id of each local trajectory index.
  std::vector<uint32_t> members;
};

/// Keeps alive the archives and grids behind reloaded StIU indices.
struct LoadedIndices {
  std::vector<std::unique_ptr<utcq::archive::ArchiveReader>> readers;
  std::vector<std::unique_ptr<utcq::network::GridIndex>> grids;
  std::vector<std::unique_ptr<utcq::core::StiuIndex>> indices;
};

/// Parts of an opened archive set: each shard's query processor, with its
/// StIU index reloaded from `shard_files[s]` through the public archive
/// reader (the set keeps its own private). Empty when a file fails to load.
std::vector<Part> ShardParts(const utcq::shard::ShardedCorpus& set,
                             const std::vector<std::string>& shard_files,
                             const utcq::network::RoadNetwork& net,
                             LoadedIndices* keep);

/// Layer metrics of one traced load window: the registries' deltas over
/// it, per completed query.
void AddWindowLayerMetrics(const RegistryDelta& server,
                           const RegistryDelta& global, const LoadStats& load,
                           MetricSet* out);

/// net.wire_us.p50: each sampled request's wire round trip minus the same
/// request run through QueryEngine::Execute in-process right after it,
/// with the cache as the wire call left it. Runs outside the load window.
void ProbeWire(uint16_t port, utcq::serve::QueryEngine& engine,
               const std::vector<utcq::serve::QueryRequest>& sample,
               Tracer* tracer, MetricSet* out);

/// compress.*: UtcqCompressor::Compress, then the StIU build, over each
/// part's members in turn (the whole corpus, or each shard's).
void ProbeCompress(const utcq::network::RoadNetwork& net,
                   const utcq::network::GridIndex& grid,
                   const utcq::traj::UncertainCorpus& corpus,
                   const std::vector<std::vector<uint32_t>>& parts,
                   const utcq::core::UtcqParams& params, Tracer* tracer,
                   MetricSet* out);

/// Core, StIU, Lemma, shard and decode probes: calls into each part's
/// public query, index and decoder API over sampled requests.
void ProbeCore(const std::vector<Part>& parts,
               const std::vector<utcq::serve::QueryRequest>& ranges,
               const std::vector<utcq::serve::QueryRequest>& whens,
               Tracer* tracer, MetricSet* out);

/// Engine probes: QueryEngine::Execute per kind.
void ProbeEngine(utcq::serve::QueryEngine& engine,
                 const std::vector<utcq::serve::QueryRequest>& sample,
                 Tracer* tracer, MetricSet* out);

/// archive.save_s and archive.open_s from the spans of one traced setup.
void AddArchiveLayerMetrics(const Tracer& tracer, MetricSet* out);

/// ingest.* and tier.* metrics from a streaming tier of the probe's own in
/// `dir`, fed 4,000 raw fixes of 200 vehicles back to back with no query
/// load: the workloads' own traffic never reaches that layer.
void ProbeIngestIdle(const utcq::network::RoadNetwork& net,
                     utcq::traj::DatasetProfile profile, uint64_t seed,
                     const std::string& dir, Tracer* tracer, MetricSet* out);

/// trace.overhead and the trace summary file.
void FinishTrace(const Tracer& tracer, double untraced_qps, double traced_qps,
                 const Options& opts, MetricSet* out);

}  // namespace perfbench

#endif  // UTCQ_PERFBENCH_BENCH_H_
