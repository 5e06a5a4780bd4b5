#include <algorithm>

#include "archive/archive.h"
#include "bench.h"
#include "core/encoder.h"
#include "net/client.h"

namespace perfbench {

using utcq::serve::QueryRequest;

utcq::core::UtcqParams CompressionParams(const utcq::traj::DatasetProfile& p) {
  utcq::core::UtcqParams params;
  params.default_interval_s = p.default_interval_s;
  params.eta_p = p.eta_p;
  return params;
}

QueryRequest MakeWhere(const utcq::traj::UncertainTrajectory& tu, uint32_t id,
                       utcq::common::Rng& rng) {
  const auto t = rng.UniformInt(tu.times.front(), tu.times.back());
  return QueryRequest::MakeWhere(id, t, rng.Uniform(0.1, 0.6));
}

QueryRequest MakeWhen(const utcq::traj::UncertainTrajectory& tu, uint32_t id,
                      utcq::common::Rng& rng) {
  const auto& path = tu.instances.front().path;
  const auto edge = path[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(path.size()) - 1))];
  const double rd = rng.Uniform(0.0, 1.0);
  return QueryRequest::MakeWhen(id, edge, rd, rng.Uniform(0.1, 0.6));
}

QueryRequest MakeRange(const utcq::network::Rect& bbox,
                       utcq::traj::Timestamp t_lo, utcq::traj::Timestamp t_hi,
                       utcq::common::Rng& rng) {
  const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
  const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
  const double half = rng.Uniform(200.0, 900.0);
  const auto tq = rng.UniformInt(t_lo, t_hi);
  return QueryRequest::MakeRange({cx - half, cy - half, cx + half, cy + half},
                                 tq, rng.Uniform(0.1, 0.6));
}

size_t MappedPoints(const utcq::traj::UncertainCorpus& corpus) {
  size_t n = 0;
  for (const auto& tu : corpus) n += tu.times.size();
  return n;
}

double CompressionRatio(const utcq::network::RoadNetwork& net,
                        const utcq::traj::UncertainCorpus& corpus,
                        const utcq::traj::ComponentSizes& compressed) {
  const auto raw = utcq::traj::MeasureRawSize(net, corpus).total();
  return SafeDiv(static_cast<double>(raw),
                 static_cast<double>(compressed.total()));
}

std::pair<uint64_t, uint64_t> ArchiveSplit(const std::string& path) {
  utcq::archive::ArchiveReader reader;
  if (!reader.Open(path)) return {0, FileBytes(path)};
  return {reader.payload().stiu.size(), FileBytes(path)};
}

std::unique_ptr<utcq::net::TcpServer> StartServer(
    utcq::serve::QueryEngine* engine, utcq::obs::MetricRegistry* registry,
    const QueryRequest& first, Tracer* tracer, std::string* error) {
  std::unique_ptr<utcq::net::TcpServer> server;
  {
    ScopedSpan span(tracer, "server.start");
    utcq::net::ServerOptions opts;
    opts.registry = registry;
    server = std::make_unique<utcq::net::TcpServer>(engine, nullptr, opts);
    if (!server->Start()) {
      *error = "server failed to start";
      return nullptr;
    }
  }
  ScopedSpan span(tracer, "setup.first_query");
  utcq::net::Client client;
  utcq::serve::QueryResult result;
  if (!client.Connect("127.0.0.1", server->port()) ||
      !client.Query(first, &result).ok) {
    *error = "first query failed: " + client.last_status().message;
    return nullptr;
  }
  return server;
}

EncodeStats EncodePass(const utcq::network::RoadNetwork& net,
                       const utcq::traj::UncertainCorpus& corpus,
                       const utcq::core::UtcqParams& params) {
  const utcq::core::UtcqCompressor compressor(net, params);
  utcq::core::CompressedCorpus cc = compressor.Begin();
  std::vector<double> us;
  us.reserve(corpus.size());
  const int64_t start = NowNs();
  for (const auto& tu : corpus) {
    const int64_t t0 = NowNs();
    compressor.AppendTrajectory(tu, &cc);
    us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  return {static_cast<double>(MappedPoints(corpus)) / seconds,
          Percentile(us, 0.50), Percentile(us, 0.99)};
}

}  // namespace perfbench
