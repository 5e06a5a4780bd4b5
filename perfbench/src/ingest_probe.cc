// The streaming ingest tier, probed idle: the traced run of every workload
// streams raw GPS fixes into a StreamingService of its own, with no query
// load, to time the layers the workloads' query traffic never reaches.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>

#include "bench.h"
#include "ingest/streaming_service.h"
#include "network/grid_index.h"
#include "traj/generator.h"

namespace perfbench {

namespace {

constexpr size_t kVehicles = 200;
constexpr size_t kFixes = 4000;
constexpr size_t kFlushEvery = 200;

/// One raw GPS fix; `trip_end` marks the last fix of a trip, after which
/// the vehicle's session is ended (it parks).
struct StreamEvent {
  uint64_t vehicle = 0;
  utcq::traj::RawPoint point;
  bool trip_end = false;
};

/// Raw streams of `vehicles` vehicles, each driving consecutive trips made
/// by UncertainTrajectoryGenerator::GenerateRaw, until `min_points` fixes
/// exist; merged into one sequence ordered by stream time.
std::vector<StreamEvent> MakeStreams(const utcq::network::RoadNetwork& net,
                                     const utcq::traj::DatasetProfile& profile,
                                     uint64_t seed, size_t vehicles,
                                     size_t min_points) {
  utcq::traj::UncertainTrajectoryGenerator gen(net, profile, seed);
  utcq::common::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<int64_t> clock(vehicles);
  for (auto& c : clock) c = rng.UniformInt(0, 1800);
  struct Keyed {
    int64_t t;
    uint64_t vehicle;
    uint64_t seq;
    StreamEvent event;
  };
  std::vector<Keyed> all;
  while (all.size() < min_points) {
    for (uint64_t v = 0; v < vehicles && all.size() < min_points; ++v) {
      const auto raw = gen.GenerateRaw().raw;
      for (size_t i = 0; i < raw.size(); ++i) {
        StreamEvent e{v, raw[i], i + 1 == raw.size()};
        e.point.t = raw[i].t - raw.front().t + clock[v];
        all.push_back({e.point.t, v, all.size(), e});
      }
      clock[v] = all.back().t + rng.UniformInt(60, 600);
    }
  }
  std::sort(all.begin(), all.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.t, a.vehicle, a.seq) < std::tie(b.t, b.vehicle, b.seq);
  });
  std::vector<StreamEvent> out;
  out.reserve(all.size());
  for (const Keyed& k : all) out.push_back(k.event);
  return out;
}

}  // namespace

void ProbeIngestIdle(const utcq::network::RoadNetwork& net,
                     utcq::traj::DatasetProfile profile, uint64_t seed,
                     const std::string& dir, Tracer* tracer, MetricSet* out) {
  // 10 m of GPS noise keeps every fix well inside the matcher's 60 m
  // candidate radius, so none is dropped for want of a road.
  profile.gps_noise_m = 10.0;
  const utcq::network::GridIndex grid(net, kStiuParams.cells_per_side);
  const std::vector<StreamEvent> events =
      MakeStreams(net, profile, seed, kVehicles, kFixes);
  utcq::obs::MetricRegistry registry;
  utcq::ingest::StreamingOptions sopts;
  sopts.registry = &registry;
  sopts.match.match.gps_sigma_m = 15.0;
  sopts.match.max_pending_steps = 32;
  sopts.params = CompressionParams(profile);
  sopts.index_params = kStiuParams;
  MakeDirs(dir);
  utcq::ingest::StreamingService svc(net, grid, dir + "/manifest.utcq", sopts);
  if (!svc.Open()) return;

  // A flusher thread polls every few milliseconds, times one Acquire per
  // poll and flushes every kFlushEvery seals; it flushes once more after
  // the last fix. Fixes are pushed back to back from this thread.
  std::vector<double> acquire_us;
  std::vector<double> flush_s;
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    uint64_t flushed_at = 0;
    for (;;) {
      const bool last = done.load();
      {
        ScopedSpan span(tracer, "tier.acquire");
        const int64_t t0 = NowNs();
        svc.Acquire();
        acquire_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      }
      const uint64_t sealed = svc.stats().trajectories_sealed;
      if (last || sealed - flushed_at >= kFlushEvery) {
        ScopedSpan span(tracer, "ingest.flush");
        const int64_t t0 = NowNs();
        if (svc.Flush()) {
          flush_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
        }
        flushed_at = sealed;
      }
      if (last) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::vector<double> push_us;
  uint64_t dropped = 0;
  for (const StreamEvent& e : events) {
    ScopedSpan span(tracer, "ingest.push");
    const int64_t t0 = NowNs();
    const auto status = svc.Push(e.vehicle, e.point);
    push_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    span.Close();
    if (status == utcq::matching::AppendStatus::kDroppedNotFinite ||
        status == utcq::matching::AppendStatus::kDroppedOutOfOrder ||
        status == utcq::matching::AppendStatus::kDroppedNoCandidates) {
      ++dropped;
    }
    if (e.trip_end) {
      ScopedSpan end_span(tracer, "ingest.end_session");
      svc.EndSession(e.vehicle);
    }
  }
  done.store(true);
  flusher.join();

  const RegistryDelta reg({}, registry.Snapshot());
  const auto seal = reg.Histogram("ingest.seal_latency_ns");
  out->Set("ingest.push_us.p50", Percentile(push_us, 0.50), "us");
  out->Set("ingest.push_us.p99", Percentile(push_us, 0.99), "us");
  out->Set("ingest.seal_us.p50", seal.p50() / 1000.0, "us");
  out->Set("ingest.seal_us.p99", seal.p99() / 1000.0, "us");
  out->Set("ingest.flush_s.p50", Median(flush_s), "s");
  out->Set("ingest.flush.retries",
           static_cast<double>(reg.Counter("ingest.flush.retries")), "count");
  out->Set("ingest.flush.failures",
           static_cast<double>(reg.Counter("ingest.flush.failures")), "count");
  out->Set("ingest.dropped_share",
           SafeDiv(static_cast<double>(dropped),
                   static_cast<double>(events.size())),
           "ratio");
  out->Set("tier.acquire_us.p50", Median(acquire_us), "us");
}

}  // namespace perfbench
