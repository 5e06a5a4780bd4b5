#include "serve/query_engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace utcq::serve {

namespace {

/// Borrows a single corpus's processor as a live tail: the engine serves
/// it as a snapshot with no sealed part. The caller keeps `qp` alive.
class BorrowedTail final : public LiveTail {
 public:
  explicit BorrowedTail(const core::UtcqQueryProcessor& qp) : qp_(qp) {}
  const core::UtcqQueryProcessor& queries() const override { return qp_; }
  uint32_t count() const override {
    return static_cast<uint32_t>(qp_.decoder().view().num_trajectories());
  }

 private:
  const core::UtcqQueryProcessor& qp_;
};

/// Independent LRU lists in the DecodedTrajCache, each behind its own
/// mutex, so concurrent pins of distinct trajectories rarely contend.
constexpr uint32_t kCacheShards = 8;

obs::MetricRegistry* ResolveRegistry(
    obs::MetricRegistry* requested,
    std::unique_ptr<obs::MetricRegistry>& owned) {
  if (requested != nullptr) return requested;
  owned = std::make_unique<obs::MetricRegistry>();
  return owned.get();
}

}  // namespace

QueryRequest QueryRequest::MakeWhere(uint32_t traj, traj::Timestamp t,
                                     double alpha) {
  QueryRequest req;
  req.kind = QueryKind::kWhere;
  req.traj = traj;
  req.t = t;
  req.alpha = alpha;
  return req;
}

QueryRequest QueryRequest::MakeWhen(uint32_t traj, network::EdgeId edge,
                                    double rd, double alpha) {
  QueryRequest req;
  req.kind = QueryKind::kWhen;
  req.traj = traj;
  req.edge = edge;
  req.rd = rd;
  req.alpha = alpha;
  return req;
}

QueryRequest QueryRequest::MakeRange(const network::Rect& region,
                                     traj::Timestamp tq, double alpha) {
  QueryRequest req;
  req.kind = QueryKind::kRange;
  req.region = region;
  req.t = tq;
  req.alpha = alpha;
  return req;
}

#define UTCQ_ENGINE_INIT(opts)                                            \
  opts_(opts), clock_(opts.clock != nullptr ? opts.clock                  \
                                            : &obs::Clock::Real()),       \
      cache_(opts.cache_budget_bytes, kCacheShards,                       \
             ResolveRegistry(opts.registry, owned_registry_))

QueryEngine::QueryEngine(const core::UtcqQueryProcessor& queries,
                         EngineOptions opts)
    : fixed_(std::make_shared<const TierSnapshot>(
          TierSnapshot{nullptr, std::make_shared<BorrowedTail>(queries)})),
      UTCQ_ENGINE_INIT(opts) {
  InitInstruments();
}

// The sealed part aliases `corpus` without owning it: the caller keeps the
// set alive, as the constructor contract requires.
QueryEngine::QueryEngine(const shard::ShardedCorpus& corpus,
                         EngineOptions opts)
    : fixed_(std::make_shared<const TierSnapshot>(TierSnapshot{
          std::shared_ptr<const shard::ShardedCorpus>(
              std::shared_ptr<const void>(), &corpus),
          nullptr})),
      UTCQ_ENGINE_INIT(opts) {
  InitInstruments();
}

QueryEngine::QueryEngine(const TierSource& tier, EngineOptions opts)
    : tier_(&tier), UTCQ_ENGINE_INIT(opts) {
  InitInstruments();
}

#undef UTCQ_ENGINE_INIT

void QueryEngine::InitInstruments() {
  obs::MetricRegistry& reg =
      opts_.registry != nullptr ? *opts_.registry : *owned_registry_;
  queries_ = &reg.GetCounter("serve.engine.queries");
  batches_ = &reg.GetCounter("serve.engine.batches");
  partial_queries_ = &reg.GetCounter("serve.engine.partial_queries");
  decode_bytes_partial_ = &reg.GetCounter("serve.engine.decode_bytes_partial");
  sync_seeks_ = &reg.GetCounter("serve.engine.sync_seeks");
  latency_where_ = &reg.GetHistogram("serve.engine.latency_ns.where");
  latency_when_ = &reg.GetHistogram("serve.engine.latency_ns.when");
  latency_range_ = &reg.GetHistogram("serve.engine.latency_ns.range");
  decode_bytes_ = &reg.GetHistogram("serve.engine.decode_bytes");
  batch_size_ = &reg.GetHistogram("serve.engine.batch_size");
}

std::shared_ptr<const TierSnapshot> QueryEngine::Acquire() const {
  return tier_ != nullptr ? tier_->Acquire() : fixed_;
}

size_t QueryEngine::num_trajectories() const {
  return Acquire()->num_trajectories();
}

QueryEngine::Target QueryEngine::Resolve(uint32_t global,
                                         const TierSnapshot& snap) {
  const size_t sealed_n = snap.sealed_count();
  if (global < sealed_n) {
    const auto [s, local] = snap.sealed->Route(global);
    return {&snap.sealed->shard_queries(s), local, global};
  }
  return {&snap.live->queries(), global - static_cast<uint32_t>(sealed_n),
          global};
}

std::shared_ptr<const traj::DecodedTraj> QueryEngine::Pin(
    const Target& target, PinAgg& agg) {
  const core::UtcqQueryProcessor* qp = target.qp;
  const uint32_t local = target.local;
  DecodedTrajCache::PinOutcome outcome;
  auto dt = cache_.GetOrDecode(
      target.global,
      [qp, local] { return qp->decoder().DecodeTraj(local); }, &outcome);
  if (!outcome.hit) {
    common::MutexLock lock(agg.mu);
    agg.decode_bytes += outcome.decoded_bytes;
    agg.misses += 1;
  }
  return dt;
}

void QueryEngine::RecordPartial(const core::QueryStats& qs, PinAgg& agg) {
  const uint64_t bytes = (qs.stream_bits_read + 7) / 8;
  partial_queries_->Increment();
  decode_bytes_partial_->Add(bytes);
  sync_seeks_->Add(qs.sync_seeks);
  if (bytes > 0) {
    common::MutexLock lock(agg.mu);
    agg.decode_bytes += bytes;
  }
}

void QueryEngine::FinishQuery(const QueryRequest& req, uint64_t start_ns,
                              PinAgg& agg) {
  const uint64_t now_ns = clock_->NowNanos();
  const uint64_t latency_ns = now_ns > start_ns ? now_ns - start_ns : 0;
  LatencyFor(req.kind).Record(latency_ns);
  uint64_t decode_bytes = 0;
  uint64_t misses = 0;
  {
    common::MutexLock lock(agg.mu);
    decode_bytes = agg.decode_bytes;
    misses = agg.misses;
  }
  decode_bytes_->Record(decode_bytes);

  const uint64_t threshold_ns = opts_.slow_query_threshold_us * 1000;
  if (threshold_ns == 0 || latency_ns < threshold_ns ||
      opts_.slow_query_log_size == 0) {
    return;
  }
  SlowQuery entry;
  entry.kind = req.kind;
  entry.traj = req.kind == QueryKind::kRange ? UINT32_MAX : req.traj;
  entry.latency_us = static_cast<double>(latency_ns) / 1000.0;
  entry.decode_bytes = decode_bytes;
  entry.cache_hit = misses == 0;
  common::MutexLock lock(slow_mu_);
  if (slow_.size() < opts_.slow_query_log_size) {
    slow_.push_back(entry);
    return;
  }
  // Full: keep the N worst by displacing the fastest retained entry.
  auto fastest = std::min_element(
      slow_.begin(), slow_.end(), [](const SlowQuery& a, const SlowQuery& b) {
        return a.latency_us < b.latency_us;
      });
  if (fastest->latency_us < entry.latency_us) *fastest = entry;
}

std::vector<SlowQuery> QueryEngine::slow_queries() const {
  std::vector<SlowQuery> out;
  {
    common::MutexLock lock(slow_mu_);
    out = slow_;
  }
  std::sort(out.begin(), out.end(),
            [](const SlowQuery& a, const SlowQuery& b) {
              return a.latency_us > b.latency_us;
            });
  return out;
}

std::vector<traj::WhereHit> QueryEngine::Where(uint32_t traj_idx,
                                               traj::Timestamp t,
                                               double alpha) {
  return Execute(QueryRequest::MakeWhere(traj_idx, t, alpha)).where;
}

std::vector<traj::WhenHit> QueryEngine::When(uint32_t traj_idx,
                                             network::EdgeId edge, double rd,
                                             double alpha) {
  return Execute(QueryRequest::MakeWhen(traj_idx, edge, rd, alpha)).when;
}

traj::RangeResult QueryEngine::Range(const network::Rect& region,
                                     traj::Timestamp tq, double alpha) {
  return Execute(QueryRequest::MakeRange(region, tq, alpha)).range;
}

QueryResult QueryEngine::Execute(const QueryRequest& req) {
  const std::shared_ptr<const TierSnapshot> snap = Acquire();
  const uint64_t start_ns = clock_->NowNanos();
  PinAgg agg;
  QueryResult result;
  result.kind = req.kind;
  if (req.kind == QueryKind::kRange) {
    result.range = RangeInternal(req.region, req.t, req.alpha,
                                 opts_.num_threads, *snap, agg);
  } else if (req.traj < snap->num_trajectories()) {
    // A server-shaped API sees untrusted trajectory ids: out-of-range point
    // queries answer empty instead of indexing past the routing table.
    std::shared_ptr<const traj::DecodedTraj> dt;
    AnswerPoint(req, Resolve(req.traj, *snap), dt, agg, result);
  }
  queries_->Increment();
  FinishQuery(req, start_ns, agg);
  return result;
}

void QueryEngine::AnswerPoint(const QueryRequest& req, const Target& target,
                              std::shared_ptr<const traj::DecodedTraj>& dt,
                              PinAgg& agg, QueryResult& out) {
  // The core consults the provider only past its own meta/index
  // rejections, so a rejected request never pays a decode. An empty one
  // (budget 0) makes it answer from the bitstreams instead.
  traj::DecodedProvider provider;
  if (opts_.cache_budget_bytes > 0) {
    provider = [this, &target, &dt, &agg](uint32_t) {
      if (dt == nullptr) dt = Pin(target, agg);
      return dt;
    };
  }
  const core::UtcqQueryProcessor& qp = *target.qp;
  core::QueryStats qs;
  if (req.kind == QueryKind::kWhere) {
    out.where = qp.Where(target.local, req.t, req.alpha, provider, &qs);
  } else {
    out.when =
        qp.When(target.local, req.edge, req.rd, req.alpha, provider, &qs);
  }
  if (!provider) RecordPartial(qs, agg);
}

traj::RangeResult QueryEngine::RangeInternal(const network::Rect& region,
                                             traj::Timestamp tq, double alpha,
                                             unsigned num_threads,
                                             const TierSnapshot& snap,
                                             PinAgg& agg) {
  // Budget 0 hands both parts an empty provider: surviving members then
  // decode inline from the bitstreams (BracketTime seeks through the sync
  // tables) and the cache is neither consulted nor populated.
  const bool partial = opts_.cache_budget_bytes == 0;
  core::QueryStats qs;
  core::QueryStats* stats = partial ? &qs : nullptr;
  // Sealed fan-out first, then the live tail; live hits are offset to
  // global ids, and since every live id exceeds every sealed id the
  // concatenation is already globally sorted.
  traj::RangeResult out;
  if (snap.sealed != nullptr) {
    const shard::ShardedCorpus& sealed = *snap.sealed;
    shard::ShardDecodedProvider provider;
    if (!partial) {
      provider = [this, &sealed, &agg](uint32_t s, uint32_t local) {
        return Pin({&sealed.shard_queries(s), local,
                    sealed.manifest().shards[s].members[local]},
                   agg);
      };
    }
    out = sealed.Range(region, tq, alpha, stats, num_threads, provider);
  }
  if (snap.live != nullptr) {
    const core::UtcqQueryProcessor& live = snap.live->queries();
    const uint32_t base = static_cast<uint32_t>(snap.sealed_count());
    traj::DecodedProvider provider;
    if (!partial) {
      provider = [this, &live, base, &agg](uint32_t local) {
        return Pin({&live, local, base + local}, agg);
      };
    }
    const traj::RangeResult hits =
        live.Range(region, tq, alpha, provider, stats);
    for (const uint32_t local : hits) out.push_back(base + local);
  }
  if (partial) RecordPartial(qs, agg);
  return out;
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> results(requests.size());

  // One snapshot for the whole batch: every request is answered against
  // the same live+sealed split even while ingestion seals and flushes.
  const std::shared_ptr<const TierSnapshot> snap = Acquire();

  // Group point queries by target trajectory so each trajectory's decode
  // (or cache fetch) happens once per batch regardless of how requests
  // interleave. Ranges are their own work units.
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> groups;
  std::unordered_map<uint32_t, size_t> group_of;
  std::vector<uint32_t> ranges;
  const size_t total = snap->num_trajectories();
  for (uint32_t i = 0; i < requests.size(); ++i) {
    results[i].kind = requests[i].kind;
    if (requests[i].kind == QueryKind::kRange) {
      ranges.push_back(i);
      continue;
    }
    if (requests[i].traj >= total) {
      // Untrusted id: answer empty, with the one latency sample Execute
      // records for the same request.
      PinAgg agg;
      FinishQuery(requests[i], clock_->NowNanos(), agg);
      continue;
    }
    const auto [it, inserted] =
        group_of.try_emplace(requests[i].traj, groups.size());
    if (inserted) groups.push_back({requests[i].traj, {}});
    groups[it->second].second.push_back(i);
  }

  // Ranges first: ParallelFor hands out indices in order, and the ranges
  // are the long units — starting them immediately lets the cheap groups
  // fill the remaining worker time instead of a late Range gating the
  // whole batch (longest-processing-time-first). A lone unit cannot
  // saturate the workers, so only then does the nested fan-out get them.
  const size_t units = groups.size() + ranges.size();
  const unsigned range_threads = units <= 1 ? opts_.num_threads : 1;
  common::ParallelFor(units, opts_.num_threads, [&](size_t u) {
    if (u < ranges.size()) {
      const QueryRequest& req = requests[ranges[u]];
      const uint64_t start_ns = clock_->NowNanos();
      PinAgg agg;
      results[ranges[u]].range = RangeInternal(
          req.region, req.t, req.alpha, range_threads, *snap, agg);
      FinishQuery(req, start_ns, agg);
      return;
    }
    const auto& [traj_idx, members] = groups[u - ranges.size()];
    const Target target = Resolve(traj_idx, *snap);
    // Pinned by the first request the core does not reject from meta or
    // index alone — the decode lands in that request's latency sample and
    // pin attribution, matching Execute()'s accounting, and a group of
    // all-rejected requests never decodes at all.
    std::shared_ptr<const traj::DecodedTraj> dt;
    for (const uint32_t i : members) {
      const uint64_t start_ns = clock_->NowNanos();
      PinAgg agg;
      AnswerPoint(requests[i], target, dt, agg, results[i]);
      FinishQuery(requests[i], start_ns, agg);
    }
  });

  queries_->Add(requests.size());
  batches_->Increment();
  batch_size_->Record(requests.size());
  return results;
}

EngineStats QueryEngine::stats() const {
  EngineStats out;
  out.queries = queries_->value();
  out.batches = batches_->value();
  const DecodedTrajCache::Stats cache = cache_.stats();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  out.bytes_decoded = cache.decoded_bytes;
  out.partial_queries = partial_queries_->value();
  out.decode_bytes_partial = decode_bytes_partial_->value();
  out.sync_seeks = sync_seeks_->value();
  out.cache_resident_bytes = cache.resident_bytes;
  out.cache_resident_entries = cache.resident_entries;

  obs::HistogramSnapshot merged = latency_where_->Snapshot();
  merged.MergeFrom(latency_when_->Snapshot());
  merged.MergeFrom(latency_range_->Snapshot());
  out.p50_latency_us = merged.p50() / 1000.0;
  out.p99_latency_us = merged.p99() / 1000.0;
  {
    common::MutexLock lock(slow_mu_);
    out.slow_queries = slow_.size();
  }
  return out;
}

}  // namespace utcq::serve
