#include "shard/sharded.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace utcq::shard {

namespace {

/// Splits a manifest path into (directory prefix incl. trailing '/',
/// basename). Save records shard filenames relative to the directory and
/// Open resolves them against it — both sides must split identically.
std::pair<std::string, std::string> SplitDirBase(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return {"", path};
  return {path.substr(0, slash + 1), path.substr(slash + 1)};
}

void Accumulate(core::QueryStats* into, const core::QueryStats& from) {
  into->candidates += from.candidates;
  into->pruned_lemma1 += from.pruned_lemma1;
  into->pruned_lemma2 += from.pruned_lemma2;
  into->pruned_lemma4 += from.pruned_lemma4;
  into->accepted_lemma3 += from.accepted_lemma3;
  into->instances_decoded += from.instances_decoded;
  into->stream_bits_read += from.stream_bits_read;
  into->sync_seeks += from.sync_seeks;
  into->tuples_scanned += from.tuples_scanned;
}

}  // namespace

std::string ShardArchivePath(const std::string& manifest_path,
                             uint32_t shard) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".shard-%03u", shard);
  return manifest_path + suffix;
}

ShardPlan MakeShardPlan(const traj::UncertainCorpus& corpus,
                        const ShardOptions& opts) {
  ShardPlan plan;
  plan.policy = opts.policy;
  const uint32_t n = std::max<uint32_t>(1, opts.num_shards);
  const int64_t window = std::max<int64_t>(1, opts.time_window_s);
  plan.time_window_s = opts.policy == ShardPolicy::kTimePartition ? window : 0;
  plan.members.resize(n);
  for (uint32_t j = 0; j < corpus.size(); ++j) {
    uint32_t s = 0;
    switch (opts.policy) {
      case ShardPolicy::kAppendLog:
        // Not a planner policy — append-log sets are written generation by
        // generation by ingest::Flusher. A stray request gets the default
        // hash layout rather than a crash or a skewed single shard.
        [[fallthrough]];
      case ShardPolicy::kHash:
        // Sequential trajectory ids must not all land in the same few
        // shards, so the id is mixed before the modulo.
        s = static_cast<uint32_t>(common::SplitMix64(corpus[j].id) % n);
        break;
      case ShardPolicy::kTimePartition: {
        const traj::Timestamp t0 =
            corpus[j].times.empty() ? 0 : corpus[j].times.front();
        // Timestamps can be negative (day-relative clock); keep the modulo
        // in [0, n) rather than indexing members with a wrapped negative.
        int64_t m = (t0 / window) % static_cast<int64_t>(n);
        if (m < 0) m += n;
        s = static_cast<uint32_t>(m);
        break;
      }
    }
    plan.members[s].push_back(j);  // j ascending => members ascending
  }
  return plan;
}

uint64_t ShardedBuild::total_bits() const {
  uint64_t total = 0;
  for (const auto& s : shards) total += s->corpus.total_bits();
  return total;
}

traj::ComponentSizes ShardedBuild::compressed_bits() const {
  traj::ComponentSizes total;
  for (const auto& s : shards) total += s->corpus.compressed_bits();
  return total;
}

bool ShardedBuild::Save(const std::string& manifest_path,
                        std::string* error) const {
  const auto [dir, base] = SplitDirBase(manifest_path);

  archive::ShardManifest manifest;
  manifest.policy = static_cast<uint8_t>(plan.policy);
  manifest.time_partition_s = plan.time_window_s;
  manifest.shards.resize(shards.size());
  for (uint32_t s = 0; s < shards.size(); ++s) {
    manifest.shards[s].file = ShardArchivePath(base, s);
    manifest.shards[s].members = plan.members[s];
    const archive::ArchiveWriter writer(shards[s]->corpus,
                                        shards[s]->index.get());
    if (!writer.Save(dir + manifest.shards[s].file, error)) return false;
  }
  // The manifest is written last: it is the publication point of the set,
  // and it must never name a shard file that is not fully on disk.
  return archive::SaveBytesAtomic(archive::EncodeShardManifest(manifest),
                                  manifest_path, error);
}

ShardedCompressor::ShardedCompressor(const network::RoadNetwork& net,
                                     const network::GridIndex& grid,
                                     core::UtcqParams params,
                                     core::StiuParams index_params,
                                     ShardOptions opts)
    : net_(net),
      grid_(grid),
      params_(params),
      index_params_(index_params),
      opts_(opts) {
  index_params_.cells_per_side = grid.cells_per_side();
}

std::unique_ptr<CompressedShard> ShardedCompressor::CompressOneShard(
    const traj::UncertainCorpus& sub) const {
  auto shard = std::make_unique<CompressedShard>();
  const core::UtcqCompressor compressor(net_, params_);
  std::vector<std::vector<core::NrefFactorLayout>> layouts;
  shard->corpus = compressor.Compress(sub, &layouts);
  shard->index = std::make_unique<core::StiuIndex>(
      net_, grid_, sub, shard->corpus, layouts, index_params_);
  return shard;
}

ShardedBuild ShardedCompressor::Compress(
    const traj::UncertainCorpus& corpus) const {
  ShardedBuild build;
  build.plan = MakeShardPlan(corpus, opts_);
  const uint32_t n = build.plan.num_shards();
  build.shards.resize(n);
  // Every shard is an independent single-threaded compression over shared
  // immutable inputs (network, grid, params); the only cross-thread writes
  // are to each worker's own build.shards slot. The shard's trajectories
  // are copied worker-locally just in time, bounding the extra working set
  // to the shards in flight rather than the whole corpus. ParallelFor runs
  // this on the persistent shared pool — the same workers that serve query
  // fan-out — so repeated builds pay no thread start-up.
  common::ParallelFor(n, opts_.num_threads, [&](size_t s) {
    traj::UncertainCorpus sub;
    sub.reserve(build.plan.members[s].size());
    for (const uint32_t j : build.plan.members[s]) sub.push_back(corpus[j]);
    build.shards[s] = CompressOneShard(sub);
  });
  return build;
}

ShardedBuild ShardedCompressor::Compress(traj::UncertainCorpus&& corpus) const {
  ShardedBuild build;
  build.plan = MakeShardPlan(corpus, opts_);
  const uint32_t n = build.plan.num_shards();
  // Moving each trajectory into its shard costs pointer swaps, not payload
  // copies: peak memory stays at one corpus for ingest pipelines that are
  // done with the raw data.
  std::vector<traj::UncertainCorpus> subs(n);
  for (uint32_t s = 0; s < n; ++s) {
    subs[s].reserve(build.plan.members[s].size());
    for (const uint32_t j : build.plan.members[s]) {
      subs[s].push_back(std::move(corpus[j]));
    }
  }
  corpus.clear();
  build.shards.resize(n);
  common::ParallelFor(n, opts_.num_threads, [&](size_t s) {
    build.shards[s] = CompressOneShard(subs[s]);
  });
  return build;
}

bool ShardedCorpus::Open(const network::RoadNetwork& net,
                         const std::string& manifest_path,
                         std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  std::vector<uint8_t> bytes;
  if (!archive::ReadFileBytes(manifest_path, &bytes, error)) return false;
  archive::ShardManifest manifest;
  if (!DecodeShardManifest(bytes.data(), bytes.size(), &manifest, error)) {
    return false;
  }
  if (manifest.shards.empty()) return fail("manifest names no shards");

  const std::string dir = SplitDirBase(manifest_path).first;

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(manifest.shards.size());
  uint32_t cells = 0;
  for (const archive::ShardManifest::Shard& entry : manifest.shards) {
    auto shard = std::make_unique<Shard>();
    if (!shard->reader.Open(dir + entry.file, error)) return false;
    if (!shard->reader.has_index()) {
      return fail("shard " + entry.file + " carries no StIU index");
    }
    if (shard->reader.payload().metas.size() != entry.members.size()) {
      return fail("shard " + entry.file +
                  " trajectory count disagrees with the manifest");
    }
    if (cells == 0) {
      cells = shard->reader.index_cells_per_side();
    } else if (shard->reader.index_cells_per_side() != cells) {
      return fail("shard " + entry.file +
                  " was indexed over a different grid resolution");
    }
    shards.push_back(std::move(shard));
  }

  auto grid = std::make_unique<network::GridIndex>(net, cells);
  for (size_t s = 0; s < shards.size(); ++s) {
    shards[s]->index = shards[s]->reader.LoadIndex(*grid, error);
    if (shards[s]->index == nullptr) return false;
    shards[s]->queries = std::make_unique<core::UtcqQueryProcessor>(
        net, shards[s]->reader.view(), *shards[s]->index);
  }

  // Routing table: every global index must be claimed exactly once across
  // the member lists, or point queries would mis-route or walk off a shard.
  const size_t total = manifest.num_trajectories();
  constexpr uint32_t kUnrouted = UINT32_MAX;
  std::vector<std::pair<uint32_t, uint32_t>> route(total, {kUnrouted, 0});
  for (uint32_t s = 0; s < manifest.shards.size(); ++s) {
    const auto& members = manifest.shards[s].members;
    for (uint32_t local = 0; local < members.size(); ++local) {
      const uint32_t global = members[local];
      if (global >= total || route[global].first != kUnrouted) {
        return fail("manifest member lists do not partition the corpus");
      }
      route[global] = {s, local};
    }
  }

  net_ = &net;
  grid_ = std::move(grid);
  manifest_ = std::move(manifest);
  shards_ = std::move(shards);
  route_ = std::move(route);
  return true;
}

std::vector<traj::WhereHit> ShardedCorpus::Where(
    size_t traj_idx, traj::Timestamp t, double alpha,
    core::QueryStats* stats) const {
  // Untrusted / out-of-range ids (and the unopened corpus, whose routing
  // table is empty) answer empty instead of walking off the table.
  if (traj_idx >= route_.size()) return {};
  const auto [s, local] = route_[traj_idx];
  return shards_[s]->queries->Where(local, t, alpha, stats);
}

std::vector<traj::WhenHit> ShardedCorpus::When(size_t traj_idx,
                                               network::EdgeId edge, double rd,
                                               double alpha,
                                               core::QueryStats* stats) const {
  if (traj_idx >= route_.size()) return {};
  const auto [s, local] = route_[traj_idx];
  return shards_[s]->queries->When(local, edge, rd, alpha, stats);
}

traj::RangeResult ShardedCorpus::Range(const network::Rect& region,
                                       traj::Timestamp tq, double alpha,
                                       core::QueryStats* stats,
                                       unsigned num_threads,
                                       const ShardDecodedProvider& provider) const {
  std::vector<traj::RangeResult> partial(shards_.size());
  std::vector<core::QueryStats> shard_stats(shards_.size());
  common::ParallelFor(shards_.size(), num_threads, [&](size_t s) {
    core::QueryStats* sstats = stats != nullptr ? &shard_stats[s] : nullptr;
    const traj::DecodedProvider local_provider = [&](uint32_t local) {
      return provider ? provider(static_cast<uint32_t>(s), local) : nullptr;
    };
    partial[s] =
        shards_[s]->queries->Range(region, tq, alpha, local_provider, sstats);
  });

  traj::RangeResult merged;
  for (size_t s = 0; s < partial.size(); ++s) {
    for (const uint32_t local : partial[s]) {
      merged.push_back(manifest_.shards[s].members[local]);
    }
    if (stats != nullptr) Accumulate(stats, shard_stats[s]);
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

}  // namespace utcq::shard
