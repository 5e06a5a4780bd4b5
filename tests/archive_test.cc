#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::archive {
namespace {

/// A small compressed corpus + StIU index, the write side of every test.
struct ArchiveFixture {
  ArchiveFixture() {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 14);
    traj::UncertainTrajectoryGenerator gen(net, profile, 7070);
    corpus = gen.GenerateCorpus(50);
    grid = std::make_unique<network::GridIndex>(net, 16);
    core::UtcqParams params;
    params.default_interval_s = profile.default_interval_s;
    sys = std::make_unique<core::UtcqSystem>(net, *grid, corpus, params,
                                             core::StiuParams{16, 900});
  }

  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + "/" + name;
  }

  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
  std::unique_ptr<network::GridIndex> grid;
  std::unique_ptr<core::UtcqSystem> sys;
};

TEST(Archive, SaveLoadResaveIsBitExact) {
  ArchiveFixture fx;
  const ArchiveWriter writer(fx.sys->compressed(), &fx.sys->index());
  const std::vector<uint8_t> first = writer.Serialize();

  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(first, &error)) << error;

  // Re-encoding the loaded payload must reproduce the input byte for byte:
  // the container has exactly one serialization of any corpus.
  const std::vector<uint8_t> second = EncodeArchive(reader.payload());
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

TEST(Archive, FileRoundTripPreservesEveryStreamAndMeta) {
  ArchiveFixture fx;
  const std::string path = fx.TempPath("roundtrip.utcq");
  std::string error;
  ASSERT_TRUE(ArchiveWriter(fx.sys->compressed(), &fx.sys->index())
                  .Save(path, &error))
      << error;

  ArchiveReader reader;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  std::remove(path.c_str());

  const core::CompressedCorpus& cc = fx.sys->compressed();
  const ArchivePayload& payload = reader.payload();
  EXPECT_EQ(payload.entry_bits, cc.entry_bits());
  EXPECT_EQ(payload.params.default_interval_s, cc.params().default_interval_s);
  EXPECT_EQ(payload.t.size_bits, cc.t_stream().size_bits());
  EXPECT_EQ(payload.t.bytes, cc.t_stream().bytes());
  EXPECT_EQ(payload.ref.bytes, cc.ref_stream().bytes());
  EXPECT_EQ(payload.nref.bytes, cc.nref_stream().bytes());
  EXPECT_EQ(payload.structure.bytes, cc.structure_stream().bytes());
  ASSERT_EQ(payload.metas.size(), cc.num_trajectories());
  for (size_t j = 0; j < payload.metas.size(); ++j) {
    const core::TrajMeta& a = payload.metas[j];
    const core::TrajMeta& b = cc.meta(j);
    EXPECT_EQ(a.t_pos, b.t_pos);
    EXPECT_EQ(a.n_points, b.n_points);
    ASSERT_EQ(a.refs.size(), b.refs.size());
    ASSERT_EQ(a.nrefs.size(), b.nrefs.size());
    EXPECT_EQ(a.roles, b.roles);
    for (size_t r = 0; r < a.refs.size(); ++r) {
      EXPECT_EQ(a.refs[r].offset, b.refs[r].offset);
      EXPECT_EQ(a.refs[r].d_pos, b.refs[r].d_pos);
      EXPECT_EQ(a.refs[r].p_quantized, b.refs[r].p_quantized);
    }
  }
}

TEST(Archive, LoadedCorpusDecodesIdenticallyToLiveCorpus) {
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));

  const core::UtcqDecoder live(fx.net, fx.sys->compressed());
  const core::UtcqDecoder loaded(fx.net, reader.view());
  const auto live_corpus = live.DecompressAll();
  const auto loaded_corpus = loaded.DecompressAll();
  ASSERT_EQ(live_corpus.size(), loaded_corpus.size());
  for (size_t j = 0; j < live_corpus.size(); ++j) {
    EXPECT_EQ(live_corpus[j].times, loaded_corpus[j].times);
    ASSERT_EQ(live_corpus[j].instances.size(),
              loaded_corpus[j].instances.size());
    for (size_t w = 0; w < live_corpus[j].instances.size(); ++w) {
      EXPECT_EQ(live_corpus[j].instances[w].path,
                loaded_corpus[j].instances[w].path);
      EXPECT_EQ(live_corpus[j].instances[w].probability,
                loaded_corpus[j].instances[w].probability);
    }
  }
}

TEST(Archive, LoadedQueriesMatchLiveQueries) {
  ArchiveFixture fx;
  const std::string path = fx.TempPath("queries.utcq");
  ASSERT_TRUE(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Save(path));

  // A fresh process: only the network (shared, corpus-independent state)
  // and the file. The live system's memory is not consulted.
  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  std::remove(path.c_str());
  ASSERT_TRUE(reader.has_index());
  const network::GridIndex grid(fx.net, reader.index_cells_per_side());
  const auto index = reader.LoadIndex(grid, &error);
  ASSERT_NE(index, nullptr) << error;
  const core::UtcqQueryProcessor loaded(fx.net, reader.view(), *index);

  const core::UtcqQueryProcessor& live = fx.sys->queries();
  size_t where_hits = 0;
  size_t when_hits = 0;
  for (size_t j = 0; j < fx.corpus.size(); j += 5) {
    const auto& tu = fx.corpus[j];
    const auto t_mid = (tu.times.front() + tu.times.back()) / 2;
    for (const double alpha : {0.0, 0.2, 0.5}) {
      const auto a = live.Where(j, t_mid, alpha);
      const auto b = loaded.Where(j, t_mid, alpha);
      ASSERT_EQ(a.size(), b.size()) << "traj " << j << " alpha " << alpha;
      where_hits += a.size();
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].instance, b[k].instance);
        EXPECT_EQ(a[k].probability, b[k].probability);
        EXPECT_EQ(a[k].position.edge, b[k].position.edge);
        EXPECT_EQ(a[k].position.ndist, b[k].position.ndist);
      }
    }
    // when() against the first location of the first instance's path.
    const auto& inst = tu.instances.front();
    const auto edge = inst.path[inst.locations.front().path_index];
    const double rd = inst.locations.front().rd;
    const auto a = live.When(j, edge, rd, 0.1);
    const auto b = loaded.When(j, edge, rd, 0.1);
    ASSERT_EQ(a.size(), b.size()) << "traj " << j;
    when_hits += a.size();
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].instance, b[k].instance);
      EXPECT_EQ(a[k].t, b[k].t);
    }
  }
  EXPECT_GT(where_hits, 0u);
  EXPECT_GT(when_hits, 0u);

  // range() over a window around the first trajectory's start.
  const auto& inst0 = fx.corpus[0].instances.front();
  const auto& e0 = fx.net.edge(inst0.path.front());
  const auto& v0 = fx.net.vertex(e0.from);
  const network::Rect re{v0.x - 800, v0.y - 800, v0.x + 800, v0.y + 800};
  const auto tq = fx.corpus[0].times.front();
  for (const double alpha : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(live.Range(re, tq, alpha), loaded.Range(re, tq, alpha))
        << "alpha " << alpha;
  }
}

TEST(Archive, ReloadedStiuTuplesMatch) {
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  const network::GridIndex grid(fx.net, reader.index_cells_per_side());
  const auto index = reader.LoadIndex(grid);
  ASSERT_NE(index, nullptr);

  const core::StiuIndex& live = fx.sys->index();
  EXPECT_EQ(index->time_partition_s(), live.time_partition_s());
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& a = live.TemporalOf(j);
    const auto& b = index->TemporalOf(j);
    ASSERT_EQ(a.size(), b.size()) << "traj " << j;
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].t_start, b[k].t_start);
      EXPECT_EQ(a[k].t_no, b[k].t_no);
      EXPECT_EQ(a[k].t_pos, b[k].t_pos);
    }
  }
  for (network::RegionId re = 0; re < grid.num_regions(); ++re) {
    const auto& ra = live.RefTuplesIn(re);
    const auto& rb = index->RefTuplesIn(re);
    ASSERT_EQ(ra.size(), rb.size()) << "region " << re;
    for (size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].traj, rb[k].traj);
      EXPECT_EQ(ra[k].ref_idx, rb[k].ref_idx);
      EXPECT_EQ(ra[k].fv_id, rb[k].fv_id);
      EXPECT_EQ(ra[k].d_pos, rb[k].d_pos);
      EXPECT_EQ(ra[k].p_total, rb[k].p_total);
      EXPECT_EQ(ra[k].p_max, rb[k].p_max);
      EXPECT_EQ(ra[k].ref_passes, rb[k].ref_passes);
    }
    const auto& na = live.NrefTuplesIn(re);
    const auto& nb = index->NrefTuplesIn(re);
    ASSERT_EQ(na.size(), nb.size()) << "region " << re;
    for (size_t k = 0; k < na.size(); ++k) {
      EXPECT_EQ(na[k].traj, nb[k].traj);
      EXPECT_EQ(na[k].nref_idx, nb[k].nref_idx);
      EXPECT_EQ(na[k].ma_pos, nb[k].ma_pos);
    }
  }
}

TEST(Archive, ArchiveWithoutIndexStillDecodes) {
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed()).Serialize()));
  EXPECT_FALSE(reader.has_index());
  std::string error;
  EXPECT_EQ(reader.LoadIndex(*fx.grid, &error), nullptr);
  const core::UtcqDecoder decoder(fx.net, reader.view());
  EXPECT_EQ(decoder.DecodeTimes(0), fx.corpus[0].times);
}

TEST(Archive, RejectsTruncationBadMagicAndBitRot) {
  ArchiveFixture fx;
  const std::vector<uint8_t> good =
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize();
  ArchiveReader reader;
  std::string error;

  // Truncated: checksum of the shortened image cannot match.
  std::vector<uint8_t> truncated(good.begin(), good.end() - 10);
  EXPECT_FALSE(reader.OpenBytes(truncated, &error));
  EXPECT_FALSE(reader.is_open());

  // Empty / shorter than any header.
  EXPECT_FALSE(reader.OpenBytes({}, &error));
  EXPECT_FALSE(reader.OpenBytes({'U', 'T'}, &error));

  // Bad magic.
  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(reader.OpenBytes(bad_magic, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  // One flipped payload byte: caught by the checksum.
  std::vector<uint8_t> bit_rot = good;
  bit_rot[good.size() / 2] ^= 0x04;
  EXPECT_FALSE(reader.OpenBytes(bit_rot, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos);

  // Future format version (byte 8 is the version's little-endian low byte);
  // the footer is re-stamped so the version check, not the checksum, fires.
  std::vector<uint8_t> future = good;
  future[8] = 99;
  const uint32_t crc = common::Crc32(future.data(), future.size() - 4);
  for (int i = 0; i < 4; ++i) {
    future[future.size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  EXPECT_FALSE(reader.OpenBytes(future, &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  // A version-1 image still opens: v2 only appended the shard-manifest
  // tag; the payload shapes of tags 1-7 are unchanged (§6 append-only
  // rule), so pre-shard archives remain readable.
  std::vector<uint8_t> v1 = good;
  v1[8] = 1;
  const uint32_t v1_crc = common::Crc32(v1.data(), v1.size() - 4);
  for (int i = 0; i < 4; ++i) {
    v1[v1.size() - 4 + i] = static_cast<uint8_t>(v1_crc >> (8 * i));
  }
  EXPECT_TRUE(reader.OpenBytes(v1, &error)) << error;
  EXPECT_TRUE(reader.is_open());

  // The pristine image still opens after all those copies.
  EXPECT_TRUE(reader.OpenBytes(good, &error)) << error;
  EXPECT_TRUE(reader.is_open());
}

TEST(Archive, RejectsHostileStiuSections) {
  // CRC-valid archives whose StIU section lies about its shape must fail
  // LoadIndex cleanly instead of OOMing or leaving an index that queries
  // out of bounds.
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  ArchivePayload payload = reader.payload();
  std::string error;

  // Claims zero trajectories while the metas section has 50.
  {
    common::ByteWriter stiu;
    stiu.PutVarint(16);                      // cells_per_side
    stiu.PutSignedVarint(900);               // time_partition_s
    stiu.PutVarint(0);                       // num_trajs
    stiu.PutVarint(0);                       // num_partitions
    stiu.PutVarint(fx.grid->num_regions());  // num_regions
    for (uint32_t re = 0; re < 2 * fx.grid->num_regions(); ++re) {
      stiu.PutVarint(0);  // empty ref + nref tuple lists
    }
    payload.stiu = stiu.Release();
    ArchiveReader hostile;
    ASSERT_TRUE(hostile.OpenBytes(EncodeArchive(payload), &error)) << error;
    EXPECT_EQ(hostile.LoadIndex(*fx.grid, &error), nullptr);
    EXPECT_NE(error.find("trajectory count"), std::string::npos) << error;
  }

  // Claims an absurd trajectory count (would OOM a naive resize).
  {
    common::ByteWriter stiu;
    stiu.PutVarint(16);
    stiu.PutSignedVarint(900);
    stiu.PutVarint(uint64_t{1} << 60);  // num_trajs
    stiu.PutVarint(0);
    stiu.PutVarint(fx.grid->num_regions());
    payload.stiu = stiu.Release();
    ArchiveReader hostile;
    ASSERT_TRUE(hostile.OpenBytes(EncodeArchive(payload), &error)) << error;
    EXPECT_EQ(hostile.LoadIndex(*fx.grid, &error), nullptr);
  }
}

TEST(Archive, RejectsMetasWithDuplicateOrigIndex) {
  // Two metas claiming the same instance slot would leave another slot at
  // the default role and decode nrefs[0] out of bounds; the reader must
  // reject the section instead.
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  ArchivePayload payload = reader.payload();
  core::TrajMeta* victim = nullptr;
  for (auto& m : payload.metas) {
    if (!m.refs.empty() && !m.nrefs.empty()) {
      victim = &m;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  victim->nrefs[0].orig_index = victim->refs[0].orig_index;
  std::string error;
  ArchiveReader hostile;
  EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
  EXPECT_NE(error.find("metas"), std::string::npos) << error;
}

TEST(Archive, RejectsStiuTuplePointingOutsideMetas) {
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  ArchivePayload payload = reader.payload();

  // A structurally valid StIU section (right trajectory count, every
  // trajectory covered) whose one spatial tuple names a ref index that
  // does not exist in the metas.
  common::ByteWriter stiu;
  stiu.PutVarint(16);                      // cells_per_side
  stiu.PutSignedVarint(900);               // time_partition_s
  stiu.PutVarint(payload.metas.size());    // num_trajs
  stiu.PutVarint(0);                       // num_partitions
  stiu.PutVarint(fx.grid->num_regions());  // num_regions
  for (size_t j = 0; j < payload.metas.size(); ++j) {
    stiu.PutVarint(1);  // one temporal tuple
    stiu.PutVarint(0);  // t_start delta
    stiu.PutVarint(0);  // t_no
    stiu.PutVarint(0);  // t_pos
  }
  for (uint32_t re = 0; re < fx.grid->num_regions(); ++re) {
    if (re == 0) {
      stiu.PutVarint(1);  // one hostile ref tuple
      stiu.PutVarint(0);  // traj
      stiu.PutVarint(1u << 20);  // ref_idx: far outside metas[0].refs
      stiu.PutU32(0);            // fv_id
      stiu.PutVarint(0);         // fv_no
      stiu.PutVarint(0);         // d_no
      stiu.PutVarint(0);         // d_pos
      stiu.PutF32(0.5f);
      stiu.PutF32(0.5f);
      stiu.PutU8(1);
    } else {
      stiu.PutVarint(0);
    }
  }
  for (uint32_t re = 0; re < fx.grid->num_regions(); ++re) {
    stiu.PutVarint(0);  // no nref tuples
  }
  payload.stiu = stiu.Release();

  std::string error;
  ArchiveReader hostile;
  ASSERT_TRUE(hostile.OpenBytes(EncodeArchive(payload), &error)) << error;
  EXPECT_EQ(hostile.LoadIndex(*fx.grid, &error), nullptr);
  EXPECT_NE(error.find("outside the metas"), std::string::npos) << error;
}

TEST(Archive, RejectsStiuListsTheDerivedRunsCannotTrust) {
  // The loaded index derives per-region trajectory runs and partition
  // postings from its lists, so a region list out of trajectory order or a
  // partition list naming a trajectory that does not exist (or out of
  // order) must fail LoadIndex; the same section in writer order opens.
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  ArchivePayload payload = reader.payload();
  const uint32_t n = static_cast<uint32_t>(payload.metas.size());

  // Every trajectory gets one temporal tuple and sits in partition 0;
  // region 0 holds one ref tuple each of trajectories `region0[k]`.
  const auto section = [&](const std::vector<uint32_t>& region0,
                           const std::vector<uint32_t>& partition0) {
    common::ByteWriter stiu;
    stiu.PutVarint(16);                      // cells_per_side
    stiu.PutSignedVarint(900);               // time_partition_s
    stiu.PutVarint(n);                       // num_trajs
    stiu.PutVarint(1);                       // num_partitions
    stiu.PutVarint(fx.grid->num_regions());  // num_regions
    for (uint32_t j = 0; j < n; ++j) {
      stiu.PutVarint(1);  // one temporal tuple: t_start, t_no, t_pos
      stiu.PutVarint(0);
      stiu.PutVarint(0);
      stiu.PutVarint(0);
    }
    stiu.PutVarint(partition0.size());
    for (const uint32_t j : partition0) stiu.PutVarint(j);
    for (uint32_t re = 0; re < fx.grid->num_regions(); ++re) {
      stiu.PutVarint(re == 0 ? region0.size() : 0);
      if (re != 0) continue;
      for (const uint32_t j : region0) {
        stiu.PutVarint(j);  // traj
        stiu.PutVarint(0);  // ref_idx
        stiu.PutU32(0);     // fv_id
        stiu.PutVarint(0);  // fv_no
        stiu.PutVarint(0);  // d_no
        stiu.PutVarint(0);  // d_pos
        stiu.PutF32(0.5f);
        stiu.PutF32(0.5f);
        stiu.PutU8(1);
      }
    }
    for (uint32_t re = 0; re < fx.grid->num_regions(); ++re) {
      stiu.PutVarint(0);  // no nref tuples
    }
    payload.stiu = stiu.Release();
    ArchiveReader hostile;
    std::string error;
    EXPECT_TRUE(hostile.OpenBytes(EncodeArchive(payload), &error)) << error;
    return hostile.LoadIndex(*fx.grid, &error) != nullptr;
  };

  EXPECT_TRUE(section({0, 1, 1, 2}, {0, 1, 2}));
  EXPECT_FALSE(section({1, 0, 2}, {0, 1, 2}));      // region list unsorted
  EXPECT_FALSE(section({0, 1, 2}, {0, 1, n}));      // id past the count
  EXPECT_FALSE(section({0, 1, 2}, {0, 2, 1}));      // partition unsorted
  EXPECT_FALSE(section({0, 1, 2}, {0, 1, 1, 2}));   // partition repeats
  EXPECT_FALSE(section({0, n}, {0, 1, 2}));         // region id past count
}

TEST(Archive, OpenMissingFileFails) {
  ArchiveReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open("/nonexistent/dir/archive.utcq", &error));
  EXPECT_FALSE(reader.is_open());
}

/// Restamps the CRC-32 footer after a deliberate image mutation, so the
/// section being tested — not the checksum — is what rejects the input.
void RestampCrc(std::vector<uint8_t>* image) {
  const uint32_t crc = common::Crc32(image->data(), image->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*image)[image->size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

/// Splices a hand-built section into a serialized image: the section body
/// is appended ahead of the CRC footer, the section-count varint (a single
/// byte at offset 12 for these small archives) is bumped, and the footer
/// is restamped. This reaches tag-9 shapes EncodeArchive can never emit.
std::vector<uint8_t> WithExtraSection(std::vector<uint8_t> image, uint64_t tag,
                                      const common::ByteWriter& body) {
  common::ByteWriter section;
  section.PutVarint(tag);
  const std::vector<uint8_t> payload = body.bytes();
  section.PutBlob(payload.data(), payload.size());
  const std::vector<uint8_t>& sec = section.bytes();
  image.insert(image.end() - 4, sec.begin(), sec.end());
  EXPECT_LT(image[12], 0x7F);  // still a single-byte varint after the bump
  image[12] += 1;
  RestampCrc(&image);
  return image;
}

TEST(Archive, V3RoundTripPreservesSyncTables) {
  // The default UtcqParams emit sync points (t_sync_interval = 32), so the
  // fixture's archive is already stamped format v3.
  ArchiveFixture fx;
  EXPECT_EQ(ArchiveWriter(fx.sys->compressed(), &fx.sys->index())
                .Serialize()[8],
            3u);  // version little-endian low byte

  // A dense interval guarantees the fixture's short trajectories actually
  // carry sync points, so the table round-trip is exercised non-vacuously.
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 4;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  const std::vector<uint8_t> bytes =
      ArchiveWriter(sys2.compressed(), &sys2.index()).Serialize();
  EXPECT_EQ(bytes[8], 3u);

  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(bytes, &error)) << error;
  const ArchivePayload& payload = reader.payload();
  EXPECT_EQ(payload.format_version, kFormatVersion);
  EXPECT_EQ(payload.params.t_sync_interval, 4u);

  // The loaded tables must match the live corpus sync for sync.
  const core::CompressedCorpus& cc = sys2.compressed();
  size_t total_syncs = 0;
  ASSERT_EQ(payload.metas.size(), cc.num_trajectories());
  for (size_t j = 0; j < payload.metas.size(); ++j) {
    const auto& loaded = payload.metas[j].t_syncs;
    const auto& live = cc.meta(j).t_syncs;
    ASSERT_EQ(loaded.size(), live.size());
    for (size_t s = 0; s < loaded.size(); ++s) {
      EXPECT_EQ(loaded[s].entry, live[s].entry);
      EXPECT_EQ(loaded[s].t, live[s].t);
      EXPECT_EQ(loaded[s].bit, live[s].bit);
    }
    total_syncs += loaded.size();
  }
  EXPECT_GT(total_syncs, 0u);

  // Re-encoding the loaded payload reproduces the image byte for byte,
  // sync tables included.
  EXPECT_EQ(EncodeArchive(payload), bytes);
}

TEST(Archive, SyncFreeCorpusWritesV2ThatRoundTripsBitExact) {
  // With sync emission disabled the writer must stamp format v2 and emit
  // no kTSyncIndex section at all — pre-v3 readers stay compatible, and
  // the §6 single-serialization rule holds across the downgrade.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 0;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  const std::vector<uint8_t> bytes =
      ArchiveWriter(sys2.compressed(), &sys2.index()).Serialize();
  EXPECT_EQ(bytes[8], 2u);

  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(bytes, &error)) << error;
  EXPECT_EQ(reader.payload().format_version, 2u);
  EXPECT_EQ(reader.payload().params.t_sync_interval, 0u);
  for (const core::TrajMeta& m : reader.payload().metas) {
    EXPECT_TRUE(m.t_syncs.empty());
  }

  // Re-encoding the loaded v2 payload reproduces the v2 image exactly —
  // format_version is preserved, not silently upgraded to v3.
  EXPECT_EQ(EncodeArchive(reader.payload()), bytes);

  // And the sync-free archive answers brackets identically (the seek path
  // simply never upgrades its scan start).
  const core::UtcqDecoder plain(fx.net, reader.view());
  const core::UtcqDecoder synced(fx.net, fx.sys->compressed());
  for (size_t j = 0; j < 5; ++j) {
    const auto times = synced.DecodeTimes(j);
    ASSERT_FALSE(times.empty());
    const traj::Timestamp probe = times[times.size() / 2];
    const auto a = plain.BracketTime(j, probe, 0, times.front(),
                                     reader.payload().metas[j].t_pos);
    const auto b = synced.BracketTime(j, probe, 0, times.front(),
                                      fx.sys->compressed().meta(j).t_pos);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->index, b->index);
      EXPECT_EQ(a->t0, b->t0);
      EXPECT_EQ(a->t1, b->t1);
    }
  }
}

TEST(Archive, RejectsCraftedSyncTables) {
  // CRC-valid v3 archives whose skip tables lie — about entry order, entry
  // range, or bit offsets — must be rejected at open (§6 discipline): a
  // trusted hostile table would aim the seek path at arbitrary bit
  // positions.  K=2 guarantees multi-sync tables to mutate.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 2;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(sys2.compressed(), &sys2.index()).Serialize(), &error))
      << error;

  core::TrajMeta* victim = nullptr;
  size_t victim_j = 0;
  ArchivePayload base = reader.payload();
  for (size_t j = 0; j < base.metas.size(); ++j) {
    if (base.metas[j].t_syncs.size() >= 2) {
      victim = &base.metas[j];
      victim_j = j;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);

  // Non-monotone entry indices: the delta coding makes a repeated entry a
  // zero delta, which the section parser refuses.
  {
    ArchivePayload payload = base;
    auto& syncs = payload.metas[victim_j].t_syncs;
    syncs[1].entry = syncs[0].entry;
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // Entry index at/after the last decodable bracket start.
  {
    ArchivePayload payload = base;
    auto& syncs = payload.metas[victim_j].t_syncs;
    syncs.back().entry = payload.metas[victim_j].n_points;
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // Bit offset past the end of the T stream.
  {
    ArchivePayload payload = base;
    auto& syncs = payload.metas[victim_j].t_syncs;
    syncs.back().bit = payload.t.size_bits;
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // The unmutated payload still re-encodes and opens — the rejections
  // above came from the mutations, not the harness.
  ArchiveReader ok;
  EXPECT_TRUE(ok.OpenBytes(EncodeArchive(base), &error)) << error;
}

TEST(Archive, RejectsHandBuiltSyncSections) {
  // Tag-9 shapes the writer can never produce: a zero sync interval, and a
  // table set whose trajectory count disagrees with the metas. Both are
  // spliced into a sync-free (v2) image so the crafted section is the only
  // kTSyncIndex present.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 0;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  const std::vector<uint8_t> v2 =
      ArchiveWriter(sys2.compressed(), &sys2.index()).Serialize();
  constexpr uint64_t kTag = 9;  // SectionTag::kTSyncIndex
  std::string error;

  // Sync interval zero.
  {
    common::ByteWriter body;
    body.PutVarint(0);  // interval — must be >= 1
    body.PutVarint(sys2.compressed().num_trajectories());
    for (size_t j = 0; j < sys2.compressed().num_trajectories(); ++j) {
      body.PutVarint(0);  // no syncs for this trajectory
    }
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(WithExtraSection(v2, kTag, body), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // Trajectory count disagrees with the metas section.
  {
    common::ByteWriter body;
    body.PutVarint(2);  // interval
    body.PutVarint(1);  // one table; metas carry 50 trajectories
    body.PutVarint(0);
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(WithExtraSection(v2, kTag, body), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // A structurally valid spliced table is accepted — the helper builds
  // openable images, so the rejections above are the section's doing.
  {
    common::ByteWriter body;
    body.PutVarint(2);
    body.PutVarint(sys2.compressed().num_trajectories());
    for (size_t j = 0; j < sys2.compressed().num_trajectories(); ++j) {
      body.PutVarint(0);
    }
    ArchiveReader fine;
    EXPECT_TRUE(fine.OpenBytes(WithExtraSection(v2, kTag, body), &error))
        << error;
    EXPECT_EQ(fine.payload().params.t_sync_interval, 2u);
  }
}

}  // namespace
}  // namespace utcq::archive
