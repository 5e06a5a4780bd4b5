#include <algorithm>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "paper_example.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::core {
namespace {

struct StiuFixture {
  explicit StiuFixture(int64_t time_partition_s = 900) {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 14);
    traj::UncertainTrajectoryGenerator gen(net, profile, 606);
    corpus = gen.GenerateCorpus(60);
    grid = std::make_unique<network::GridIndex>(net, 16);
    params.default_interval_s = profile.default_interval_s;
    sys = std::make_unique<UtcqSystem>(
        net, *grid, corpus, params, StiuParams{16, time_partition_s});
  }
  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
  std::unique_ptr<network::GridIndex> grid;
  UtcqParams params;
  std::unique_ptr<UtcqSystem> sys;
};

TEST(StiuIndex, TemporalTuplesCoverEveryPartitionOfTheSpan) {
  StiuFixture fx;
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& tuples = fx.sys->index().TemporalOf(j);
    ASSERT_FALSE(tuples.empty());
    EXPECT_EQ(tuples.front().t_no, 0u);
    EXPECT_EQ(tuples.front().t_start, fx.corpus[j].times.front());
    for (size_t k = 1; k < tuples.size(); ++k) {
      EXPECT_GT(tuples[k].t_start, tuples[k - 1].t_start);
      EXPECT_GT(tuples[k].t_no, tuples[k - 1].t_no);
      // Each tuple starts a new 900 s partition.
      EXPECT_NE(tuples[k].t_start / 900, tuples[k - 1].t_start / 900);
    }
  }
}

TEST(StiuIndex, BracketFromAnyTupleMatchesBracketFromStart) {
  // The t_pos bit offsets must let a partial decode starting at *any*
  // temporal tuple agree with a decode from the beginning of the stream.
  StiuFixture fx;
  const auto decoder = fx.sys->decoder();
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& tu = fx.corpus[j];
    const auto& tuples = fx.sys->index().TemporalOf(j);
    const auto& first = tuples.front();
    for (traj::Timestamp t = tu.times.front(); t <= tu.times.back();
         t += std::max<traj::Timestamp>(
             (tu.times.back() - tu.times.front()) / 7, 1)) {
      const auto via_index = fx.sys->index().TemporalTupleFor(j, t);
      const auto a = decoder.BracketTime(j, t, via_index.t_no,
                                         via_index.t_start, via_index.t_pos);
      const auto b =
          decoder.BracketTime(j, t, first.t_no, first.t_start, first.t_pos);
      ASSERT_EQ(a.has_value(), b.has_value()) << "traj " << j << " t " << t;
      if (a.has_value()) {
        EXPECT_EQ(a->index, b->index);
        EXPECT_EQ(a->t0, b->t0);
        EXPECT_EQ(a->t1, b->t1);
        // And the bracket is correct against the raw time sequence.
        EXPECT_EQ(a->t0, tu.times[a->index]);
        if (a->index + 1 < tu.times.size()) {
          EXPECT_EQ(a->t1, tu.times[a->index + 1]);
        }
        EXPECT_LE(a->t0, t);
        EXPECT_GE(a->t1, t);
      }
    }
  }
}

TEST(StiuIndex, SpatialTuplesAreComplete) {
  // Every region an instance's path overlaps must be reachable via a tuple
  // (the conservative completeness the range candidate generation needs).
  StiuFixture fx;
  const auto& meta_of = fx.sys->compressed();
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const TrajMeta& meta = meta_of.meta(j);
    for (size_t w = 0; w < fx.corpus[j].instances.size(); ++w) {
      const auto& inst = fx.corpus[j].instances[w];
      const auto [is_ref, idx] = meta.roles[w];
      for (const auto e : inst.path) {
        for (const auto re : fx.grid->RegionsOfEdge(e)) {
          bool found = false;
          if (is_ref) {
            for (const auto& rt : fx.sys->index().RefTuplesIn(re)) {
              found = found || (rt.traj == j && rt.ref_idx == idx &&
                                rt.ref_passes);
            }
          } else {
            for (const auto& nt : fx.sys->index().NrefTuplesIn(re)) {
              found = found || (nt.traj == j && nt.nref_idx == idx);
            }
          }
          EXPECT_TRUE(found) << "traj " << j << " inst " << w << " region "
                             << re;
        }
      }
    }
  }
}

TEST(StiuIndex, RefTupleAggregatesAreConsistent) {
  StiuFixture fx;
  for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
    for (const auto& rt : fx.sys->index().RefTuplesIn(re)) {
      const TrajMeta& meta = fx.sys->compressed().meta(rt.traj);
      // p_total covers at least the members that contributed p_max and the
      // reference itself when it passes.
      double lower = rt.p_max;
      if (rt.ref_passes) lower += meta.refs[rt.ref_idx].p_quantized;
      EXPECT_GE(rt.p_total + 1e-6, lower);
      EXPECT_GE(rt.p_max, 0.0f);
      if (rt.ref_passes) {
        EXPECT_LT(rt.fv_no, meta.refs[rt.ref_idx].e_len);
      }
    }
  }
}

TEST(StiuIndex, PaperExampleTuples) {
  // Fig. 5: Tu^1_1 is the reference; the spatial tuples near the corridor
  // start must name it with fv = SV and carry p_total = 1 (all three
  // instances pass the first region).
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 4);
  UtcqParams params;
  params.default_interval_s = 240;
  const UtcqSystem sys(ex.net, grid, corpus, params, StiuParams{4, 900});

  const auto re0 = grid.RegionOf(ex.net.vertex(ex.v[1]).x + 1,
                                 ex.net.vertex(ex.v[1]).y + 1);
  bool found = false;
  for (const auto& rt : sys.index().RefTuplesIn(re0)) {
    if (rt.traj != 0 || !rt.ref_passes) continue;
    found = true;
    EXPECT_EQ(rt.fv_id, ex.v[1]);  // SV special case of Section 5.2
    EXPECT_EQ(rt.fv_no, 0u);
    EXPECT_NEAR(rt.p_total, 1.0, 0.02);  // all instances start here
    EXPECT_NEAR(rt.p_max, 0.2, 0.01);    // max non-reference probability
  }
  EXPECT_TRUE(found);
}

/// Deterministic range queries over the fixture's extent, each at a
/// timestamp some trajectory actually reports.
std::vector<std::pair<network::Rect, traj::Timestamp>> RangeQueries(
    const StiuFixture& fx, size_t count) {
  common::Rng rng(1606);
  const auto bbox = fx.net.bounding_box();
  std::vector<std::pair<network::Rect, traj::Timestamp>> queries;
  for (size_t i = 0; i < count; ++i) {
    const auto& tu = fx.corpus[static_cast<size_t>(
        rng.UniformInt(0, fx.corpus.size() - 1))];
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const double half = rng.Uniform(100.0, 600.0);
    queries.push_back({{cx - half, cy - half, cx + half, cy + half},
                       tu.times[static_cast<size_t>(
                           rng.UniformInt(0, tu.times.size() - 1))]});
  }
  return queries;
}

/// Brute-force Range work: every ref and nref tuple over RegionsInRect
/// whose trajectory is active in tq's partition (its raw time span meets
/// the partition, the membership the index records), or of every
/// trajectory when `all_time`.
uint64_t BruteForceTuples(const StiuFixture& fx, const network::Rect& rect,
                          traj::Timestamp tq, bool all_time) {
  const int64_t tps = fx.sys->index().time_partition_s();
  const int64_t p = tq / tps;
  const int64_t last_p = (traj::kSecondsPerDay + tps - 1) / tps - 1;
  const auto active = [&](uint32_t j) {
    const auto& times = fx.corpus[j].times;
    return all_time || (times.front() / tps <= p &&
                        p <= std::min(last_p, times.back() / tps));
  };
  uint64_t n = 0;
  for (const network::RegionId re : fx.grid->RegionsInRect(rect)) {
    for (const auto& rt : fx.sys->index().RefTuplesIn(re)) n += active(rt.traj);
    for (const auto& nt : fx.sys->index().NrefTuplesIn(re)) {
      n += active(nt.traj);
    }
  }
  return n;
}

TEST(StiuIndex, RangeScansOnlyTheTrajectoriesActiveAtTq) {
  // 900 s partitions post every run; 60 s partitions make many of the
  // fixture's trajectories span more than the 8 partitions the index posts
  // a run under, so their runs take the partition-list check instead.
  for (const int64_t tps : {900, 60}) {
    SCOPED_TRACE(tps);
    StiuFixture fx(tps);
    size_t multi_partition = 0;
    size_t wide = 0;
    for (const auto& tu : fx.corpus) {
      const int64_t span = tu.times.back() / tps - tu.times.front() / tps + 1;
      multi_partition += span > 1;
      wide += span > 8;
    }
    ASSERT_GT(multi_partition, 0u);
    if (tps == 60) ASSERT_GT(wide, 0u);
    uint64_t scanned = 0;
    uint64_t all_time = 0;
    for (const auto& [rect, tq] : RangeQueries(fx, 60)) {
      QueryStats stats;
      fx.sys->queries().Range(rect, tq, 0.3, &stats);
      EXPECT_EQ(stats.tuples_scanned, BruteForceTuples(fx, rect, tq, false));
      scanned += stats.tuples_scanned;
      all_time += BruteForceTuples(fx, rect, tq, true);
    }
    EXPECT_GT(scanned, 0u);
    EXPECT_LT(scanned, all_time);
  }
}

TEST(StiuIndex, RangeAnswersDoNotDependOnThePartitionSize) {
  // The partition only narrows candidates; the answers are the same for
  // posted runs (900 s), partition-list checked runs (60 s) and a single
  // whole-day partition.
  StiuFixture posted(900);
  StiuFixture checked(60);
  StiuFixture whole_day(traj::kSecondsPerDay);
  size_t hits = 0;
  for (const auto& [rect, tq] : RangeQueries(posted, 80)) {
    for (const double alpha : {0.1, 0.5}) {
      const auto expected = whole_day.sys->queries().Range(rect, tq, alpha);
      EXPECT_EQ(posted.sys->queries().Range(rect, tq, alpha), expected);
      EXPECT_EQ(checked.sys->queries().Range(rect, tq, alpha), expected);
      hits += expected.size();
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST(StiuIndex, RangeOutsideTheDayIsEmpty) {
  StiuFixture fx;
  const auto bbox = fx.net.bounding_box();
  const network::Rect everywhere{bbox.min_x, bbox.min_y, bbox.max_x,
                                 bbox.max_y};
  for (const traj::Timestamp tq :
       {traj::Timestamp{-1}, traj::Timestamp{-900}, traj::kSecondsPerDay,
        traj::kSecondsPerDay + 3600}) {
    QueryStats stats;
    EXPECT_TRUE(fx.sys->queries().Range(everywhere, tq, 0.0, &stats).empty())
        << tq;
    EXPECT_EQ(stats.tuples_scanned, 0u) << tq;
  }
}

TEST(StiuIndex, WhenScansOnlyTheTrajectorysRuns) {
  StiuFixture fx;
  const auto& qp = fx.sys->queries();
  for (uint32_t j = 0; j < fx.corpus.size(); j += 3) {
    const auto& path = fx.corpus[j].instances.front().path;
    for (size_t k = 0; k < path.size(); k += 4) {
      uint64_t expected = 0;
      for (const network::RegionId re : fx.grid->RegionsOfEdge(path[k])) {
        for (const auto& rt : fx.sys->index().RefTuplesIn(re)) {
          expected += rt.traj == j;
        }
        for (const auto& nt : fx.sys->index().NrefTuplesIn(re)) {
          expected += nt.traj == j;
        }
      }
      QueryStats stats;
      qp.When(j, path[k], 0.5, 0.1, &stats);
      EXPECT_EQ(stats.tuples_scanned, expected) << "traj " << j;
      EXPECT_GT(stats.tuples_scanned, 0u);
    }
  }
}

TEST(StiuIndex, ReloadedIndexScansAndAnswersIdentically) {
  // The runs and postings are derived, not persisted: an index reopened
  // from its archive must rebuild exactly the compressor-built structure.
  StiuFixture fx;
  archive::ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(
      archive::ArchiveWriter(fx.sys->compressed(), &fx.sys->index())
          .Serialize(),
      &error))
      << error;
  const auto index = reader.LoadIndex(*fx.grid, &error);
  ASSERT_NE(index, nullptr) << error;
  const UtcqQueryProcessor reloaded(fx.net, reader.view(), *index);
  EXPECT_EQ(index->SizeBytes(), fx.sys->index().SizeBytes());

  for (const auto& [rect, tq] : RangeQueries(fx, 80)) {
    QueryStats a;
    QueryStats b;
    EXPECT_EQ(fx.sys->queries().Range(rect, tq, 0.3, &a),
              reloaded.Range(rect, tq, 0.3, &b));
    EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
    EXPECT_EQ(a.candidates, b.candidates);
  }
  for (uint32_t j = 0; j < fx.corpus.size(); j += 5) {
    const auto& inst = fx.corpus[j].instances.front();
    QueryStats a;
    QueryStats b;
    EXPECT_EQ(fx.sys->queries().When(j, inst.path.front(), 0.5, 0.1, &a),
              reloaded.When(j, inst.path.front(), 0.5, 0.1, &b));
    EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
  }
}

/// A StIU section over `grid`: `num_trajs` trajectories without temporal
/// tuples, the given partition lists, and no spatial tuples.
std::vector<uint8_t> CraftedSection(
    const network::GridIndex& grid, uint64_t num_trajs,
    const std::vector<std::vector<uint64_t>>& partitions) {
  common::ByteWriter w;
  w.PutVarint(16);       // cells_per_side
  w.PutSignedVarint(1);  // time_partition_s
  w.PutVarint(num_trajs);
  w.PutVarint(partitions.size());
  w.PutVarint(grid.num_regions());
  for (uint64_t j = 0; j < num_trajs; ++j) w.PutVarint(0);
  for (const auto& trajs : partitions) {
    w.PutVarint(trajs.size());
    for (const uint64_t j : trajs) w.PutVarint(j);
  }
  for (size_t re = 0; re < 2 * grid.num_regions(); ++re) w.PutVarint(0);
  return w.bytes();
}

TEST(StiuIndex, DeclaredPartitionsCostAtMostEightBytesEach) {
  // One-second partitions, all empty: the reader must not allocate a
  // container per declared partition. SizeBytes() counts the partition
  // offsets, so it bounds what the lists allocate.
  const auto profile = traj::ChengduProfile();
  const auto net = test::MakeSmallCity(profile, 14);
  const network::GridIndex grid(net, 16);
  const auto size_with = [&grid](size_t partitions) {
    const auto bytes = CraftedSection(
        grid, 0, std::vector<std::vector<uint64_t>>(partitions));
    common::ByteReader in(bytes);
    const StiuIndex index(grid, in);
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(index.PartitionAt(static_cast<traj::Timestamp>(partitions)),
              std::nullopt);
    EXPECT_EQ(index.PartitionAt(static_cast<traj::Timestamp>(partitions - 1)),
              partitions - 1);
    return index.SizeBytes();
  };
  constexpr size_t kDay = 86400;
  EXPECT_LE(size_with(kDay) - size_with(1), 8 * (kDay - 1));
}

TEST(StiuIndex, PartitionIdsPastThirtyTwoBitsAreRejected) {
  // 2^32 would truncate to trajectory 0, a valid id.
  const auto profile = traj::ChengduProfile();
  const auto net = test::MakeSmallCity(profile, 14);
  const network::GridIndex grid(net, 16);
  for (const uint64_t id : {uint64_t{0}, uint64_t{1} << 32}) {
    const auto bytes = CraftedSection(grid, 1, {{id}});
    common::ByteReader in(bytes);
    const StiuIndex index(grid, in);
    EXPECT_EQ(in.ok(), id == 0) << id;
  }
}

}  // namespace
}  // namespace utcq::core
