#include <algorithm>
#include <memory>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/plain_query.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "paper_example.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::core {
namespace {

struct Fixture {
  network::RoadNetwork net;
  network::GridIndex grid{net, 1};
  traj::UncertainCorpus corpus;
};

UtcqParams PaperParams() {
  UtcqParams p;
  p.default_interval_s = 240;
  return p;
}

TEST(ClassifySubpath, DegenerateInstancesAreDisjoint) {
  // Regression: with an empty edge loop, all_inside used to survive as true
  // and a subpath touching no edge classified kInside — over-counting
  // overlap probability in Range. Degenerate instances only reach this code
  // via crafted archives, which must not inflate query results.
  const auto ex = test::MakePaperExample();
  const auto bbox = ex.net.bounding_box();
  const network::Rect everywhere{bbox.min_x, bbox.min_y, bbox.max_x,
                                 bbox.max_y};

  traj::TrajectoryInstance no_path;
  no_path.locations.push_back({0, 0.0});
  EXPECT_EQ(ClassifySubpath(ex.net, no_path, 0, everywhere),
            SubpathRelation::kDisjoint);

  traj::TrajectoryInstance past_path;
  past_path.path = {ex.corridor[0]};
  past_path.locations.push_back({5, 0.0});  // path_index beyond the path
  EXPECT_EQ(ClassifySubpath(ex.net, past_path, 0, everywhere),
            SubpathRelation::kDisjoint);

  traj::TrajectoryInstance backwards;  // non-monotone location ordering
  backwards.path = ex.corridor;
  backwards.locations.push_back({3, 0.0});
  backwards.locations.push_back({1, 0.0});
  EXPECT_EQ(ClassifySubpath(ex.net, backwards, 0, everywhere),
            SubpathRelation::kDisjoint);

  // Sanity: a real subpath inside the all-covering rect still classifies
  // kInside.
  const auto& inst = ex.tu.instances[0];
  EXPECT_EQ(ClassifySubpath(ex.net, inst, 0, everywhere),
            SubpathRelation::kInside);
}

TEST(UtcqQuery, PaperExample3WhereQuery) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 8);
  const UtcqSystem sys(ex.net, grid, corpus, PaperParams(), {8, 900});

  // where(Tu^1, 5:21:25, 0.25): only Tu^1_1 (p = 0.75) qualifies; the
  // object sits between l4 (rd .5 on (v6->v7)) and l5 (rd 0 on (v7->v8)).
  const auto hits = sys.queries().Where(0, 19285, 0.25);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].instance, 0u);
  const auto& inst = ex.tu.instances[0];
  EXPECT_TRUE(hits[0].position.edge == inst.path[5] ||
              hits[0].position.edge == inst.path[6]);

  // At the very first sample the position is l0 exactly.
  const auto at_start = sys.queries().Where(0, ex.tu.times[0], 0.25);
  ASSERT_EQ(at_start.size(), 1u);
  EXPECT_EQ(at_start[0].position.edge, inst.path[0]);
  EXPECT_NEAR(at_start[0].position.ndist,
              0.875 * ex.net.edge(inst.path[0]).length, 2.0);
}

TEST(UtcqQuery, WhenQueryFindsSampleTimes) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 8);
  const UtcqSystem sys(ex.net, grid, corpus, PaperParams(), {8, 900});

  // All three instances pass l0's position at t0.
  const auto hits = sys.queries().When(0, ex.corridor[0], 0.875, 0.0);
  EXPECT_EQ(hits.size(), 3u);
  for (const auto& h : hits) EXPECT_EQ(h.t, ex.tu.times[0]);

  // Lemma 1: with alpha above every non-reference probability, only the
  // reference is evaluated.
  QueryStats stats;
  const auto only_ref =
      sys.queries().When(0, ex.corridor[0], 0.875, 0.5, &stats);
  ASSERT_EQ(only_ref.size(), 1u);
  EXPECT_EQ(only_ref[0].instance, 0u);
  EXPECT_GT(stats.pruned_lemma1, 0u);
}

TEST(UtcqQuery, WhenQueryOnDetourEdgeSeesOnlyDetourInstance) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 8);
  const UtcqSystem sys(ex.net, grid, corpus, PaperParams(), {8, 900});

  // l1' lies on (v2 -> v10), traversed only by Tu^1_2 (p = 0.2).
  const auto hits = sys.queries().When(0, ex.e_v2_v10, 0.25, 0.1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].instance, 1u);
  EXPECT_EQ(hits[0].t, ex.tu.times[1]);

  // alpha above p(Tu^1_2) filters it.
  EXPECT_TRUE(sys.queries().When(0, ex.e_v2_v10, 0.25, 0.3).empty());
}

TEST(UtcqQuery, RangeQueryPaperExample4Shape) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 8);
  const UtcqSystem sys(ex.net, grid, corpus, PaperParams(), {8, 900});

  // A box over the corridor start at 5:05:25 captures every instance.
  const network::Rect re{100, -100, 450, 200};
  const auto result = sys.queries().Range(re, 18325, 0.5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], 0u);

  // A disjoint box returns nothing (Lemma 2/4 prune).
  QueryStats stats;
  EXPECT_TRUE(
      sys.queries().Range({5000, 5000, 6000, 6000}, 18325, 0.5, &stats)
          .empty());
}

// ------------------------- randomized agreement with the plain evaluator

class QueryAgreement : public ::testing::TestWithParam<int> {};

TEST_P(QueryAgreement, CompressedEnginesMatchGroundTruth) {
  const auto profiles = traj::AllProfiles();
  const auto& profile = profiles[static_cast<size_t>(GetParam())];
  const auto net = test::MakeSmallCity(profile, 14);
  traj::UncertainTrajectoryGenerator gen(net, profile, 333);
  const auto corpus = gen.GenerateCorpus(80);

  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.eta_p = profile.eta_p;
  const network::GridIndex grid(net, 16);
  const UtcqSystem sys(net, grid, corpus, params, {16, 1200});
  const PlainQueryEngine plain(net, corpus);

  common::Rng rng(17);
  // Probabilities within eta_p of alpha can legitimately flip between the
  // engines; exclude those borderline instances from the comparison.
  const double eta_p = params.eta_p;

  int where_checked = 0;
  int when_checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const size_t j = static_cast<size_t>(rng.UniformInt(0, corpus.size() - 1));
    const auto& tu = corpus[j];
    const double alpha = rng.Uniform(0.0, 0.6);

    // ---- where ----
    const traj::Timestamp t =
        tu.times.front() +
        rng.UniformInt(0, std::max<int64_t>(tu.times.back() - tu.times.front(), 1));
    const auto got = sys.queries().Where(j, t, alpha);
    const auto want = plain.Where(j, t, alpha);
    std::set<uint32_t> got_ids, want_ids;
    bool borderline = false;
    for (const auto& tu_inst : tu.instances) {
      if (std::abs(tu_inst.probability - alpha) <= eta_p) borderline = true;
    }
    if (!borderline) {
      for (const auto& h : got) got_ids.insert(h.instance);
      for (const auto& h : want) want_ids.insert(h.instance);
      EXPECT_EQ(got_ids, want_ids) << "where traj " << j << " t " << t;
      // Positions agree to within the D quantization scaled by edge length.
      for (const auto& g : got) {
        for (const auto& w : want) {
          if (g.instance != w.instance) continue;
          const double tol =
              4.0 * params.eta_d *
                  std::max(net.edge(g.position.edge).length,
                           net.edge(w.position.edge).length) +
              1.0;
          if (g.position.edge == w.position.edge) {
            EXPECT_NEAR(g.position.ndist, w.position.ndist, tol);
          }
          ++where_checked;
        }
      }
    }

    // ---- when ----
    const auto& inst =
        tu.instances[static_cast<size_t>(rng.UniformInt(0, tu.instances.size() - 1))];
    const auto& loc =
        inst.locations[static_cast<size_t>(rng.UniformInt(0, inst.locations.size() - 1))];
    const network::EdgeId edge = inst.path[loc.path_index];
    if (!borderline) {
      const auto got_when = sys.queries().When(j, edge, loc.rd, alpha);
      const auto want_when = plain.When(j, edge, loc.rd, alpha);
      // Compressed rd grids differ slightly; compare hit counts loosely and
      // matched timestamps tightly.
      std::multiset<uint32_t> got_w, want_w;
      for (const auto& h : got_when) got_w.insert(h.instance);
      for (const auto& h : want_when) want_w.insert(h.instance);
      // Every plain hit instance should be found by the compressed engine.
      for (const auto id : want_w) {
        EXPECT_TRUE(got_w.count(id) > 0)
            << "when traj " << j << " edge " << edge << " rd " << loc.rd;
      }
      ++when_checked;
    }
  }
  EXPECT_GT(where_checked, 10);
  EXPECT_GT(when_checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Profiles, QueryAgreement, ::testing::Values(0, 1, 2));

TEST(RangeAgreement, CompressedMatchesPlain) {
  const auto profile = traj::ChengduProfile();
  const auto net = test::MakeSmallCity(profile, 14);
  traj::UncertainTrajectoryGenerator gen(net, profile, 444);
  const auto corpus = gen.GenerateCorpus(80);

  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  const network::GridIndex grid(net, 16);
  const UtcqSystem sys(net, grid, corpus, params, {16, 1200});
  const PlainQueryEngine plain(net, corpus);

  common::Rng rng(23);
  const auto bbox = net.bounding_box();
  int agreements = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const size_t j = static_cast<size_t>(rng.UniformInt(0, corpus.size() - 1));
    const auto& tu = corpus[j];
    const traj::Timestamp tq =
        tu.times.front() +
        rng.UniformInt(0, std::max<int64_t>(tu.times.back() - tu.times.front(), 1));
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const double half = rng.Uniform(100.0, 600.0);
    const network::Rect re{cx - half, cy - half, cx + half, cy + half};
    const double alpha = rng.Uniform(0.05, 0.8);

    const auto got = sys.queries().Range(re, tq, alpha);
    const auto want = plain.Range(re, tq, alpha);

    // Quantized probabilities can flip trajectories whose overlap mass sits
    // within a few eta_p of alpha; tolerate only those.
    std::set<uint32_t> got_s(got.begin(), got.end());
    std::set<uint32_t> want_s(want.begin(), want.end());
    std::vector<uint32_t> diff;
    std::set_symmetric_difference(got_s.begin(), got_s.end(), want_s.begin(),
                                  want_s.end(), std::back_inserter(diff));
    for (const uint32_t d : diff) {
      double mass = 0.0;
      for (const auto& inst : corpus[d].instances) {
        const auto pos =
            traj::PositionAtTime(net, inst, corpus[d].times, tq);
        if (!pos.has_value()) continue;
        const auto xy = net.PointOnEdge(pos->edge, pos->ndist);
        if (re.Contains(xy.x, xy.y)) mass += inst.probability;
      }
      // Allow flips near the threshold (quantization) or near the box
      // boundary (position quantization moves a point across the border).
      EXPECT_LE(std::abs(mass - alpha),
                corpus[d].instances.size() * params.eta_p + 0.12)
          << "trajectory " << d << " trial " << trial;
    }
    if (diff.empty()) ++agreements;
  }
  // The engines agree in the overwhelming majority of trials.
  EXPECT_GE(agreements, 85);
}

TEST(QueryStatsAccounting, LemmasActuallyFire) {
  const auto profile = traj::HangzhouProfile();
  const auto net = test::MakeSmallCity(profile, 14);
  traj::UncertainTrajectoryGenerator gen(net, profile, 555);
  const auto corpus = gen.GenerateCorpus(60);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.eta_p = profile.eta_p;
  const network::GridIndex grid(net, 16);
  const UtcqSystem sys(net, grid, corpus, params, {16, 1800});

  QueryStats stats;
  common::Rng rng(3);
  const auto bbox = net.bounding_box();
  for (int trial = 0; trial < 60; ++trial) {
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const network::Rect re{cx - 250, cy - 250, cx + 250, cy + 250};
    sys.queries().Range(re, rng.UniformInt(0, traj::kSecondsPerDay - 1), 0.6,
                        &stats);
  }
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_GT(stats.pruned_lemma4 + stats.pruned_lemma2 + stats.accepted_lemma3,
            0u);
}

// ------------------------------- decode-on-demand provider contract

TEST(DecodedProvider, ConsultedOnlyPastMetaAndIndexRejections) {
  const auto profile = traj::ChengduProfile();
  const auto net = test::MakeSmallCity(profile, 14);
  const auto corpus = test::MakeSmallCorpus(net, profile, 808, 40);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  const network::GridIndex grid(net, 16);
  const UtcqSystem sys(net, grid, corpus, params, {16, 900});
  const UtcqQueryProcessor& qp = sys.queries();
  const UtcqDecoder decoder = sys.decoder();

  // Full decodes on demand, counted per trajectory (.at: an id past the
  // corpus must never reach a provider).
  std::vector<size_t> calls(corpus.size(), 0);
  const traj::DecodedProvider counting = [&](uint32_t j) {
    ++calls.at(j);
    return std::make_shared<const traj::DecodedTraj>(decoder.DecodeTraj(j));
  };
  const auto total_calls = [&calls] {
    return std::accumulate(calls.begin(), calls.end(), size_t{0});
  };

  // Rejections: Where outside [t_first, t_last] from meta alone, When on
  // an edge none of whose regions any instance of Tu^j visits (so no
  // reference-group tuple lies near it) from the index alone.
  size_t foreign_edges = 0;
  for (uint32_t j = 0; j < corpus.size(); ++j) {
    const TrajMeta& meta = qp.decoder().view().meta(j);
    EXPECT_TRUE(qp.Where(j, meta.t_first - 1, 0.1, counting).empty());
    EXPECT_TRUE(qp.Where(j, meta.t_last + 1, 0.1, counting).empty());

    std::set<network::RegionId> visited;
    for (const auto& inst : corpus[j].instances) {
      for (const network::EdgeId e : inst.path) {
        for (const network::RegionId re : grid.RegionsOfEdge(e)) {
          visited.insert(re);
        }
      }
    }
    for (network::EdgeId e = 0; e < net.num_edges(); ++e) {
      const auto& regions = grid.RegionsOfEdge(e);
      const auto near = [&visited](network::RegionId re) {
        return visited.count(re) > 0;
      };
      if (std::any_of(regions.begin(), regions.end(), near)) continue;
      ++foreign_edges;
      EXPECT_TRUE(qp.When(j, e, 0.5, 0.1, counting).empty())
          << "trajectory " << j << " edge " << e;
    }
  }
  EXPECT_TRUE(qp.Where(corpus.size(), 0, 0.1, counting).empty());
  EXPECT_GT(foreign_edges, 0u);
  EXPECT_EQ(total_calls(), 0u);

  // Accepted queries: at most one call per trajectory, and answers equal
  // the provider-less call — also when the handle's shape disagrees with
  // the meta and must be ignored.
  const traj::DecodedProvider misshapen = [](uint32_t) {
    return std::make_shared<const traj::DecodedTraj>();
  };
  const auto expect_at_most_once = [&calls](const char* what) {
    for (size_t j = 0; j < calls.size(); ++j) {
      EXPECT_LE(calls[j], 1u) << what << " trajectory " << j;
    }
  };
  common::Rng rng(test::BaseSeed(909));
  const auto bbox = net.bounding_box();
  size_t served = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto j = static_cast<uint32_t>(rng.UniformInt(0, corpus.size() - 1));
    const auto& tu = corpus[j];
    const double alpha = rng.Uniform(0.0, 0.6);
    const traj::Timestamp t =
        rng.UniformInt(tu.times.front(), tu.times.back());
    const auto& path = tu.instances.front().path;
    const network::EdgeId edge = path[rng.UniformInt(0, path.size() - 1)];
    const double rd = rng.Uniform(0.0, 1.0);
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const double half = rng.Uniform(200.0, 900.0);
    const network::Rect re{cx - half, cy - half, cx + half, cy + half};

    std::fill(calls.begin(), calls.end(), 0);
    EXPECT_EQ(qp.Where(j, t, alpha, counting), qp.Where(j, t, alpha));
    EXPECT_EQ(qp.Where(j, t, alpha, misshapen), qp.Where(j, t, alpha));
    expect_at_most_once("where");
    served += total_calls();

    std::fill(calls.begin(), calls.end(), 0);
    EXPECT_EQ(qp.When(j, edge, rd, alpha, counting),
              qp.When(j, edge, rd, alpha));
    EXPECT_EQ(qp.When(j, edge, rd, alpha, misshapen),
              qp.When(j, edge, rd, alpha));
    expect_at_most_once("when");
    served += total_calls();

    std::fill(calls.begin(), calls.end(), 0);
    EXPECT_EQ(qp.Range(re, t, alpha, counting), qp.Range(re, t, alpha));
    EXPECT_EQ(qp.Range(re, t, alpha, misshapen), qp.Range(re, t, alpha));
    expect_at_most_once("range");
    served += total_calls();
  }
  EXPECT_GT(served, 0u);  // the handles actually answered queries
}

}  // namespace
}  // namespace utcq::core
