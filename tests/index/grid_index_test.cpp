#include "index/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

namespace fa::index {
namespace {

using geo::BBox;
using geo::Vec2;

TEST(GridIndex, EmptyIndex) {
  const GridIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.count(BBox{0, 0, 1, 1}), 0u);
}

TEST(GridIndex, SinglePoint) {
  const GridIndex idx({{5.0, 5.0}}, BBox{0, 0, 10, 10}, 4, 4);
  EXPECT_EQ(idx.count(BBox{4, 4, 6, 6}), 1u);
  EXPECT_EQ(idx.count(BBox{0, 0, 1, 1}), 0u);
  EXPECT_EQ(idx.point(0), (Vec2{5.0, 5.0}));
}

TEST(GridIndex, PointsOutsideBoundsAreClamped) {
  // Clamped into edge bins but still exactly filtered on query.
  const GridIndex idx({{-5.0, 5.0}, {15.0, 5.0}}, BBox{0, 0, 10, 10}, 4, 4);
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.count(BBox{-10, 0, 20, 10}), 2u);
  EXPECT_EQ(idx.count(BBox{0, 0, 10, 10}), 0u);
}

TEST(GridIndex, MatchesBruteForce) {
  std::mt19937_64 rng(321);
  std::uniform_real_distribution<double> pos(0.0, 50.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < 2000; ++i) pts.push_back({pos(rng), pos(rng)});
  const GridIndex idx(pts, BBox{0, 0, 50, 50}, 16, 16);
  for (int q = 0; q < 40; ++q) {
    const double x = pos(rng), y = pos(rng);
    const BBox query{x, y, x + 7.0, y + 4.0};
    std::set<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (query.contains(pts[i])) expected.insert(i);
    }
    auto got_v = idx.query_ids(query);
    const std::set<std::uint32_t> got(got_v.begin(), got_v.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(GridIndex, CandidatesAreSuperset) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> pos(0.0, 50.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < 500; ++i) pts.push_back({pos(rng), pos(rng)});
  const GridIndex idx(pts, BBox{0, 0, 50, 50}, 8, 8);
  const BBox query{10.3, 20.7, 18.9, 33.1};
  std::set<std::uint32_t> exact;
  idx.query(query, [&](std::uint32_t id, Vec2) { exact.insert(id); });
  std::set<std::uint32_t> cand;
  idx.query_candidates(query, [&](std::uint32_t id, Vec2) { cand.insert(id); });
  EXPECT_TRUE(std::includes(cand.begin(), cand.end(), exact.begin(),
                            exact.end()));
}

TEST(GridIndex, QuerySpansMatchCandidateVisitOrder) {
  // The span API must yield exactly the candidate sequence the callback
  // visitor produces — same ids, same order — and the SoA views must
  // carry the matching coordinates, since batch kernels consume both.
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> pos(0.0, 50.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < 1500; ++i) pts.push_back({pos(rng), pos(rng)});
  const GridIndex idx(pts, BBox{0, 0, 50, 50}, 16, 16);
  const auto ids = idx.binned_ids();
  const auto xs = idx.binned_xs();
  const auto ys = idx.binned_ys();
  ASSERT_EQ(ids.size(), pts.size());
  for (int q = 0; q < 25; ++q) {
    const double x = pos(rng), y = pos(rng);
    const BBox query{x, y, x + 9.0, y + 6.0};
    std::vector<std::uint32_t> callback_order;
    idx.query_candidates(
        query, [&](std::uint32_t id, Vec2) { callback_order.push_back(id); });
    std::vector<std::uint32_t> span_order;
    idx.query_spans(query, [&](std::uint32_t b, std::uint32_t e) {
      ASSERT_LT(b, e);  // empty ranges are suppressed
      for (std::uint32_t k = b; k < e; ++k) {
        span_order.push_back(ids[k]);
        EXPECT_EQ(Vec2(xs[k], ys[k]), pts[ids[k]]);
      }
    });
    EXPECT_EQ(span_order, callback_order);
  }
}

TEST(GridIndex, QueryIdsReservesExactCandidateCapacity) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> pos(0.0, 50.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < 800; ++i) pts.push_back({pos(rng), pos(rng)});
  const GridIndex idx(pts, BBox{0, 0, 50, 50}, 8, 8);
  const BBox query{5.5, 7.5, 30.0, 22.0};
  std::size_t candidates = 0;
  idx.query_candidates(query, [&](std::uint32_t, Vec2) { ++candidates; });
  const std::vector<std::uint32_t> got = idx.query_ids(query);
  EXPECT_LE(got.size(), candidates);
  EXPECT_GE(got.capacity(), candidates);  // single up-front reserve
}

TEST(GridIndex, IdsMapToOriginalOrder) {
  const std::vector<Vec2> pts{{1, 1}, {9, 9}, {5, 5}};
  const GridIndex idx(pts, BBox{0, 0, 10, 10}, 2, 2);
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(idx.point(i), pts[i]);
  }
}

// Property: total count over a partition of the bounds equals size().
class GridResolutionSweep : public ::testing::TestWithParam<int> {};

TEST_P(GridResolutionSweep, PartitionCountsSum) {
  const int res = GetParam();
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> pos(0.0, 32.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < 700; ++i) pts.push_back({pos(rng), pos(rng)});
  const GridIndex idx(pts, BBox{0, 0, 32, 32}, res, res);
  // Half-open quadrant partition (shrink top/right edges by epsilon to
  // avoid double counting boundary points).
  const double mid = 16.0, hi = 32.0, eps = 1e-9;
  const std::size_t total =
      idx.count(BBox{0, 0, mid - eps, mid - eps}) +
      idx.count(BBox{mid, 0, hi, mid - eps}) +
      idx.count(BBox{0, mid, mid - eps, hi}) +
      idx.count(BBox{mid, mid, hi, hi});
  EXPECT_EQ(total, pts.size());
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridResolutionSweep,
                         ::testing::Values(1, 2, 8, 32, 100));

}  // namespace
}  // namespace fa::index
