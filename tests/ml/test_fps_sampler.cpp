#include "ml/fps_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mummi::ml {
namespace {

std::vector<HDPoint> grid_points(int per_side, float spacing = 1.0f) {
  std::vector<HDPoint> out;
  PointId id = 1;
  for (int i = 0; i < per_side; ++i)
    for (int j = 0; j < per_side; ++j)
      out.push_back({id++, {i * spacing, j * spacing}});
  return out;
}

TEST(FpsSampler, AddThenCount) {
  FpsSampler fps(2, 1000);
  fps.add_candidates(grid_points(5));
  EXPECT_EQ(fps.candidate_count(), 25u);
  EXPECT_EQ(fps.selected_count(), 0u);
}

TEST(FpsSampler, SelectRemovesFromPool) {
  FpsSampler fps(2, 1000);
  fps.add_candidates(grid_points(5));
  const auto picked = fps.select(3);
  EXPECT_EQ(picked.size(), 3u);
  EXPECT_EQ(fps.candidate_count(), 22u);
  EXPECT_EQ(fps.selected_count(), 3u);
}

TEST(FpsSampler, SelectMoreThanAvailable) {
  FpsSampler fps(2, 1000);
  fps.add_candidates(grid_points(2));  // 4 points
  const auto picked = fps.select(10);
  EXPECT_EQ(picked.size(), 4u);
  EXPECT_TRUE(fps.select(1).empty());
}

TEST(FpsSampler, NoDuplicateSelections) {
  FpsSampler fps(2, 1000);
  fps.add_candidates(grid_points(6));
  std::set<PointId> seen;
  for (int round = 0; round < 6; ++round)
    for (const auto& p : fps.select(5))
      EXPECT_TRUE(seen.insert(p.id).second) << p.id;
  EXPECT_EQ(seen.size(), 30u);
}

TEST(FpsSampler, FarthestPointSpreadsSelections) {
  // On a line of points, successive selections must jump to the far end
  // rather than pick neighbors of the first pick.
  FpsSampler fps(1, 1000);
  std::vector<HDPoint> line;
  for (int i = 0; i < 101; ++i)
    line.push_back({static_cast<PointId>(i), {static_cast<float>(i)}});
  fps.add_candidates(line);
  const auto first = fps.select(1);
  const float x0 = first[0].coords[0];
  const auto second = fps.select(1);
  // Second pick is an extreme end, at least 50 away from the first.
  EXPECT_GE(std::abs(second[0].coords[0] - x0), 50.0f);
  const auto third = fps.select(1);
  // Third pick lands near the middle of the largest gap.
  const float lo = std::min(x0, second[0].coords[0]);
  const float hi = std::max(x0, second[0].coords[0]);
  EXPECT_GT(third[0].coords[0], lo + 20.0f);
  EXPECT_LT(third[0].coords[0], hi - 20.0f);
}

TEST(FpsSampler, RankIsDistanceToNearestSelected) {
  FpsSampler fps(2, 1000);
  fps.add_candidates({{1, {0, 0}}, {2, {10, 0}}, {3, {3, 0}}});
  // First selection takes an infinite-rank candidate (lowest id on ties).
  const auto first = fps.select(1);
  EXPECT_EQ(first[0].id, 1u);
  fps.update_ranks();
  EXPECT_FLOAT_EQ(fps.rank_of(2), 10.0f);
  EXPECT_FLOAT_EQ(fps.rank_of(3), 3.0f);
}

// Every rank is bit-equal to a brute-force min of dist2 over the selected
// set: for arrivals (the lane fold) and for pool survivors (tightened pick by
// pick). Params: selected points, dimension, picks per select call.
class FpsRankVsBrute
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FpsRankVsBrute, AgreesWithBruteForce) {
  const auto [n, dim, k] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * dim));
  PointId next = 1;
  const auto batch = [&](int count) {
    std::vector<HDPoint> out(static_cast<std::size_t>(count));
    for (auto& p : out) {
      p.id = next++;
      p.coords.resize(static_cast<std::size_t>(dim));
      for (auto& c : p.coords) c = static_cast<float>(rng.normal());
    }
    return out;
  };
  FpsSampler fps(dim, 100000);
  const auto first = batch(n + 20);
  fps.add_candidates(first);
  const auto n_selected = static_cast<std::size_t>(n);
  std::vector<HDPoint> selected;
  while (selected.size() < n_selected) {
    const auto picks = std::min<std::size_t>(k, n_selected - selected.size());
    for (auto& p : fps.select(picks)) selected.push_back(std::move(p));
  }
  const auto arrivals = batch(20);
  fps.add_candidates(arrivals);
  std::vector<HDPoint> ranked = arrivals;
  for (const auto& p : first)
    if (!std::isnan(fps.rank_of(p.id))) ranked.push_back(p);
  ASSERT_EQ(ranked.size(), 40u);
  for (const auto& p : ranked) {
    float want = std::numeric_limits<float>::infinity();
    for (const auto& s : selected)
      want = std::min(want, dist2(p.coords, s.coords));
    EXPECT_EQ(fps.rank_of(p.id), std::sqrt(want)) << "id " << p.id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, FpsRankVsBrute,
    ::testing::Values(std::make_tuple(10, 2, 1), std::make_tuple(100, 3, 5),
                      std::make_tuple(500, 9, 10), std::make_tuple(1000, 9, 1),
                      std::make_tuple(64, 1, 3), std::make_tuple(200, 16, 4)));

TEST(FpsSampler, LazyAdditionIsCheapRankedAtSelect) {
  FpsSampler fps(2, 100000);
  fps.add_candidates(grid_points(10));
  fps.select(1);
  // New additions are ranked on arrival against the one selected point; a
  // pool far below capacity admits all of them.
  fps.add_candidates(grid_points(10, 5.0f));
  EXPECT_EQ(fps.candidate_count(), 199u);
  const auto picked = fps.select(1);
  EXPECT_FALSE(picked.empty());
}

TEST(FpsSampler, CapacityEvictsLeastNovel) {
  FpsSampler fps(2, 10);
  // One far-away anchor selected first so ranks are finite.
  fps.add_candidates({{999, {100, 100}}});
  fps.select(1);
  // 20 candidates at increasing distance from the anchor; capacity keeps the
  // 10 most novel = the 10 farthest from (100, 100).
  std::vector<HDPoint> pts;
  for (int i = 0; i < 20; ++i)
    pts.push_back({static_cast<PointId>(i + 1),
                   {static_cast<float>(5 * i), 0.0f}});
  fps.add_candidates(pts);
  fps.update_ranks();
  EXPECT_EQ(fps.candidate_count(), 10u);
  // Far-from-anchor means small x here... the nearest-to-anchor candidates
  // (large x ~ (95,0) is closest to (100,100)) were evicted.
  const auto picked = fps.select(10);
  for (const auto& p : picked) EXPECT_LE(p.coords[0], 50.0f);
}

TEST(FpsSampler, DeterministicTieBreakByLowestId) {
  FpsSampler a(2, 100), b(2, 100);
  const auto pts = grid_points(4);
  a.add_candidates(pts);
  b.add_candidates(pts);
  for (int i = 0; i < 16; ++i) {
    const auto pa = a.select(1);
    const auto pb = b.select(1);
    ASSERT_EQ(pa.size(), pb.size());
    EXPECT_EQ(pa[0].id, pb[0].id);
  }
}

TEST(FpsSampler, SerializeRoundTripPreservesBehaviour) {
  FpsSampler a(2, 1000);
  a.add_candidates(grid_points(8));
  a.select(5);
  util::ByteWriter state;
  a.serialize(state);
  util::ByteReader r(state.data());
  FpsSampler b = FpsSampler::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(b.candidate_count(), a.candidate_count());
  EXPECT_EQ(b.selected_count(), a.selected_count());
  // Future selections agree: the restored sampler has the same selected set
  // and candidate ranks.
  for (int i = 0; i < 10; ++i) {
    const auto pa = a.select(1);
    const auto pb = b.select(1);
    ASSERT_EQ(pa.empty(), pb.empty());
    if (!pa.empty()) {
      EXPECT_EQ(pa[0].id, pb[0].id);
    }
  }
}

TEST(FpsSampler, DeserializeRejectsVersionMismatch) {
  // Pre-versioning blobs started with the u32 dim, so their first byte is
  // the low byte of a small integer (e.g. 9) — never kSerialVersion. Such a
  // blob must fail loudly, not be misparsed.
  util::ByteWriter w;
  w.u32(9);     // old layout: dim first
  w.u64(1000);  // capacity
  util::ByteReader r(w.data());
  EXPECT_THROW((void)FpsSampler::deserialize(r), util::FormatError);
}

TEST(FpsSampler, DeserializeRejectsV2Blob) {
  // The v2 layout: version, dim, capacity, ranked count, pool, rank2, the
  // per-slot fold watermarks, selected set.
  util::ByteWriter w;
  w.u8(2);
  w.u32(2);
  w.u64(100);
  w.u64(1);
  PointStore::from_points({{1, {0, 0}}}, 2).serialize(w);
  w.vec(std::vector<float>{1.0f});
  w.vec(std::vector<std::uint32_t>{0});
  PointStore(2).serialize(w);
  util::ByteReader r(w.data());
  EXPECT_THROW((void)FpsSampler::deserialize(r), util::FormatError);
}

TEST(FpsSampler, DeserializeRejectsForgedRanks) {
  // Ranks are squared distances; compaction orders them by their bits, so
  // a negative or NaN rank in a v3 blob is corrupt input.
  for (const float bad : {-1.0f, std::numeric_limits<float>::quiet_NaN()}) {
    util::ByteWriter w;
    w.u8(FpsSampler::kSerialVersion);
    w.u32(2);
    w.u64(100);
    PointStore::from_points({{1, {0, 0}}}, 2).serialize(w);
    w.vec(std::vector<float>{bad});
    PointStore(2).serialize(w);
    util::ByteReader r(w.data());
    EXPECT_THROW((void)FpsSampler::deserialize(r), util::FormatError) << bad;
  }
}

TEST(FpsSampler, PoolNeverExceedsTwiceCapacity) {
  constexpr std::size_t kCap = 50;
  FpsSampler fps(2, kCap);
  util::Rng rng(9);
  PointId next = 1;
  for (int round = 0; round < 12; ++round) {
    // Up to ten capacities in one batch; no pick in the first rounds, so
    // every rank is infinite there.
    const std::size_t n = 1 + rng.uniform_index(10 * kCap);
    std::vector<HDPoint> batch;
    for (std::size_t i = 0; i < n; ++i)
      batch.push_back({next++, {static_cast<float>(rng.normal()),
                                static_cast<float>(rng.normal())}});
    fps.add_candidates(batch);
    EXPECT_LE(fps.candidate_count(), 2 * kCap) << round;
    util::ByteWriter state;
    fps.serialize(state);
    util::ByteReader r(state.data());
    EXPECT_LE(FpsSampler::deserialize(r).candidate_count(), kCap) << round;
    (void)fps.select(round < 4 ? 0 : 2);
    EXPECT_LE(fps.candidate_count(), kCap) << round;
  }
}

TEST(FpsSampler, SerializedBlobLeadsWithVersionByte) {
  FpsSampler fps(2, 100);
  fps.add_candidates(grid_points(3));
  util::ByteWriter w;
  fps.serialize(w);
  ASSERT_FALSE(w.data().empty());
  EXPECT_EQ(w.data()[0], FpsSampler::kSerialVersion);
}

TEST(FpsSampler, DimensionMismatchRejected) {
  FpsSampler fps(3, 10);
  EXPECT_THROW(fps.add_candidates({{1, {1.0f, 2.0f}}}), util::Error);
}

TEST(FpsSampler, InvalidConstructionRejected) {
  EXPECT_THROW(FpsSampler(0, 10), util::Error);
  EXPECT_THROW(FpsSampler(3, 0), util::Error);
}

}  // namespace
}  // namespace mummi::ml
