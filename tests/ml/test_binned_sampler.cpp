#include "ml/binned_sampler.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"

namespace mummi::ml {
namespace {

std::vector<std::vector<float>> edges_3d() {
  // 3 x 2 x 2 = 12 bins.
  return {{1.0f, 2.0f}, {10.0f}, {100.0f}};
}

std::vector<HDPoint> corner_points(int per_corner) {
  std::vector<HDPoint> out;
  PointId id = 1;
  const float lo[3] = {0.5f, 5.0f, 50.0f};
  const float hi[3] = {2.5f, 15.0f, 150.0f};
  for (int corner = 0; corner < 2; ++corner)
    for (int i = 0; i < per_corner; ++i) {
      const float* c = corner ? hi : lo;
      out.push_back({id++, {c[0], c[1], c[2]}});
    }
  return out;
}

TEST(BinnedSampler, BinOfRespectsEdges) {
  BinnedSampler s(edges_3d(), 1.0, 1);
  EXPECT_EQ(s.n_bins(), 12u);
  // Dimension strides: d0 in {0,1,2}, d1 in {0,1}, d2 in {0,1}.
  EXPECT_EQ(s.bin_of({0.5f, 5.0f, 50.0f}), 0u);
  EXPECT_EQ(s.bin_of({0.5f, 5.0f, 150.0f}), 1u);
  EXPECT_EQ(s.bin_of({0.5f, 15.0f, 50.0f}), 2u);
  EXPECT_EQ(s.bin_of({1.5f, 5.0f, 50.0f}), 4u);
  EXPECT_EQ(s.bin_of({2.5f, 15.0f, 150.0f}), 11u);
}

TEST(BinnedSampler, AddAndSelectAll) {
  BinnedSampler s(edges_3d(), 1.0, 7);
  s.add_candidates(corner_points(5));
  EXPECT_EQ(s.candidate_count(), 10u);
  std::set<PointId> seen;
  for (const auto& p : s.select(20)) EXPECT_TRUE(seen.insert(p.id).second);
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(s.candidate_count(), 0u);
  EXPECT_EQ(s.selected_count(), 10u);
}

TEST(BinnedSampler, PureImportanceBalancesBins) {
  // Two populated bins, one with 10x the candidates. Importance-only
  // selection alternates bins (least-selected first), so after 10 picks each
  // bin contributed ~5 — not proportional to occupancy.
  BinnedSampler s(edges_3d(), 1.0, 3);
  std::vector<HDPoint> pts;
  PointId id = 1;
  for (int i = 0; i < 100; ++i) pts.push_back({id++, {0.5f, 5.0f, 50.0f}});
  for (int i = 0; i < 10; ++i) pts.push_back({id++, {2.5f, 15.0f, 150.0f}});
  s.add_candidates(pts);
  (void)s.select(10);
  const auto& hist = s.selected_histogram();
  EXPECT_EQ(hist[0], 5u);
  EXPECT_EQ(hist[11], 5u);
}

TEST(BinnedSampler, PureRandomnessFollowsOccupancy) {
  BinnedSampler s(edges_3d(), 0.0, 11);
  std::vector<HDPoint> pts;
  PointId id = 1;
  for (int i = 0; i < 900; ++i) pts.push_back({id++, {0.5f, 5.0f, 50.0f}});
  for (int i = 0; i < 100; ++i) pts.push_back({id++, {2.5f, 15.0f, 150.0f}});
  s.add_candidates(pts);
  (void)s.select(200);
  const auto& hist = s.selected_histogram();
  // ~90/10 split within generous tolerance.
  EXPECT_GT(hist[0], 150u);
  EXPECT_LT(hist[11], 50u);
}

TEST(BinnedSampler, MixedImportanceBetweenExtremes) {
  BinnedSampler s(edges_3d(), 0.5, 13);
  std::vector<HDPoint> pts;
  PointId id = 1;
  for (int i = 0; i < 900; ++i) pts.push_back({id++, {0.5f, 5.0f, 50.0f}});
  for (int i = 0; i < 100; ++i) pts.push_back({id++, {2.5f, 15.0f, 150.0f}});
  s.add_candidates(pts);
  (void)s.select(200);
  const auto rare = s.selected_histogram()[11];
  // Far more than the occupancy-proportional share (~20): the importance
  // component keeps boosting the rare bin while it stays least-selected.
  EXPECT_GT(rare, 40u);
  EXPECT_LE(rare, 100u);  // cannot exceed the bin's population
  EXPECT_GT(s.selected_histogram()[0], 90u);  // the dense bin got the rest
}

TEST(BinnedSampler, SelectFromEmptyReturnsNothing) {
  BinnedSampler s(edges_3d(), 0.8, 1);
  EXPECT_TRUE(s.select(5).empty());
}

TEST(BinnedSampler, DeterministicForSeed) {
  BinnedSampler a(edges_3d(), 0.6, 21), b(edges_3d(), 0.6, 21);
  a.add_candidates(corner_points(20));
  b.add_candidates(corner_points(20));
  for (int i = 0; i < 20; ++i) {
    const auto pa = a.select(1);
    const auto pb = b.select(1);
    ASSERT_FALSE(pa.empty());
    EXPECT_EQ(pa[0].id, pb[0].id);
  }
}

TEST(BinnedSampler, SelectedPointCarriesCoords) {
  BinnedSampler s(edges_3d(), 1.0, 1);
  s.add_candidates({{42, {1.5f, 12.0f, 120.0f}}});
  const auto picked = s.select(1);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0].id, 42u);
  EXPECT_EQ(picked[0].coords, (std::vector<float>{1.5f, 12.0f, 120.0f}));
}

TEST(BinnedSampler, SerializeRoundTrip) {
  BinnedSampler a(edges_3d(), 0.7, 5);
  a.add_candidates(corner_points(10));
  (void)a.select(5);
  util::ByteWriter state;
  a.serialize(state);
  util::ByteReader r(state.data());
  BinnedSampler b = BinnedSampler::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(b.candidate_count(), a.candidate_count());
  EXPECT_EQ(b.selected_count(), a.selected_count());
  EXPECT_EQ(b.selected_histogram(), a.selected_histogram());
  EXPECT_EQ(b.n_bins(), a.n_bins());
}

TEST(BinnedSampler, RestoredSamplerContinuesExactStream) {
  // v2 persists the RNG state: a restored sampler must make the same picks
  // as the original would have, not restart its random stream.
  BinnedSampler a(edges_3d(), 0.5, 17);
  a.add_candidates(corner_points(40));
  (void)a.select(9);  // advance the RNG mid-stream
  util::ByteWriter state;
  a.serialize(state);
  util::ByteReader r(state.data());
  BinnedSampler b = BinnedSampler::deserialize(r);
  for (int round = 0; round < 6; ++round) {
    const auto want = a.select(4);
    const auto got = b.select(4);
    ASSERT_EQ(got.size(), want.size()) << round;
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i].id, want[i].id) << round;
  }
}

TEST(BinnedSampler, DeserializeRejectsVersionMismatch) {
  BinnedSampler a(edges_3d(), 0.5, 1);
  util::ByteWriter w;
  a.serialize(w);
  auto bytes = std::move(w).take();
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], BinnedSampler::kSerialVersion);
  bytes[0] = 1;  // masquerade as an older format
  util::ByteReader r(bytes);
  EXPECT_THROW((void)BinnedSampler::deserialize(r), util::FormatError);
}

/// A well-formed binned-sampler stream that declares `edges` but carries no
/// bins: a shape claimed without the bytes to back it.
util::Bytes stream_without_bins(const std::vector<std::vector<float>>& edges) {
  util::ByteWriter w;
  w.u8(BinnedSampler::kSerialVersion);
  w.u32(static_cast<std::uint32_t>(edges.size()));
  for (const auto& e : edges) w.vec(e);
  w.f64(0.5);  // importance
  for (std::uint64_t word = 1; word <= 4; ++word) w.u64(word);
  w.u8(0);  // no spare normal
  w.f64(0.0);
  w.u64(0);  // selected count
  w.vec(std::vector<std::uint64_t>{});  // selected per bin
  w.u64(0);  // bin count
  return std::move(w).take();
}

TEST(BinnedSampler, DeserializeRejectsForgedShapes) {
  // 64 dimensions of one edge each: 2^64 bins wraps to 0, and a sampler
  // without bins would index an empty table on its first add.
  const auto wrap =
      stream_without_bins(std::vector<std::vector<float>>(64, {0.5f}));
  util::ByteReader r_wrap(wrap);
  EXPECT_THROW((void)BinnedSampler::deserialize(r_wrap), util::FormatError);

  const auto no_dims = stream_without_bins({});
  util::ByteReader r_no_dims(no_dims);
  EXPECT_THROW((void)BinnedSampler::deserialize(r_no_dims), util::FormatError);

  // 12 bins declared, none carried.
  const auto short_bins = stream_without_bins(edges_3d());
  util::ByteReader r_short(short_bins);
  EXPECT_THROW((void)BinnedSampler::deserialize(r_short), util::FormatError);
}

TEST(BinnedSampler, InvalidConstructionRejected) {
  EXPECT_THROW(BinnedSampler({}, 0.5, 1), util::Error);
  EXPECT_THROW(BinnedSampler({{2.0f, 1.0f}}, 0.5, 1), util::Error);
  EXPECT_THROW(BinnedSampler({{1.0f}}, 1.5, 1), util::Error);
}

TEST(BinnedSampler, DimensionMismatchRejected) {
  BinnedSampler s(edges_3d(), 0.5, 1);
  EXPECT_THROW(s.add_candidates({{1, {1.0f}}}), util::Error);
}

TEST(BinnedSampler, LargeVolumeSmokeTest) {
  // The paper's Frame Selector handled 9M candidates; exercise 200k here to
  // keep test time low while validating memory-lean storage.
  BinnedSampler s(edges_3d(), 0.8, 3);
  std::vector<HDPoint> batch;
  batch.reserve(10000);
  PointId id = 1;
  util::Rng rng(3);
  for (int b = 0; b < 20; ++b) {
    batch.clear();
    for (int i = 0; i < 10000; ++i)
      batch.push_back({id++,
                       {static_cast<float>(rng.uniform(0, 3)),
                        static_cast<float>(rng.uniform(0, 20)),
                        static_cast<float>(rng.uniform(0, 200))}});
    s.add_candidates(batch);
  }
  EXPECT_EQ(s.candidate_count(), 200000u);
  EXPECT_EQ(s.select(1000).size(), 1000u);
}

}  // namespace
}  // namespace mummi::ml
