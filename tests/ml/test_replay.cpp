// Exact replay (Sec. 4.4) needs no recorded history: a sampler is a pure
// function of its construction arguments and its add/select calls, so a
// fresh sampler fed the same sequence picks the same ids, and a rejected
// batch leaves nothing behind that the sequence would not show.

#include <gtest/gtest.h>

#include "ml/binned_sampler.hpp"
#include "ml/fps_sampler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mummi::ml {
namespace {

/// Feeds both samplers the same interleaved random batches and picks and
/// expects the same ids from each pick.
template <typename Sampler, typename MakePoint>
void expect_same_picks(Sampler& a, Sampler& b, int rounds, int batch_size,
                       std::size_t picks, MakePoint make_point) {
  PointId next = 1;
  for (int round = 0; round < rounds; ++round) {
    std::vector<HDPoint> batch;
    for (int i = 0; i < batch_size; ++i) batch.push_back(make_point(next++));
    a.add_candidates(batch);
    b.add_candidates(batch);
    const auto pa = a.select(picks);
    const auto pb = b.select(picks);
    ASSERT_EQ(pa.size(), picks);
    ASSERT_EQ(pb.size(), pa.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
      EXPECT_EQ(pb[i].id, pa[i].id) << round;
  }
  EXPECT_EQ(b.candidate_count(), a.candidate_count());
  EXPECT_EQ(b.selected_count(), a.selected_count());
}

TEST(Replay, FpsHistoryReplaysExactly) {
  FpsSampler original(3, 1000), fresh(3, 1000);
  util::Rng rng(11);
  expect_same_picks(original, fresh, 5, 30, 4, [&rng](PointId id) {
    return HDPoint{id, {static_cast<float>(rng.normal()),
                        static_cast<float>(rng.normal()),
                        static_cast<float>(rng.normal())}};
  });
  // The two samplers continue identically.
  const auto a = original.select(3);
  const auto b = fresh.select(3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(Replay, BinnedHistoryReplaysExactly) {
  const std::vector<std::vector<float>> edges{{0.5f}, {0.5f}, {0.5f}};
  BinnedSampler original(edges, 0.7, 42);
  BinnedSampler fresh(edges, 0.7, 42);  // same seed: same random stream
  util::Rng rng(5);
  expect_same_picks(original, fresh, 4, 25, 3, [&rng](PointId id) {
    return HDPoint{id, {static_cast<float>(rng.uniform()),
                        static_cast<float>(rng.uniform()),
                        static_cast<float>(rng.uniform())}};
  });
  EXPECT_EQ(fresh.selected_histogram(), original.selected_histogram());
}

/// A batch holding one point of the wrong dimension must be rejected whole:
/// a partial add would leave state that replaying the call sequence cannot
/// reproduce.
template <typename Sampler>
void expect_bad_batch_rejected_whole(Sampler& sampler,
                                     const std::vector<HDPoint>& bad) {
  EXPECT_THROW(sampler.add_candidates(bad), util::Error);
  EXPECT_EQ(sampler.candidate_count(), 0u);
  EXPECT_EQ(sampler.selected_count(), 0u);
}

TEST(Replay, BadBatchAddsNothingAndRecordsNothing) {
  FpsSampler fps(2, 100);
  expect_bad_batch_rejected_whole(fps, {{1, {0, 0}}, {2, {1, 1, 1}}});
  BinnedSampler binned({{0.5f}, {0.5f}, {0.5f}}, 0.7, 42);
  expect_bad_batch_rejected_whole(binned, {{1, {0, 0, 0}}, {2, {1, 1}}});
}

}  // namespace
}  // namespace mummi::ml
