#include "ml/replay.hpp"

#include <gtest/gtest.h>

#include <map>

#include "ml/binned_sampler.hpp"
#include "ml/fps_sampler.hpp"
#include "util/rng.hpp"

namespace mummi::ml {
namespace {

/// Simulates the archive: candidate payloads retrievable by id.
struct Archive {
  std::map<PointId, HDPoint> points;
  [[nodiscard]] CandidateLookup lookup() const {
    return [this](PointId id) { return points.at(id); };
  }
};

Archive run_fps_session(FpsSampler& fps, int rounds, std::uint64_t seed) {
  Archive archive;
  util::Rng rng(seed);
  PointId next = 1;
  for (int round = 0; round < rounds; ++round) {
    std::vector<HDPoint> batch;
    for (int i = 0; i < 30; ++i) {
      HDPoint p;
      p.id = next++;
      p.coords = {static_cast<float>(rng.normal()),
                  static_cast<float>(rng.normal()),
                  static_cast<float>(rng.normal())};
      archive.points[p.id] = p;
      batch.push_back(std::move(p));
    }
    fps.add_candidates(batch);
    (void)fps.select(4);
  }
  return archive;
}

TEST(Replay, FpsHistoryReplaysExactly) {
  FpsSampler original(3, 1000);
  const Archive archive = run_fps_session(original, 5, 11);

  FpsSampler fresh(3, 1000);
  replay_history(fresh, original.history(), archive.lookup());
  EXPECT_EQ(fresh.candidate_count(), original.candidate_count());
  EXPECT_EQ(fresh.selected_count(), original.selected_count());
  // The replayed sampler continues identically.
  const auto a = original.select(3);
  const auto b = fresh.select(3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
}

TEST(Replay, BinnedHistoryReplaysExactly) {
  const std::vector<std::vector<float>> edges{{0.5f}, {0.5f}, {0.5f}};
  BinnedSampler original(edges, 0.7, 42);
  Archive archive;
  util::Rng rng(5);
  PointId next = 1;
  for (int round = 0; round < 4; ++round) {
    std::vector<HDPoint> batch;
    for (int i = 0; i < 25; ++i) {
      HDPoint p;
      p.id = next++;
      p.coords = {static_cast<float>(rng.uniform()),
                  static_cast<float>(rng.uniform()),
                  static_cast<float>(rng.uniform())};
      archive.points[p.id] = p;
      batch.push_back(std::move(p));
    }
    original.add_candidates(batch);
    (void)original.select(3);
  }

  BinnedSampler fresh(edges, 0.7, 42);  // same seed: same random stream
  replay_history(fresh, original.history(), archive.lookup());
  EXPECT_EQ(fresh.selected_histogram(), original.selected_histogram());
}

TEST(Replay, VerifyCatchesConfigurationDrift) {
  FpsSampler original(3, 1000);
  const Archive archive = run_fps_session(original, 3, 13);
  // Replaying onto a sampler with a different capacity changes eviction and
  // thus selections; verification must notice once behaviour diverges.
  FpsSampler drifted(3, 5);
  EXPECT_THROW(
      replay_history(drifted, original.history(), archive.lookup()),
      util::Error);
}

TEST(Replay, RequiresFreshSampler) {
  FpsSampler original(3, 100);
  const Archive archive = run_fps_session(original, 1, 17);
  FpsSampler dirty(3, 100);
  dirty.add_candidates({{999, {1, 2, 3}}});
  EXPECT_THROW(replay_history(dirty, original.history(), archive.lookup()),
               util::Error);
}

/// A batch holding one point of the wrong dimension must be rejected whole:
/// a partial add that history() does not record would make replay diverge.
void expect_bad_batch_rejected_whole(Sampler& sampler,
                                     const std::vector<HDPoint>& bad) {
  EXPECT_THROW(sampler.add_candidates(bad), util::Error);
  EXPECT_EQ(sampler.candidate_count(), 0u);
  EXPECT_TRUE(sampler.history().empty());
}

TEST(Replay, BadBatchAddsNothingAndRecordsNothing) {
  FpsSampler fps(2, 100);
  expect_bad_batch_rejected_whole(fps, {{1, {0, 0}}, {2, {1, 1, 1}}});
  BinnedSampler binned({{0.5f}, {0.5f}, {0.5f}}, 0.7, 42);
  expect_bad_batch_rejected_whole(binned, {{1, {0, 0, 0}}, {2, {1, 1}}});
}

TEST(Replay, EmptyBatchRecordsOneEmptyAddEvent) {
  FpsSampler fps(2, 100);
  BinnedSampler binned({{0.5f}, {0.5f}, {0.5f}}, 0.7, 42);
  for (Sampler* sampler : {static_cast<Sampler*>(&fps),
                           static_cast<Sampler*>(&binned)}) {
    sampler->add_candidates(std::vector<HDPoint>{});
    ASSERT_EQ(sampler->history().size(), 1u);
    EXPECT_EQ(sampler->history()[0].op, 'A');
    EXPECT_TRUE(sampler->history()[0].ids.empty());
    EXPECT_EQ(sampler->candidate_count(), 0u);
  }
}

TEST(Replay, HistoryOffRecordsNothingHistoryOnCopiesIds) {
  FpsSampler fps(2, 100);
  BinnedSampler binned({{0.5f}, {0.5f}, {0.5f}}, 0.7, 42);
  const std::vector<HDPoint> fps_batch{{7, {0, 0}}, {9, {1, 1}}};
  const std::vector<HDPoint> binned_batch{{7, {0, 0, 0}}, {9, {1, 1, 1}}};
  for (Sampler* sampler : {static_cast<Sampler*>(&fps),
                           static_cast<Sampler*>(&binned)}) {
    const auto& batch = sampler == &fps ? fps_batch : binned_batch;
    sampler->set_history_enabled(false);
    sampler->add_candidates(batch);
    (void)sampler->select(1);
    EXPECT_TRUE(sampler->history().empty());
    sampler->set_history_enabled(true);
    sampler->add_candidates(batch);
    const auto picked = sampler->select(1);
    ASSERT_EQ(sampler->history().size(), 2u);
    EXPECT_EQ(sampler->history()[0].op, 'A');
    EXPECT_EQ(sampler->history()[0].ids, (std::vector<PointId>{7, 9}));
    EXPECT_EQ(sampler->history()[1].op, 'S');
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(sampler->history()[1].ids, std::vector<PointId>{picked[0].id});
  }
}

TEST(Replay, HistorySerializationRoundTrip) {
  FpsSampler original(3, 1000);
  const Archive archive = run_fps_session(original, 4, 19);
  const auto bytes = serialize_history(original.history());
  const auto history = deserialize_history(bytes);
  ASSERT_EQ(history.size(), original.history().size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].op, original.history()[i].op);
    EXPECT_EQ(history[i].ids, original.history()[i].ids);
  }
  // The deserialized history still replays.
  FpsSampler fresh(3, 1000);
  replay_history(fresh, history, archive.lookup());
  EXPECT_EQ(fresh.selected_count(), original.selected_count());
}

}  // namespace
}  // namespace mummi::ml
