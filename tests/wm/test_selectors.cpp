#include "wm/selectors.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace mummi::wm {
namespace {

ml::PointStore points9d(int n, ml::PointId base, float offset) {
  ml::PointStore out(9);
  for (int i = 0; i < n; ++i) {
    const std::vector<float> coords(9, offset + 0.1f * static_cast<float>(i));
    out.add(base + static_cast<ml::PointId>(i), coords);
  }
  return out;
}

TEST(PatchSelector, FiveQueuesIngestIndependently) {
  PatchSelector sel(9, 5, 35000);
  EXPECT_EQ(sel.n_queues(), 5);
  for (int q = 0; q < 5; ++q)
    sel.add(q, points9d(10, static_cast<ml::PointId>(q) * 100, q * 1.0f));
  EXPECT_EQ(sel.candidate_count(), 50u);
  EXPECT_EQ(sel.selected_count(), 0u);
}

TEST(PatchSelector, RoundRobinAcrossQueues) {
  PatchSelector sel(9, 3, 1000);
  sel.add(0, points9d(5, 0, 0.0f));
  sel.add(1, points9d(5, 100, 1.0f));
  sel.add(2, points9d(5, 200, 2.0f));
  const auto picks = sel.select(6);
  ASSERT_EQ(picks.size(), 6u);
  std::set<int> queues_first3{picks[0].queue, picks[1].queue, picks[2].queue};
  EXPECT_EQ(queues_first3.size(), 3u);  // one from each queue
}

TEST(PatchSelector, SkipsEmptyQueues) {
  PatchSelector sel(9, 4, 1000);
  sel.add(2, points9d(3, 0, 0.0f));
  const auto picks = sel.select(3);
  EXPECT_EQ(picks.size(), 3u);
  for (const auto& p : picks) EXPECT_EQ(p.queue, 2);
  EXPECT_TRUE(sel.select(1).empty());
}

TEST(PatchSelector, CapacityPerQueue) {
  PatchSelector sel(9, 2, 20);
  sel.add(0, points9d(50, 0, 0.0f));
  sel.update_ranks();
  EXPECT_LE(sel.candidate_count(), 20u);
}

TEST(PatchSelector, QueueOutOfRangeRejected) {
  PatchSelector sel(9, 5, 100);
  EXPECT_THROW(sel.add(5, points9d(1, 0, 0.0f)), util::Error);
  EXPECT_THROW(sel.add(-1, points9d(1, 0, 0.0f)), util::Error);
}

TEST(PatchSelector, SerializeRestoreRoundTrip) {
  PatchSelector sel(9, 3, 100);
  for (int q = 0; q < 3; ++q) sel.add(q, points9d(8, q * 50u, q * 1.0f));
  (void)sel.select(4);
  util::ByteWriter state;
  sel.serialize(state);

  PatchSelector restored(9, 3, 100);
  util::ByteReader r(state.data());
  restored.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.candidate_count(), sel.candidate_count());
  EXPECT_EQ(restored.selected_count(), sel.selected_count());
  // Future selections agree.
  for (int i = 0; i < 5; ++i) {
    const auto a = sel.select(1);
    const auto b = restored.select(1);
    ASSERT_EQ(a.size(), b.size());
    if (!a.empty()) {
      EXPECT_EQ(a[0].point.id, b[0].point.id);
      EXPECT_EQ(a[0].queue, b[0].queue);
    }
  }
}

TEST(PatchSelector, RestoreRejectsQueueMismatch) {
  PatchSelector a(9, 3, 100), b(9, 5, 100);
  util::ByteWriter state;
  a.serialize(state);
  util::ByteReader r(state.data());
  EXPECT_THROW(b.restore(r), util::Error);
}

TEST(PatchSelector, ConcurrentAddAndSelect) {
  // Selectors are shared between the selection task and the feedback task
  // (paper: "thread-safe objects ... blocking and nonblocking locks").
  PatchSelector sel(9, 5, 10000);
  std::thread adder([&] {
    for (int i = 0; i < 50; ++i)
      sel.add(i % 5, points9d(20, static_cast<ml::PointId>(i) * 1000, 0.5f));
  });
  std::thread selector([&] {
    std::size_t got = 0;
    while (got < 100) got += sel.select(10).size();
  });
  adder.join();
  selector.join();
  EXPECT_EQ(sel.selected_count(), 100u);
}

TEST(FrameSelector, AddSelectBasics) {
  FrameSelector sel(0.8, 7);
  std::vector<ml::HDPoint> frames;
  for (int i = 0; i < 100; ++i)
    frames.push_back({static_cast<ml::PointId>(i),
                      {static_cast<float>(i % 90), static_cast<float>(i * 3.6),
                       0.5f + 0.02f * static_cast<float>(i % 10)}});
  sel.add(ml::PointStore::from_points(frames, sel.dim()));
  EXPECT_EQ(sel.candidate_count(), 100u);
  const auto picks = sel.select(10);
  EXPECT_EQ(picks.size(), 10u);
  EXPECT_EQ(sel.selected_count(), 10u);
  EXPECT_EQ(sel.candidate_count(), 90u);
}

TEST(FrameSelector, SerializeRestoreRoundTrip) {
  FrameSelector sel(0.8, 7);
  std::vector<ml::HDPoint> frames;
  for (int i = 0; i < 50; ++i)
    frames.push_back({static_cast<ml::PointId>(i),
                      {30.0f, 100.0f, 1.0f}});
  sel.add(ml::PointStore::from_points(frames, sel.dim()));
  (void)sel.select(5);
  util::ByteWriter state;
  sel.serialize(state);
  FrameSelector restored(0.8, 7);
  util::ByteReader r(state.data());
  restored.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.candidate_count(), 45u);
  EXPECT_EQ(restored.selected_count(), 5u);
}

TEST(FrameSelector, DescriptorRangesLandInDistinctBins) {
  FrameSelector sel(1.0, 1);
  // Extremes of the (tilt, rotation, separation) space.
  sel.add(ml::PointStore::from_points(
      {{1, {5.0f, 10.0f, 0.2f}}, {2, {85.0f, 350.0f, 2.8f}}}, sel.dim()));
  const auto picks = sel.select(2);
  EXPECT_EQ(picks.size(), 2u);
}

TEST(PatchSelector, TruncatedRestoreLeavesTheSelectorUnchanged) {
  PatchSelector source(9, 3, 100);
  for (int q = 0; q < 3; ++q) source.add(q, points9d(8, q * 50u, q * 1.0f));
  (void)source.select(4);
  util::ByteWriter state;
  source.serialize(state);
  const util::Bytes cut(state.data().begin(), state.data().end() - 4);

  PatchSelector sel(9, 3, 100);
  sel.add(2, points9d(5, 500u, 7.0f));
  (void)sel.select(2);
  util::ByteWriter before;
  sel.serialize(before);
  util::ByteReader r(cut);
  EXPECT_THROW(sel.restore(r), util::FormatError);
  util::ByteWriter after;
  sel.serialize(after);
  EXPECT_EQ(after.data(), before.data());
}

TEST(PatchSelector, RestoreRejectsNextQueueOutOfRange) {
  PatchSelector source(9, 3, 100);
  util::ByteWriter state;
  source.serialize(state);
  util::Bytes forged = state.data();
  forged[4] = 3;  // next_queue, a u32 after the queue count
  PatchSelector sel(9, 3, 100);
  util::ByteReader r(forged);
  EXPECT_THROW(sel.restore(r), util::FormatError);
}

}  // namespace
}  // namespace mummi::wm
