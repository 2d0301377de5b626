// The farthest-point selector's rank refresh runs on the pool its owner
// passes (null: serial). Refresh blocks are fixed at 1024 candidates, so the
// selections — and every serialized rank — must be bit-identical on a null
// pool and on 2- and 4-worker pools, including after a PatchSelector
// serialize/restore round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <vector>

#include "ml/fps_sampler.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "wm/selectors.hpp"

namespace mummi {
namespace {

constexpr int kDim = 9;

ml::PointStore random_points(std::size_t n, std::uint64_t first_id,
                             util::Rng& rng) {
  ml::PointStore store(kDim);
  std::vector<float> coords(kDim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& c : coords) c = static_cast<float>(rng.normal());
    store.add(first_id + i, coords);
  }
  return store;
}

// Threads of this process (Linux: one /proc/self/task entry per thread).
std::size_t process_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(begin(tasks), end(tasks)));
}

// Selected ids, then the sampler's full serialized state (ranks included).
util::Bytes fps_session(util::ThreadPool* pool) {
  util::Rng rng(41);
  // Capacity below the candidate count: the refresh also evicts.
  ml::FpsSampler fps(kDim, 4500, pool);
  util::ByteWriter out;
  std::uint64_t next_id = 1;
  for (int round = 0; round < 4; ++round) {
    fps.add_candidates(random_points(1500, next_id, rng));  // 1-5 blocks
    next_id += 1500;
    for (const auto& p : fps.select(40)) out.u64(p.id);
  }
  fps.serialize(out);
  return std::move(out).take();
}

TEST(FpsPool, SelectionsBitIdenticalAcrossPoolSizes) {
  const util::Bytes serial = fps_session(nullptr);
  for (const std::size_t workers : {2u, 4u}) {
    util::ThreadPool pool(workers);
    EXPECT_EQ(fps_session(&pool), serial) << workers << " workers";
  }
}

// Selections from a PatchSelector that is saved after a first phase and
// restored into a fresh selector on `resume_pool` for the second.
util::Bytes patch_session(util::ThreadPool* pool,
                          util::ThreadPool* resume_pool) {
  util::Rng rng(43);
  std::uint64_t next_id = 1;
  util::ByteWriter out;
  auto phase = [&](wm::PatchSelector& sel) {
    for (int q = 0; q < sel.n_queues(); ++q) {
      sel.add(q, random_points(2600, next_id, rng));  // 3 blocks per queue
      next_id += 2600;
    }
    for (const auto& pick : sel.select(60)) {
      out.u64(pick.point.id);
      out.u32(static_cast<std::uint32_t>(pick.queue));
    }
  };
  util::ByteWriter saved;
  {
    wm::PatchSelector sel(kDim, 3, 4000, pool);
    phase(sel);
    sel.serialize(saved);
  }
  const util::Bytes blob = std::move(saved).take();
  util::ByteReader r(blob.data(), blob.size());
  wm::PatchSelector restored(kDim, 3, 4000, resume_pool);
  restored.restore(r);
  phase(restored);
  restored.serialize(out);
  return std::move(out).take();
}

TEST(FpsPool, PatchSelectorRestoreBitIdenticalAcrossPoolSizes) {
  const util::Bytes serial = patch_session(nullptr, nullptr);
  util::ThreadPool two(2), four(4);
  EXPECT_EQ(patch_session(&two, &two), serial);
  EXPECT_EQ(patch_session(&four, &four), serial);
  // Saved on one pool, restored on another (or on none).
  EXPECT_EQ(patch_session(&two, &four), serial);
  EXPECT_EQ(patch_session(&four, nullptr), serial);
}

TEST(FpsPool, RestoredQueuesRefreshOnTheOwnersPool) {
  util::Rng rng(47);
  util::ByteWriter saved;
  {
    wm::PatchSelector sel(kDim, 2, 35000);
    sel.add(0, random_points(3000, 1, rng));
    sel.serialize(saved);
  }
  const util::Bytes blob = std::move(saved).take();
  const std::size_t base = process_threads();
  {
    // A null pool stays on the caller's thread.
    util::ByteReader r(blob.data(), blob.size());
    wm::PatchSelector serial(kDim, 2, 35000);
    serial.restore(r);
    (void)serial.select(5);
    EXPECT_EQ(process_threads(), base);
  }
  // A pool spawns its workers on first use: the restored queues' refresh.
  util::ThreadPool pool(2);
  util::ByteReader r(blob.data(), blob.size());
  wm::PatchSelector restored(kDim, 2, 35000, &pool);
  restored.restore(r);
  EXPECT_EQ(process_threads(), base);
  (void)restored.select(5);
  EXPECT_EQ(process_threads(), base + 2);
}

}  // namespace
}  // namespace mummi
