#include "wm/insitu.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/bytes.hpp"

namespace mummi::wm {
namespace {

// Canonical byte encoding of one fold callback's payload — what the
// determinism sweeps compare across pool sizes and plane rebuilds.
util::Bytes encode(const InSituResult& r) {
  util::ByteWriter w;
  w.u64(r.sim);
  w.bytes(r.frame.serialize());
  w.u32(r.candidates);
  w.u64(r.extra.size());
  for (const auto& d : r.extra)
    for (float v : d) w.f32(v);
  w.bytes(r.rdfs.serialize());
  return std::move(w).take();
}

// Runs a fixed three-tick schedule (growing, then shrinking payload sets)
// and returns the concatenated fold bytes plus the reported fold_ns sum.
util::Bytes run_schedule(InSituPlane& plane) {
  const std::vector<std::vector<std::uint64_t>> ticks = {
      {2, 3, 5, 8, 13, 21},
      {2, 3, 5, 8, 13, 21, 34, 55, 89},
      {3, 8, 34, 89},
  };
  util::ByteWriter w;
  std::uint64_t key = 0x51c1a9a0feedULL;
  for (const auto& payloads : ticks) {
    plane.tick(payloads, key, 2.5,
               [&](const InSituResult& r) { w.bytes(encode(r)); });
    key = key * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return std::move(w).take();
}

TEST(InSitu, FoldAscendingAndComplete) {
  InSituPlane plane(99);
  const std::vector<std::uint64_t> payloads{4, 7, 11, 200, 5000};
  std::vector<std::uint64_t> seen;
  plane.tick(payloads, 17, 1.0,
             [&](const InSituResult& r) { seen.push_back(r.sim); });
  EXPECT_EQ(seen, payloads);
  EXPECT_EQ(plane.active_sims(), payloads.size());
}

TEST(InSitu, PrunesDepartedSims) {
  InSituPlane plane(99);
  plane.tick({1, 2, 3, 4}, 1, 1.0, [](const InSituResult&) {});
  EXPECT_EQ(plane.active_sims(), 4u);
  plane.tick({2, 4}, 2, 1.0, [](const InSituResult&) {});
  EXPECT_EQ(plane.active_sims(), 2u);
  plane.tick({}, 3, 1.0, [](const InSituResult&) {});
  EXPECT_EQ(plane.active_sims(), 0u);
}

TEST(InSitu, ExtraDescriptorsMatchCandidateCount) {
  InSituPlane plane(7);
  plane.tick({1, 2, 3, 4, 5, 6, 7, 8}, 42, 4.0, [](const InSituResult& r) {
    if (r.candidates == 0)
      EXPECT_TRUE(r.extra.empty());
    else
      EXPECT_EQ(r.extra.size(), static_cast<std::size_t>(r.candidates) - 1);
    EXPECT_EQ(r.rdfs.per_species.size(), 4u);
    for (const auto& rdf : r.rdfs.per_species) EXPECT_EQ(rdf.frames(), 1u);
  });
}

TEST(InSitu, FramesAreFinitePhysicalDescriptors) {
  InSituPlane plane(3);
  plane.tick({10, 20, 30}, 5, 1.0, [](const InSituResult& r) {
    EXPECT_GE(r.frame.tilt, 0.0f);
    EXPECT_LE(r.frame.tilt, 90.0f);
    EXPECT_GE(r.frame.rotation, 0.0f);
    EXPECT_LT(r.frame.rotation, 360.0f);
    EXPECT_GE(r.frame.separation, 0.0f);
    EXPECT_EQ(r.frame.sim_id, r.sim);
  });
}

TEST(InSitu, StreamSeedLanesAndNeighborsDiffer) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t sim : {0ull, 1ull, 2ull})
    for (std::uint64_t tick : {0ull, 1ull})
      for (std::uint64_t lane : {0ull, 1ull})
        seen.insert(InSituPlane::stream_seed(12345, sim, tick, lane));
  EXPECT_EQ(seen.size(), 12u);  // no collisions among nearby streams
}

TEST(InSitu, TickOutputStatelessAcrossRebuild) {
  // A plane rebuilt after a crash-restart replays identical folds: output is
  // a pure function of (seed, payloads, tick_key, candidate_mean), not of
  // which ticks ran before.
  InSituPlane warm(42);
  warm.tick({1, 2, 3}, 100, 2.0, [](const InSituResult&) {});
  warm.tick({1, 2, 3, 4}, 200, 2.0, [](const InSituResult&) {});
  util::ByteWriter warm_bytes, cold_bytes;
  warm.tick({1, 2, 3, 4}, 300, 2.0,
            [&](const InSituResult& r) { warm_bytes.bytes(encode(r)); });
  InSituPlane cold(42);
  cold.tick({1, 2, 3, 4}, 300, 2.0,
            [&](const InSituResult& r) { cold_bytes.bytes(encode(r)); });
  EXPECT_EQ(std::move(warm_bytes).take(), std::move(cold_bytes).take());
}

// CgAnalysis-backed thread-sweep determinism. The whole in-situ fan-out
// (stepping, CgAnalysis::analyze, RdfSet accumulation, candidate draws) must
// be byte-identical at pool sizes 1, 2, 3, 4 and 8.
TEST(InSituProperty, ThreadSweepBitIdentical) {
  InSituPlane serial_plane(2024);
  const util::Bytes want = run_schedule(serial_plane);
  EXPECT_FALSE(want.empty());
  for (const std::size_t nthreads : {1u, 2u, 3u, 4u, 8u}) {
    util::ThreadPool pool(nthreads);
    InSituPlane plane(2024, &pool);
    EXPECT_EQ(run_schedule(plane), want) << "pool size " << nthreads;
  }
}

TEST(InSituProperty, ChunkBoundarySimCounts) {
  // Payload counts straddling the fan-out block seams — one block up to 16
  // sims, 16-sim blocks up to 512, then at most 32 blocks of ceil(n/32): the
  // fold must stay ascending and complete, and match the serial plane byte
  // for byte.
  util::ThreadPool pool(4);
  InSituPlane plane(5, &pool);
  InSituPlane serial(5);
  for (const std::size_t n : {15u, 16u, 17u, 511u, 512u, 513u, 2200u}) {
    std::vector<std::uint64_t> payloads(n);
    for (std::size_t i = 0; i < n; ++i) payloads[i] = 10 * (i + 1);
    std::vector<std::uint64_t> seen;
    util::ByteWriter got, want;
    plane.tick(payloads, n, 1.5, [&](const InSituResult& r) {
      seen.push_back(r.sim);
      got.bytes(encode(r));
    });
    serial.tick(payloads, n, 1.5,
                [&](const InSituResult& r) { want.bytes(encode(r)); });
    EXPECT_EQ(seen, payloads) << "n=" << n;
    EXPECT_EQ(std::move(got).take(), std::move(want).take()) << "n=" << n;
  }
}

TEST(InSituProperty, TickRdfsEqualAscendingPerSimMerge) {
  // The plane sums RDFs per block on the workers and merges the block
  // partials; that must equal merging every sim's RDFs in ascending order on
  // one thread (and in descending order: the sums are exact), byte for byte,
  // on every pool size and across the block seams — including a tick that
  // shrinks after the largest one.
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  std::vector<std::unique_ptr<InSituPlane>> planes;
  planes.push_back(std::make_unique<InSituPlane>(11));
  for (const std::size_t nthreads : {1u, 2u, 3u, 4u, 8u}) {
    pools.push_back(std::make_unique<util::ThreadPool>(nthreads));
    planes.push_back(std::make_unique<InSituPlane>(11, pools.back().get()));
  }
  for (const std::size_t n :
       {15u, 16u, 17u, 511u, 512u, 513u, 2200u, 17u}) {
    std::vector<std::uint64_t> payloads(n);
    for (std::size_t i = 0; i < n; ++i) payloads[i] = 7 * i + 3;
    for (std::size_t p = 0; p < planes.size(); ++p) {
      std::vector<coupling::RdfSet> per_sim;
      planes[p]->tick(payloads, 1000 + n, 1.5, [&](const InSituResult& r) {
        per_sim.push_back(r.rdfs);
      });
      ASSERT_EQ(per_sim.size(), n);
      coupling::RdfSet ascending = per_sim.front();
      for (std::size_t i = 1; i < n; ++i) ascending.merge(per_sim[i]);
      coupling::RdfSet descending = per_sim.back();
      for (std::size_t i = n - 1; i-- > 0;) descending.merge(per_sim[i]);
      const util::Bytes got = planes[p]->rdfs().serialize();
      EXPECT_EQ(got, ascending.serialize()) << "n=" << n << " plane " << p;
      EXPECT_EQ(got, descending.serialize()) << "n=" << n << " plane " << p;
      for (const auto& rdf : planes[p]->rdfs().per_species)
        EXPECT_EQ(rdf.frames(), n);
    }
  }
}

TEST(InSitu, FoldThrowMidTickLeavesPlaneReusable) {
  // A fold that throws partway through a pooled tick must not strand a
  // block task on the pool, and the plane's next tick must still match a
  // fresh plane's (output is stateless per tick).
  util::ThreadPool pool(4);
  InSituPlane plane(77, &pool);
  std::vector<std::uint64_t> payloads(300);
  for (std::size_t i = 0; i < payloads.size(); ++i) payloads[i] = 3 * i + 1;
  std::size_t folded = 0;
  EXPECT_THROW(plane.tick(payloads, 9, 2.0,
                          [&](const InSituResult&) {
                            if (++folded == 100)
                              throw std::runtime_error("fold");
                          }),
               std::runtime_error);
  pool.wait_idle();
  EXPECT_EQ(folded, 100u);

  util::ByteWriter got, want;
  plane.tick(payloads, 10, 2.0,
             [&](const InSituResult& r) { got.bytes(encode(r)); });
  InSituPlane fresh(77);
  fresh.tick(payloads, 10, 2.0,
             [&](const InSituResult& r) { want.bytes(encode(r)); });
  EXPECT_EQ(std::move(got).take(), std::move(want).take());
}

TEST(EnginePins, InSituTickFoldBytes) {
  // One tick's fold bytes on the default miniature system: its bead counts,
  // box and RDF binning all feed them.
  InSituPlane plane(2024);
  util::ByteWriter w;
  plane.tick({2, 3, 5, 8, 13, 21, 34}, 0x51c1a9a0feedULL, 2.5,
             [&](const InSituResult& r) { w.bytes(encode(r)); });
  const util::Bytes bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), 11086u);
  EXPECT_EQ(util::fnv1a(bytes.data(), bytes.size()), 15466334171489437587ULL);
}

}  // namespace
}  // namespace mummi::wm
