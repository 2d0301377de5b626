// Determinism contract of the parallel continuum (DDFT) engine: serialized
// frames must be bit-identical at any thread count AND equal to the frames
// pinned from the pre-refactor reference kernels, checkpoints must resume
// the exact trajectory, and untrusted snapshot bytes must be rejected rather
// than laundered into enum tables or huge allocations.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <tuple>
#include <vector>

#include "continuum/gridsim2d.hpp"
#include "continuum/parallel_kernels.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::cont {
namespace {

ContinuumConfig small_config(int grid, std::uint64_t seed, int n_proteins) {
  ContinuumConfig cfg;
  cfg.grid = grid;
  cfg.inner_species = 3;
  cfg.outer_species = 2;
  cfg.n_proteins = n_proteins;
  cfg.seed = seed;
  return cfg;
}

/// Rewrites the engine's proteins through a serialize / edit / restore
/// round trip — the way a restored frame would deliver them.
void restore_with_proteins(
    GridSim2D& sim, const std::function<void(std::vector<Protein>&)>& edit) {
  const util::Bytes frame = sim.serialize();
  util::ByteReader r(frame);
  util::ByteWriter w;
  w.u64(r.u64());  // frame sentinel
  w.u32(r.u32());  // frame version
  Snapshot snap = Snapshot::deserialize(r.bytes());
  edit(snap.proteins);
  w.bytes(snap.serialize());
  util::Bytes rest(r.remaining());
  r.raw(rest.data(), rest.size());
  w.raw(rest.data(), rest.size());
  sim.restore(std::move(w).take());
}

class ParallelContinuumDeterminism
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, int>> {};

TEST_P(ParallelContinuumDeterminism, FramesBitIdenticalAcrossThreadCounts) {
  const auto [grid, seed, np] = GetParam();
  util::ThreadPool two(2), eight(8);

  auto run = [&](util::ThreadPool* pool) {
    ContinuumConfig cfg = small_config(grid, seed, np);
    cfg.pool = pool;
    GridSim2D sim(cfg);
    sim.step(15);
    return sim.serialize();
  };

  const util::Bytes serial = run(nullptr);
  EXPECT_EQ(serial, run(&two)) << "frame diverged at 2 threads";
  EXPECT_EQ(serial, run(&eight)) << "frame diverged at 8 threads";
}

/// Engine frame after 15 steps of a small_config: size and util::fnv1a of
/// serialize(). The pins were taken from the pre-refactor serial kernels
/// (per-species loops, all-pairs repulsion) and matched them bit for bit.
struct FramePin {
  std::size_t size;
  std::uint64_t fnv1a;
};

FramePin sweep_pin(int grid) {
  switch (grid) {
    case 24: return {23553u, 14477055887862205494ULL};
    case 32: return {41713u, 13642519151278306087ULL};
    case 48: return {93873u, 7304958721341660884ULL};
    case 40: return {68513u, 14706359276858302545ULL};
    default: ADD_FAILURE() << "no pin for grid " << grid; return {0, 0};
  }
}

void expect_frame_pinned(const util::Bytes& frame, const FramePin& pin) {
  EXPECT_EQ(frame.size(), pin.size);
  EXPECT_EQ(util::fnv1a(frame.data(), frame.size()), pin.fnv1a);
}

TEST_P(ParallelContinuumDeterminism, EngineFrameMatchesPin) {
  // The fused/blocked stencils, the cell-binned repulsion and the
  // per-protein streams must reproduce the reference loops' frame bit for
  // bit.
  const auto [grid, seed, np] = GetParam();
  util::ThreadPool eight(8);
  ContinuumConfig cfg = small_config(grid, seed, np);
  cfg.pool = &eight;
  GridSim2D engine(cfg);
  engine.step(15);
  expect_frame_pinned(engine.serialize(), sweep_pin(grid));
}

TEST_P(ParallelContinuumDeterminism, SpeciesMassConservedUnderThreading) {
  const auto [grid, seed, np] = GetParam();
  util::ThreadPool eight(8);
  ContinuumConfig cfg = small_config(grid, seed, np);
  cfg.pool = &eight;
  GridSim2D sim(cfg);
  const std::vector<double> before = sim.species_mass();
  sim.step(25);
  const std::vector<double> after = sim.species_mass();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t s = 0; s < before.size(); ++s)
    EXPECT_NEAR(after[s], before[s], 1e-8 * before[s]) << "species " << s;
}

INSTANTIATE_TEST_SUITE_P(
    GridsSeedsProteins, ParallelContinuumDeterminism,
    ::testing::Values(std::make_tuple(24, 7, 0),     // no proteins at all
                      std::make_tuple(32, 11, 12),   // all-pairs fallback
                      std::make_tuple(48, 97, 60),   // cell-binned repulsion
                      std::make_tuple(40, 2026, 200)  // crowded bins
                      ));

TEST(EnginePins, ContinuumBenchSmallFrame) {
  // bench_continuum --small: grid 96, 8 + 6 species, 30 proteins, seed 42,
  // 8 steps: the frame every row of that bench produces.
  ContinuumConfig cfg;
  cfg.grid = 96;
  cfg.inner_species = 8;
  cfg.outer_species = 6;
  cfg.n_proteins = 30;
  cfg.seed = 42;
  GridSim2D engine(cfg);
  engine.step(8);
  expect_frame_pinned(engine.serialize(), {1035033u, 17158763854924043423ULL});
}

TEST(ParallelContinuum, CellBinsCoverEveryInRangePair) {
  // gather_candidates must return a sorted superset of the in-range
  // neighborhood; the crowded-bins determinism case above then proves the
  // binned force sum equals all-pairs bit for bit.
  ContinuumConfig cfg = small_config(40, 5, 150);
  GridSim2D sim(cfg);
  const auto& ps = sim.proteins();
  detail::ProteinCellBins bins;
  const double range = 2 * cfg.protein_radius;
  bins.build(ps, cfg.extent, range);
  ASSERT_TRUE(bins.binned());
  const double l = cfg.extent;
  std::vector<std::size_t> cand;
  for (std::size_t a = 0; a < ps.size(); ++a) {
    cand.clear();
    bins.gather_candidates(a, cand);
    EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
    // Every protein within range of a must appear among the candidates.
    std::size_t ci = 0;
    for (std::size_t b = 0; b < ps.size(); ++b) {
      double dx = ps[a].x - ps[b].x;
      double dy = ps[a].y - ps[b].y;
      dx -= l * std::round(dx / l);
      dy -= l * std::round(dy / l);
      if (dx * dx + dy * dy > range * range) continue;
      while (ci < cand.size() && cand[ci] < b) ++ci;
      ASSERT_TRUE(ci < cand.size() && cand[ci] == b)
          << "in-range pair (" << a << ", " << b << ") missed by the bins";
    }
  }
}

TEST(ParallelContinuum, RestoreResumesBitIdentically) {
  const ContinuumConfig cfg = small_config(32, 3, 40);
  GridSim2D a(cfg);
  a.step(20);
  const util::Bytes frame = a.serialize();
  a.step(20);

  GridSim2D b(cfg);
  b.restore(frame);
  EXPECT_EQ(b.step_count(), 20u);
  b.step(20);

  // A resumed campaign must replay the exact trajectory: the v2 frame
  // carries the step counter the per-protein streams are keyed on.
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(ParallelContinuum, SnapshotRejectsOutOfRangeProteinState) {
  GridSim2D sim(small_config(16, 1, 5));
  util::Bytes bytes = sim.snapshot().serialize();
  // The last u32 in the stream is the final protein's state; forge it.
  ASSERT_GE(bytes.size(), 4u);
  const std::uint32_t bogus = 99;
  std::memcpy(bytes.data() + bytes.size() - 4, &bogus, 4);
  EXPECT_THROW(Snapshot::deserialize(bytes), util::FormatError);
}

TEST(ParallelContinuum, SnapshotRejectsMalformedBytes) {
  GridSim2D sim(small_config(16, 2, 5));
  const util::Bytes good = sim.snapshot().serialize();
  ASSERT_NO_THROW(Snapshot::deserialize(good));

  // Truncation at any depth surfaces as FormatError, never UB or a huge
  // allocation driven by a forged length header.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{13}, std::size_t{64}, good.size() - 3}) {
    util::Bytes cut(good.begin(), good.begin() + keep);
    EXPECT_THROW(Snapshot::deserialize(cut), util::FormatError) << keep;
  }
  EXPECT_THROW(Snapshot::deserialize(util::Bytes{}), util::FormatError);
  EXPECT_THROW(GridSim2D(small_config(16, 2, 5)).restore(util::Bytes(8, 0xFF)),
               util::Error);

  // A forged field or protein count of 0xFFFFFFFF is rejected before any
  // allocation is sized from it. Layout: time f64, grid u32, extent f64,
  // field count u32, then per field a u64 length and its doubles, then the
  // protein count u32.
  const Snapshot snap = sim.snapshot();
  const std::size_t field_count_at = 20;
  const std::size_t protein_count_at =
      24 + snap.fields.size() * (8 + 8 * snap.fields.front().data().size());
  auto forge_count = [&](std::size_t offset, std::uint32_t expected) {
    util::Bytes bad = good;
    std::uint32_t old = 0;
    std::memcpy(&old, bad.data() + offset, 4);
    EXPECT_EQ(old, expected) << offset;
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(bad.data() + offset, &huge, 4);
    return bad;
  };
  EXPECT_THROW(Snapshot::deserialize(forge_count(
                   field_count_at, static_cast<std::uint32_t>(
                                       snap.fields.size()))),
               util::FormatError);
  EXPECT_THROW(Snapshot::deserialize(forge_count(
                   protein_count_at, static_cast<std::uint32_t>(
                                         snap.proteins.size()))),
               util::FormatError);
}

TEST(ParallelContinuum, ZeroProteinRadiusLeavesFieldsFinite) {
  // sigma_g == 0 used to divide by zero in the Gaussian stamp; a pointlike
  // protein must simply leave no footprint.
  ContinuumConfig cfg = small_config(24, 4, 10);
  cfg.protein_radius = 0.0;
  GridSim2D sim(cfg);
  sim.step(5);
  for (int s = 0; s < sim.n_species(); ++s)
    for (const double v : sim.field(s).data()) ASSERT_TRUE(std::isfinite(v));
}

TEST(ParallelContinuum, NanFieldsFreezeProteinsInsideBox) {
  // A wildly unstable dt blows the fields up; protein positions must stay
  // finite and inside the box rather than inheriting the NaNs.
  ContinuumConfig cfg = small_config(16, 6, 20);
  cfg.dt = 1e9;
  GridSim2D sim(cfg);
  sim.step(8);
  for (const auto& p : sim.proteins()) {
    ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y));
    ASSERT_TRUE(p.x >= 0 && p.x < cfg.extent);
    ASSERT_TRUE(p.y >= 0 && p.y < cfg.extent);
  }
}

TEST(ParallelContinuum, HugeFiniteProteinCoordinateLeavesNoFootprint) {
  // A restored frame may carry a finite protein coordinate far beyond the
  // int range of cell indices. The footprint stamp must skip it exactly as
  // it skips NaN: no footprint, no overflow in the cell arithmetic.
  auto step_with_first_protein_at = [](double x) {
    ContinuumConfig cfg = small_config(16, 4, 6);
    GridSim2D sim(cfg);
    restore_with_proteins(sim, [x](std::vector<Protein>& ps) { ps[0].x = x; });
    sim.step(1);
    std::vector<Grid2d> fields;
    for (int s = 0; s < sim.n_species(); ++s) fields.push_back(sim.field(s));
    return fields;
  };
  const auto skipped = step_with_first_protein_at(std::nan(""));
  // Grid spacing is 1000 nm / 16 = 62.5 nm: the last value lands exactly on
  // cell INT_MAX.
  for (const double x : {1e12, -1e12, 1e300, 62.5 * 2147483647.0}) {
    const auto got = step_with_first_protein_at(x);
    ASSERT_EQ(got.size(), skipped.size());
    for (std::size_t s = 0; s < got.size(); ++s)
      EXPECT_EQ(got[s].data(), skipped[s].data()) << "x=" << x << " s=" << s;
  }
}

TEST(ParallelContinuum, NonFiniteAndHugeProteinCoordinatesStepWithoutUb) {
  // Casting NaN or a double beyond int range to int is undefined. A restored
  // frame can carry such coordinates into the cell bins, the field
  // interpolation and the footprint stamp; a full step must get through all
  // three (the sanitizer build checks the casts), keep the fields finite
  // and stay thread-count independent.
  auto run = [](util::ThreadPool* pool) {
    ContinuumConfig cfg = small_config(16, 5, 40);
    cfg.pool = pool;
    GridSim2D sim(cfg);
    const double nan = std::nan("");
    restore_with_proteins(sim, [nan](std::vector<Protein>& ps) {
      ps[0].x = 1e300;
      ps[0].y = 1e300;
      ps[1].x = nan;
      ps[1].y = nan;
      ps[2].x = -1e300;
      ps[2].y = nan;
      ps[3].y = -1e300;
    });
    sim.step(3);
    int non_finite = 0;
    for (int s = 0; s < sim.n_species(); ++s)
      for (const double v : sim.field(s).data())
        non_finite += !std::isfinite(v);
    EXPECT_EQ(non_finite, 0);
    return sim.serialize();
  };
  util::ThreadPool four(4);
  const util::Bytes serial = run(nullptr);
  EXPECT_EQ(run(&four), serial);
}

TEST(ParallelContinuum, BlockBoundariesDependOnSizeOnly) {
  // The whole determinism argument rests on this: boundaries are f(n) only.
  // The engine blocks grid rows with util::block_size(n, 8, 16), proteins
  // with util::block_size(np, 16, 8) and the footprint fold with
  // util::block_size(len, 4096, 16).
  EXPECT_EQ(util::block_size(24, 8, 16), 8u);
  EXPECT_EQ(util::block_count(24, util::block_size(24, 8, 16)), 3u);
  EXPECT_EQ(util::block_count(0, util::block_size(0, 8, 16)), 0u);
  EXPECT_EQ(util::block_count(192, util::block_size(192, 8, 16)), 16u);
  EXPECT_EQ(util::block_size(30, 16, 8), 16u);
  EXPECT_EQ(util::block_count(30, util::block_size(30, 16, 8)), 2u);
  EXPECT_EQ(util::block_count(0, util::block_size(0, 16, 8)), 0u);
  EXPECT_EQ(util::block_count(100000, util::block_size(100000, 16, 8)), 8u);
  EXPECT_EQ(util::block_size(16 * 16 * 4, 4096, 16), 4096u);
  EXPECT_EQ(util::block_size(192 * 192 * 4, 4096, 16), 9216u);
}

TEST(ParallelContinuum, ProteinStreamSeedsAreDistinct) {
  // Adjacent (protein, step) pairs must not collide, or two proteins would
  // share Brownian kicks.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t idx = 0; idx < 64; ++idx)
    for (std::uint64_t step = 0; step < 64; ++step)
      seen.push_back(detail::protein_stream_seed(42, idx, step));
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
}

TEST(ParallelContinuum, PoolSizeEnvSelectsSharedPool) {
  // A null ContinuumConfig::pool is serial: the engine runs on the pool its
  // owner passes, and the former MUMMI_POOL_SIZE switch is inert.
  ::setenv("MUMMI_POOL_SIZE", "4", 1);
  util::ThreadPool* const resolved = GridSim2D(small_config(16, 3, 4)).pool();
  ::unsetenv("MUMMI_POOL_SIZE");
  EXPECT_EQ(resolved, nullptr);
  util::ThreadPool two(2);
  ContinuumConfig cfg = small_config(16, 3, 4);
  cfg.pool = &two;
  EXPECT_EQ(GridSim2D(cfg).pool(), &two);  // an explicit pool always wins
}

TEST(ParallelContinuum, StepCountersAdvance) {
  GridSim2D sim(small_config(16, 8, 30));
  const auto steps0 = obs::counter("cont.step.steps").value();
  const auto cells0 = obs::counter("cont.step.cells").value();
  const auto pairs0 = obs::counter("cont.step.protein_pairs").value();
  const auto rebuilds0 = obs::counter("cont.step.rebuilds").value();
  sim.step(4);
  EXPECT_EQ(obs::counter("cont.step.steps").value() - steps0, 4u);
  EXPECT_EQ(obs::counter("cont.step.cells").value() - cells0,
            4u * 16 * 16 * 5);
  EXPECT_EQ(obs::counter("cont.step.rebuilds").value() - rebuilds0, 4u);
  // Pair counts are symmetric: every interacting (a, b) is visited from both
  // sides, so the counter moves in even increments (or not at all).
  EXPECT_EQ((obs::counter("cont.step.protein_pairs").value() - pairs0) % 2, 0u);
}

}  // namespace
}  // namespace mummi::cont
