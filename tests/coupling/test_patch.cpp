#include "coupling/patch.hpp"

#include <gtest/gtest.h>

namespace mummi::coupling {
namespace {

cont::Snapshot make_snapshot(int grid = 40, double extent = 200.0,
                             int n_species = 4) {
  cont::Snapshot snap;
  snap.time_us = 12.0;
  snap.grid = grid;
  snap.extent = extent;
  for (int s = 0; s < n_species; ++s) {
    cont::Grid2d g(grid, 0.25);
    // A recognizable gradient per species.
    for (int i = 0; i < grid; ++i)
      for (int j = 0; j < grid; ++j)
        g.at(i, j) = 0.1 + 0.01 * s + 0.002 * i;
    snap.fields.push_back(std::move(g));
  }
  snap.proteins.push_back({100.0, 100.0, cont::ProteinState::kRasA});
  snap.proteins.push_back({110.0, 100.0, cont::ProteinState::kRasRafB});
  snap.proteins.push_back({10.0, 190.0, cont::ProteinState::kRasB});
  return snap;
}

TEST(PatchCreator, OnePatchPerProtein) {
  PatchCreator creator(37, 30.0);
  std::uint64_t next_id = 100;
  const auto patches = creator.create(make_snapshot(), next_id);
  ASSERT_EQ(patches.size(), 3u);
  EXPECT_EQ(patches[0].id, 100u);
  EXPECT_EQ(patches[2].id, 102u);
  EXPECT_EQ(next_id, 103u);
  for (const auto& p : patches) {
    EXPECT_EQ(p.grid, 37);
    EXPECT_DOUBLE_EQ(p.extent, 30.0);
    EXPECT_EQ(p.n_species, 4);
    EXPECT_DOUBLE_EQ(p.time_us, 12.0);
    EXPECT_EQ(p.density.size(), 4u * 37u * 37u);
  }
}

TEST(PatchCreator, CenterProteinFirstAtCenter) {
  PatchCreator creator(37, 30.0);
  std::uint64_t next_id = 0;
  const auto patches = creator.create(make_snapshot(), next_id);
  for (const auto& p : patches) {
    ASSERT_FALSE(p.proteins.empty());
    EXPECT_DOUBLE_EQ(p.proteins[0].x, 15.0);
    EXPECT_DOUBLE_EQ(p.proteins[0].y, 15.0);
  }
  EXPECT_EQ(patches[0].center_state(), cont::ProteinState::kRasA);
  EXPECT_EQ(patches[1].center_state(), cont::ProteinState::kRasRafB);
}

TEST(PatchCreator, NeighborProteinIncludedWithLocalCoords) {
  PatchCreator creator(37, 30.0);
  std::uint64_t next_id = 0;
  const auto patches = creator.create(make_snapshot(), next_id);
  // Proteins 0 and 1 are 10 nm apart: each appears in the other's patch.
  ASSERT_EQ(patches[0].proteins.size(), 2u);
  EXPECT_DOUBLE_EQ(patches[0].proteins[1].x, 25.0);  // 15 + 10
  EXPECT_EQ(patches[0].proteins[1].state, cont::ProteinState::kRasRafB);
  ASSERT_EQ(patches[1].proteins.size(), 2u);
  EXPECT_DOUBLE_EQ(patches[1].proteins[1].x, 5.0);  // 15 - 10
  // Protein 2 is far away: alone in its patch.
  EXPECT_EQ(patches[2].proteins.size(), 1u);
}

TEST(PatchCreator, DensityResampledFromFields) {
  PatchCreator creator(37, 30.0);
  std::uint64_t next_id = 0;
  const auto snap = make_snapshot();
  const auto patches = creator.create(snap, next_id);
  // The snapshot field is 0.1 + 0.01*s + 0.002*i with h = 5 nm per cell.
  // At the patch center (protein at x=100 -> i=20): expect ~0.14 + 0.01*s.
  const auto& p = patches[0];
  for (int s = 0; s < 4; ++s) {
    const float center = p.density_at(s, 18, 18);
    EXPECT_NEAR(center, 0.1 + 0.01 * s + 0.002 * 20.0, 0.01) << s;
  }
}

TEST(PatchCreator, PeriodicWrapAtBoundary) {
  PatchCreator creator(37, 30.0);
  std::uint64_t next_id = 0;
  auto snap = make_snapshot();
  snap.proteins.clear();
  snap.proteins.push_back({1.0, 1.0, cont::ProteinState::kRasA});  // corner
  const auto patches = creator.create(snap, next_id);
  ASSERT_EQ(patches.size(), 1u);
  for (float v : patches[0].density) EXPECT_TRUE(std::isfinite(v));
}

TEST(PatchCreator, EmptySnapshotYieldsNoPatches) {
  PatchCreator creator;
  std::uint64_t next_id = 0;
  auto snap = make_snapshot();
  snap.proteins.clear();
  EXPECT_TRUE(creator.create(snap, next_id).empty());
  EXPECT_EQ(next_id, 0u);
}

}  // namespace
}  // namespace mummi::coupling
