#include "coupling/encoders.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "coupling/patch.hpp"
#include "ml/point.hpp"
#include "util/rng.hpp"

namespace mummi::coupling {
namespace {

Patch make_patch(std::uint64_t id, int n_species = 4, float bias = 0.0f) {
  Patch p;
  p.id = id;
  p.grid = 37;
  p.extent = 30.0;
  p.n_species = n_species;
  p.density.assign(static_cast<std::size_t>(n_species) * 37 * 37, 0.2f + bias);
  p.proteins.push_back({15.0, 15.0, cont::ProteinState::kRasA});
  return p;
}

TEST(PatchEncoder, ProducesNineDims) {
  PatchEncoder enc(4, 42);
  const auto v = enc.encode(make_patch(1));
  EXPECT_EQ(v.size(), 9u);
  EXPECT_EQ(enc.out_dim(), 9);
  for (float x : v) EXPECT_TRUE(std::isfinite(x));
}

TEST(PatchEncoder, DeterministicForSeed) {
  PatchEncoder a(4, 42), b(4, 42);
  EXPECT_EQ(a.encode(make_patch(1)), b.encode(make_patch(1)));
}

TEST(PatchEncoder, DifferentSeedsDifferentEmbeddings) {
  PatchEncoder a(4, 1), b(4, 2);
  EXPECT_NE(a.encode(make_patch(1)), b.encode(make_patch(1)));
}

TEST(PatchEncoder, SensitiveToDensity) {
  PatchEncoder enc(4, 42);
  const auto v1 = enc.encode(make_patch(1, 4, 0.0f));
  const auto v2 = enc.encode(make_patch(1, 4, 0.4f));
  EXPECT_GT(ml::dist2(v1, v2), 1e-8f);
}

TEST(PatchEncoder, SensitiveToProteinState) {
  PatchEncoder enc(4, 42);
  Patch a = make_patch(1);
  Patch b = make_patch(1);
  b.proteins[0].state = cont::ProteinState::kRasRafA;
  EXPECT_GT(ml::dist2(enc.encode(a), enc.encode(b)), 1e-10f);
}

TEST(PatchEncoder, SpeciesMismatchRejected) {
  PatchEncoder enc(6, 42);
  EXPECT_THROW(enc.encode(make_patch(1, 4)), util::Error);
}

TEST(CgFrameInfo, DescriptorIsThreeD) {
  CgFrameInfo info;
  info.tilt = 1;
  info.rotation = 2;
  info.separation = 3;
  EXPECT_EQ(info.descriptor(), (std::vector<float>{1, 2, 3}));
}

md::System chain_system(const md::Vec3& dir, std::vector<int>& beads, int n) {
  md::System s;
  s.box.length = {50, 50, 50};
  const md::Vec3 start{25, 25, 25};
  for (int i = 0; i < n; ++i)
    beads.push_back(s.add_particle(start + static_cast<md::real>(i) * dir, 0,
                                   72.0));
  return s;
}

TEST(FrameInfo, VerticalChainZeroTilt) {
  std::vector<int> beads;
  const auto s = chain_system({0, 0, 0.4}, beads, 8);
  const auto info = compute_frame_info(s, beads, 8, 5, 100);
  EXPECT_NEAR(info.tilt, 0.0, 1e-6);
  EXPECT_EQ(info.sim_id, 5u);
  EXPECT_EQ(info.step, 100);
  EXPECT_FLOAT_EQ(info.separation, 0.0f);  // no RAF beads
}

TEST(FrameInfo, HorizontalChainNinetyTilt) {
  std::vector<int> beads;
  const auto s = chain_system({0.4, 0, 0}, beads, 8);
  const auto info = compute_frame_info(s, beads, 8, 1, 1);
  EXPECT_NEAR(info.tilt, 90.0, 1e-6);
  EXPECT_NEAR(info.rotation, 0.0, 1e-6);
}

TEST(FrameInfo, RotationAzimuth) {
  std::vector<int> beads;
  const auto s = chain_system({0.0, 0.4, 0}, beads, 8);
  const auto info = compute_frame_info(s, beads, 8, 1, 1);
  EXPECT_NEAR(info.rotation, 90.0, 1e-6);
}

TEST(FrameInfo, RasRafSeparation) {
  md::System s;
  s.box.length = {50, 50, 50};
  std::vector<int> beads;
  // RAS: 4 beads clustered at (20,25,25); RAF: 2 beads at (23,25,25).
  for (int i = 0; i < 4; ++i)
    beads.push_back(s.add_particle({20, 25, 25}, 0, 72.0));
  for (int i = 0; i < 2; ++i)
    beads.push_back(s.add_particle({23, 25, 25}, 0, 72.0));
  const auto info = compute_frame_info(s, beads, 4, 1, 1);
  EXPECT_NEAR(info.separation, 3.0, 1e-6);
}

TEST(FrameInfo, InvalidPartitionRejected) {
  std::vector<int> beads;
  const auto s = chain_system({0, 0, 0.4}, beads, 4);
  EXPECT_THROW((void)compute_frame_info(s, beads, 1, 0, 0), util::Error);
  EXPECT_THROW((void)compute_frame_info(s, beads, 5, 0, 0), util::Error);
}

}  // namespace
}  // namespace mummi::coupling
