#include "coupling/createsim.hpp"

#include <gtest/gtest.h>

#include "coupling/patch.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mummi::coupling {
namespace {

Patch test_patch(cont::ProteinState state = cont::ProteinState::kRasA,
                 int n_species = 4) {
  Patch p;
  p.id = 1;
  p.grid = 19;
  p.extent = 8.0;  // small patch keeps tests fast
  p.n_species = n_species;
  p.density.assign(static_cast<std::size_t>(n_species) * 19 * 19, 0.25f);
  p.proteins.push_back({4.0, 4.0, state});
  return p;
}

CgBuildConfig fast_config() {
  CgBuildConfig cfg;
  cfg.lipids_per_nm2 = 0.3;
  cfg.minimize_steps = 40;
  cfg.relax_steps = 20;
  return cfg;
}

TEST(CgTypeLayout, IndicesDistinct) {
  CgTypeLayout layout{6};
  EXPECT_EQ(layout.head(0), 0);
  EXPECT_EQ(layout.head(5), 5);
  EXPECT_EQ(layout.tail(), 6);
  EXPECT_EQ(layout.protein(), 7);
  EXPECT_EQ(layout.n_types(), 8);
}

TEST(MakeCgForcefield, CoversAllTypePairs) {
  const auto ff = make_cg_forcefield(4);
  const CgTypeLayout layout{4};
  EXPECT_EQ(ff->n_types(), layout.n_types());
  for (int a = 0; a < ff->n_types(); ++a)
    for (int b = 0; b < ff->n_types(); ++b) {
      EXPECT_GT(ff->pair(a, b).epsilon, 0.0) << a << "," << b;
      EXPECT_DOUBLE_EQ(ff->pair(a, b).epsilon, ff->pair(b, a).epsilon);
    }
  EXPECT_DOUBLE_EQ(ff->cutoff(), 1.2);
}

TEST(CreateSim, BuildsMembraneWithProtein) {
  CreateSim createsim(fast_config());
  util::Rng rng(7);
  const auto info = createsim.build(test_patch(), rng);
  EXPECT_GT(info.system.size(), 50u);
  EXPECT_EQ(info.ras_beads, 8);
  EXPECT_EQ(info.protein_beads.size(), 8u);  // RAS only
  EXPECT_EQ(info.heads_by_species.size(), 4u);
  // Box matches patch footprint.
  EXPECT_DOUBLE_EQ(info.system.box.length.x, 8.0);
  EXPECT_DOUBLE_EQ(info.system.box.length.z, 12.0);
}

TEST(CreateSim, RasRafGetsRafBeads) {
  CreateSim createsim(fast_config());
  util::Rng rng(7);
  const auto info =
      createsim.build(test_patch(cont::ProteinState::kRasRafA), rng);
  EXPECT_EQ(info.protein_beads.size(), 14u);  // 8 RAS + 6 RAF
  EXPECT_EQ(info.ras_beads, 8);
}

TEST(CreateSim, LipidsAreThreeBeadChains) {
  CreateSim createsim(fast_config());
  util::Rng rng(7);
  const auto info = createsim.build(test_patch(), rng);
  std::size_t heads = 0;
  for (const auto& per_species : info.heads_by_species)
    heads += per_species.size();
  // lipid beads = heads * 3, plus 8 protein beads.
  EXPECT_EQ(info.system.size(), heads * 3 + 8);
  // Bonds: 2 per lipid + 7 protein backbone bonds.
  EXPECT_EQ(info.system.bonds.size(), heads * 2 + 7);
}

TEST(CreateSim, HeadIndicesPointToCorrectTypes) {
  CreateSim createsim(fast_config());
  util::Rng rng(3);
  const auto info = createsim.build(test_patch(), rng);
  for (int s = 0; s < 4; ++s)
    for (int idx : info.heads_by_species[static_cast<std::size_t>(s)])
      EXPECT_EQ(info.system.type[static_cast<std::size_t>(idx)],
                info.layout.head(s));
  for (int idx : info.protein_beads)
    EXPECT_EQ(info.system.type[static_cast<std::size_t>(idx)],
              info.layout.protein());
}

TEST(CreateSim, LeafletsSeparatedInZ) {
  CreateSim createsim(fast_config());
  util::Rng rng(5);
  const auto info = createsim.build(test_patch(), rng);
  // Inner species (0, 1): heads below midplane; outer (2, 3): above.
  // (4 species split 3/1 by the 8:14 rule => species 0-2 inner, 3 outer.)
  int below = 0, above = 0, total_in = 0, total_out = 0;
  const double z_mid = 6.0;
  for (int s = 0; s < 4; ++s)
    for (int idx : info.heads_by_species[static_cast<std::size_t>(s)]) {
      const bool is_below = info.system.pos[static_cast<std::size_t>(idx)].z < z_mid;
      if (s < 3) {
        ++total_in;
        if (is_below) ++below;
      } else {
        ++total_out;
        if (!is_below) ++above;
      }
    }
  // Relaxation jiggles positions; the bulk must stay on their leaflet.
  EXPECT_GT(below, total_in * 7 / 10);
  EXPECT_GT(above, total_out * 7 / 10);
}

TEST(CreateSim, RelaxationProducesFiniteState) {
  CreateSim createsim(fast_config());
  util::Rng rng(11);
  const auto info = createsim.build(test_patch(), rng);
  for (const auto& p : info.system.pos) {
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
    EXPECT_TRUE(std::isfinite(p.z));
  }
  for (const auto& v : info.system.vel) EXPECT_TRUE(std::isfinite(v.norm()));
}

TEST(CreateSim, DeterministicGivenRngState) {
  CreateSim createsim(fast_config());
  util::Rng a(42), b(42);
  const auto ia = createsim.build(test_patch(), a);
  const auto ib = createsim.build(test_patch(), b);
  ASSERT_EQ(ia.system.size(), ib.system.size());
  for (std::size_t i = 0; i < ia.system.size(); ++i)
    EXPECT_DOUBLE_EQ(ia.system.pos[i].x, ib.system.pos[i].x);
}

TEST(CreateSim, DensitySamplingFollowsPatchComposition) {
  // Species 1 dominates the patch; it must dominate placed lipids.
  Patch p = test_patch();
  for (int i = 0; i < 19; ++i)
    for (int j = 0; j < 19; ++j) {
      p.density[(1u * 19 + i) * 19 + j] = 10.0f;
    }
  CreateSim createsim(fast_config());
  util::Rng rng(13);
  const auto info = createsim.build(p, rng);
  // Species 0-2 are inner-leaflet; among them species 1 should dominate.
  EXPECT_GT(info.heads_by_species[1].size(),
            5 * std::max<std::size_t>(info.heads_by_species[0].size(), 1));
}

TEST(CreateSim, TooFewSpeciesRejected) {
  CreateSim createsim(fast_config());
  util::Rng rng(1);
  Patch p = test_patch();
  p.n_species = 1;
  p.density.assign(19 * 19, 0.2f);
  EXPECT_THROW(createsim.build(p, rng), util::Error);
}

TEST(EnginePins, CreateSimSystemBytes) {
  // The serialized built, minimized and relaxed CG system for one fixed
  // RAS-RAF patch and seed: box height, bead counts, thermostat temperature
  // and the relaxation all feed these bytes.
  CreateSim createsim(fast_config());
  util::Rng rng(7);
  const util::Bytes bytes =
      createsim.build(test_patch(cont::ProteinState::kRasRafA), rng)
          .system.serialize();
  EXPECT_EQ(bytes.size(), 12784u);
  EXPECT_EQ(util::fnv1a(bytes.data(), bytes.size()), 15035253331224022835ULL);
}

}  // namespace
}  // namespace mummi::coupling
