#include "coupling/backmap.hpp"

#include <gtest/gtest.h>

#include "coupling/patch.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mummi::coupling {
namespace {

CgSystemInfo small_cg(util::Rng& rng) {
  Patch p;
  p.id = 1;
  p.grid = 13;
  p.extent = 6.0;
  p.n_species = 3;
  p.density.assign(3u * 13 * 13, 0.25f);
  p.proteins.push_back({3.0, 3.0, cont::ProteinState::kRasRafA});
  CgBuildConfig cfg;
  cfg.lipids_per_nm2 = 0.2;
  cfg.minimize_steps = 30;
  cfg.relax_steps = 10;
  return CreateSim(cfg).build(p, rng);
}

AaBuildConfig fast_aa() {
  AaBuildConfig cfg;
  cfg.minimize_steps = 30;
  cfg.restrained_steps = 20;
  return cfg;
}

TEST(Backmapper, ExpandsEveryBead) {
  util::Rng rng(3);
  const auto cg = small_cg(rng);
  Backmapper backmapper(fast_aa());
  const auto aa = backmapper.build(cg, rng);
  EXPECT_EQ(aa.system.size(), cg.system.size() * 4);
  EXPECT_EQ(aa.n_types, 2);
  EXPECT_DOUBLE_EQ(aa.system.box.length.x, cg.system.box.length.x);
}

TEST(Backmapper, BackboneTracksProteinBeads) {
  util::Rng rng(3);
  const auto cg = small_cg(rng);
  Backmapper backmapper(fast_aa());
  const auto aa = backmapper.build(cg, rng);
  EXPECT_EQ(aa.backbone.size(), cg.protein_beads.size());
  for (int atom : aa.backbone)
    EXPECT_EQ(aa.system.type[static_cast<std::size_t>(atom)], 1);  // protein
}

TEST(Backmapper, AtomsStayNearSourceBeads) {
  util::Rng rng(5);
  const auto cg = small_cg(rng);
  Backmapper backmapper(fast_aa());
  const auto aa = backmapper.build(cg, rng);
  // The restrained relaxation keeps backbone anchors within ~the bead scale
  // of their CG origins.
  for (std::size_t b = 0; b < cg.protein_beads.size(); ++b) {
    const auto& cg_pos =
        cg.system.pos[static_cast<std::size_t>(cg.protein_beads[b])];
    const auto& aa_pos =
        aa.system.pos[static_cast<std::size_t>(aa.backbone[b])];
    EXPECT_LT(aa.system.box.min_image(aa_pos, cg_pos).norm(), 1.0);
  }
}

TEST(Backmapper, ChargeConserved) {
  util::Rng rng(7);
  const auto cg = small_cg(rng);
  Backmapper backmapper(fast_aa());
  const auto aa = backmapper.build(cg, rng);
  md::real q_cg = 0, q_aa = 0;
  for (auto q : cg.system.charge) q_cg += q;
  for (auto q : aa.system.charge) q_aa += q;
  EXPECT_NEAR(q_cg, q_aa, 1e-9);
}

TEST(Backmapper, BondedTopologyInherited) {
  util::Rng rng(9);
  const auto cg = small_cg(rng);
  Backmapper backmapper(fast_aa());
  const auto aa = backmapper.build(cg, rng);
  // intra-bead bonds: (atoms_per_bead - 1) per bead, plus inherited CG bonds.
  const std::size_t expected =
      cg.system.size() * 3 + cg.system.bonds.size();
  EXPECT_EQ(aa.system.bonds.size(), expected);
  EXPECT_EQ(aa.system.angles.size(), cg.system.angles.size());
}

TEST(Backmapper, FiniteRelaxedState) {
  util::Rng rng(11);
  const auto cg = small_cg(rng);
  Backmapper backmapper(fast_aa());
  const auto aa = backmapper.build(cg, rng);
  for (const auto& p : aa.system.pos) EXPECT_TRUE(std::isfinite(p.norm()));
}

TEST(Backmapper, AtomsPerBeadConfigurable) {
  util::Rng rng(13);
  const auto cg = small_cg(rng);
  AaBuildConfig cfg = fast_aa();
  cfg.atoms_per_bead = 2;
  const auto aa = Backmapper(cfg).build(cg, rng);
  EXPECT_EQ(aa.system.size(), cg.system.size() * 2);
}

TEST(Backmapper, InvalidAtomsPerBeadRejected) {
  util::Rng rng(1);
  const auto cg = small_cg(rng);
  AaBuildConfig cfg = fast_aa();
  cfg.atoms_per_bead = 9;
  EXPECT_THROW(Backmapper(cfg).build(cg, rng), util::Error);
}

TEST(MakeAaForcefield, ShorterRangeThanCg) {
  const auto aa_ff = make_aa_forcefield();
  EXPECT_LT(aa_ff->cutoff(), 1.2);
  EXPECT_LT(aa_ff->pair(0, 0).sigma, 0.47);
}

TEST(EnginePins, BackmapperSystemBytes) {
  // The serialized backmapped, minimized and restrained AA system for one
  // fixed CG system and seed: template spread, restraint stiffness and
  // thermostat temperature all feed these bytes.
  util::Rng rng(3);
  const auto cg = small_cg(rng);
  const util::Bytes bytes =
      Backmapper(fast_aa()).build(cg, rng).system.serialize();
  EXPECT_EQ(bytes.size(), 21904u);
  EXPECT_EQ(util::fnv1a(bytes.data(), bytes.size()), 15441202776142635665ULL);
}

}  // namespace
}  // namespace mummi::coupling
