#include "continuum/gridsim2d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mummi::cont {
namespace {

ContinuumConfig small_config() {
  ContinuumConfig cfg;
  cfg.grid = 32;
  cfg.extent = 160.0;
  cfg.inner_species = 3;
  cfg.outer_species = 2;
  cfg.n_proteins = 6;
  cfg.dt = 0.05;
  cfg.seed = 11;
  return cfg;
}

TEST(GridSim2D, InitialDensitiesPositiveAndNormalized) {
  GridSim2D sim(small_config());
  EXPECT_EQ(sim.n_species(), 5);
  for (int s = 0; s < sim.n_species(); ++s)
    for (double v : sim.field(s).data()) EXPECT_GT(v, 0.0);
  // The inner leaflet's species sum to ~1 per cell on average.
  double inner_total = 0;
  for (int s = 0; s < 3; ++s)
    inner_total += sim.field(s).sum() / static_cast<double>(sim.field(s).size());
  EXPECT_NEAR(inner_total, 1.0, 0.05);
}

TEST(GridSim2D, StepAdvancesTime) {
  GridSim2D sim(small_config());
  sim.step(10);
  EXPECT_NEAR(sim.time_us(), 0.5, 1e-12);
}

TEST(GridSim2D, MassConservedPerSpecies) {
  GridSim2D sim(small_config());
  const auto mass0 = sim.species_mass();
  sim.step(50);
  const auto mass1 = sim.species_mass();
  for (std::size_t s = 0; s < mass0.size(); ++s)
    EXPECT_NEAR(mass1[s] / mass0[s], 1.0, 0.02) << "species " << s;
}

TEST(GridSim2D, FieldsRemainFiniteAndNonNegative) {
  GridSim2D sim(small_config());
  sim.step(100);
  for (int s = 0; s < sim.n_species(); ++s)
    for (double v : sim.field(s).data()) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
}

TEST(GridSim2D, FieldsEvolve) {
  GridSim2D sim(small_config());
  const auto before = sim.field(0).data();
  sim.step(20);
  double change = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    change += std::abs(sim.field(0).data()[i] - before[i]);
  EXPECT_GT(change, 1e-6);
}

TEST(GridSim2D, ProteinsStayInBox) {
  auto cfg = small_config();
  GridSim2D sim(cfg);
  sim.step(100);
  for (const auto& p : sim.proteins()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, cfg.extent);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, cfg.extent);
  }
}

TEST(GridSim2D, ProteinsDiffuse) {
  GridSim2D sim(small_config());
  const auto start = sim.proteins();
  sim.step(100);
  double moved = 0;
  for (std::size_t i = 0; i < start.size(); ++i) {
    const double dx = sim.proteins()[i].x - start[i].x;
    const double dy = sim.proteins()[i].y - start[i].y;
    moved += dx * dx + dy * dy;
  }
  EXPECT_GT(moved, 0.0);
}

TEST(GridSim2D, DeterministicForSeed) {
  GridSim2D a(small_config()), b(small_config());
  a.step(30);
  b.step(30);
  EXPECT_EQ(a.field(0).data(), b.field(0).data());
  for (std::size_t i = 0; i < a.proteins().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.proteins()[i].x, b.proteins()[i].x);
    EXPECT_EQ(a.proteins()[i].state, b.proteins()[i].state);
  }
}

TEST(GridSim2D, CouplingUpdateReadOnTheFly) {
  GridSim2D sim(small_config());
  sim.set_protein_lipid_coupling(ProteinState::kRasA, 0, -2.0);
  EXPECT_DOUBLE_EQ(sim.protein_lipid_coupling(ProteinState::kRasA, 0), -2.0);
  EXPECT_THROW(sim.set_protein_lipid_coupling(ProteinState::kRasA, 99, 0.1),
               util::Error);
  sim.step(5);  // runs with the new coupling without issue
  for (double v : sim.field(0).data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(GridSim2D, AttractiveCouplingEnrichesLipidNearProtein) {
  auto cfg = small_config();
  cfg.n_proteins = 1;
  cfg.state_switch_rate = 0.0;
  cfg.protein_diffusion = 0.0;  // hold the protein still
  GridSim2D sim(cfg);
  const auto state = sim.proteins()[0].state;
  // Strong attraction of species 0 to the protein footprint.
  for (int s = 0; s < sim.n_species(); ++s)
    sim.set_protein_lipid_coupling(state, s, s == 0 ? -3.0 : 0.0);
  sim.step(150);
  const auto& p = sim.proteins()[0];
  const double h = cfg.extent / cfg.grid;
  const auto& f = sim.field(0);
  const double near = f.interpolate(p.x / h, p.y / h);
  const double mean = f.sum() / static_cast<double>(f.size());
  EXPECT_GT(near, mean * 1.05);
}

TEST(Snapshot, SerializeRoundTrip) {
  GridSim2D sim(small_config());
  sim.step(7);
  const Snapshot snap = sim.snapshot();
  const Snapshot back = Snapshot::deserialize(snap.serialize());
  EXPECT_DOUBLE_EQ(back.time_us, snap.time_us);
  EXPECT_EQ(back.grid, snap.grid);
  EXPECT_EQ(back.fields.size(), snap.fields.size());
  EXPECT_EQ(back.fields[2].data(), snap.fields[2].data());
  ASSERT_EQ(back.proteins.size(), snap.proteins.size());
  EXPECT_DOUBLE_EQ(back.proteins[0].x, snap.proteins[0].x);
  EXPECT_EQ(back.proteins[3].state, snap.proteins[3].state);
}

TEST(GridSim2D, CheckpointRestoreResumesState) {
  GridSim2D a(small_config());
  a.step(20);
  const auto state = a.serialize();

  GridSim2D b(small_config());
  b.restore(state);
  EXPECT_NEAR(b.time_us(), 1.0, 1e-12);
  EXPECT_EQ(b.field(0).data(), a.field(0).data());
  EXPECT_EQ(b.proteins().size(), a.proteins().size());
  // Restored model keeps evolving with conserved mass.
  const auto mass0 = b.species_mass();
  b.step(20);
  const auto mass1 = b.species_mass();
  for (std::size_t s = 0; s < mass0.size(); ++s)
    EXPECT_NEAR(mass1[s] / mass0[s], 1.0, 0.02);
}

TEST(GridSim2D, RestoreRejectsMismatchedConfig) {
  GridSim2D a(small_config());
  auto other = small_config();
  other.grid = 16;
  GridSim2D b(other);
  EXPECT_THROW(b.restore(a.serialize()), util::Error);
}

TEST(EnginePins, GridSim2DFrameBytes) {
  // The serialized state after a fixed number of DDFT steps: fields,
  // proteins and RNG position all feed it, so any change to the kernels or
  // their constants (mobility, kappa, chi scale) moves these bytes.
  GridSim2D sim(small_config());
  sim.step(25);
  const util::Bytes frame = sim.serialize();
  EXPECT_EQ(frame.size(), 41593u);
  EXPECT_EQ(util::fnv1a(frame.data(), frame.size()), 2678348037167136785ULL);
}

}  // namespace
}  // namespace mummi::cont
