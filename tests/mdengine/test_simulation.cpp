#include "mdengine/simulation.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "mdengine/integrator.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mummi::md {
namespace {

std::shared_ptr<TypeMatrixForceField> fluid_ff() {
  auto ff = std::make_shared<TypeMatrixForceField>(1, 1.2);
  ff->set_pair(0, 0, {2.0, 0.47});
  return ff;
}

System small_fluid(int n, real box_len, std::uint64_t seed) {
  System s;
  s.box.length = {box_len, box_len, box_len};
  util::Rng rng(seed);
  const int per_side = static_cast<int>(std::ceil(std::cbrt(n)));
  const real spacing = box_len / per_side;
  int added = 0;
  for (int i = 0; i < per_side && added < n; ++i)
    for (int j = 0; j < per_side && added < n; ++j)
      for (int k = 0; k < per_side && added < n; ++k) {
        const int idx = s.add_particle(
            {(i + 0.5) * spacing, (j + 0.5) * spacing, (k + 0.5) * spacing},
            0, 72.0);
        s.vel[idx] = {0.1 * rng.normal(), 0.1 * rng.normal(),
                      0.1 * rng.normal()};
        ++added;
      }
  return s;
}

Simulation make_sim(SimulationConfig cfg = {}, int n = 27,
                    std::uint64_t seed = 1) {
  return Simulation(small_fluid(n, 3.0, seed), fluid_ff(),
                    std::make_unique<Langevin>(310.0, 2.0, util::Rng(seed)),
                    cfg);
}

TEST(Simulation, RunAdvancesSteps) {
  auto sim = make_sim();
  EXPECT_EQ(sim.step_count(), 0);
  sim.run(50);
  EXPECT_EQ(sim.step_count(), 50);
}

TEST(Simulation, FrameCallbackCadence) {
  SimulationConfig cfg;
  cfg.frame_interval = 10;
  auto sim = make_sim(cfg);
  std::vector<long> frames;
  sim.on_frame([&](const System&, long step, real) { frames.push_back(step); });
  sim.run(35);
  EXPECT_EQ(frames, (std::vector<long>{10, 20, 30}));
}

TEST(Simulation, FrameCallbackSeesLiveSystem) {
  SimulationConfig cfg;
  cfg.frame_interval = 5;
  auto sim = make_sim(cfg);
  std::size_t seen = 0;
  sim.on_frame([&](const System& s, long, real) { seen = s.size(); });
  sim.run(5);
  EXPECT_EQ(seen, 27u);
}

TEST(Simulation, MinimizeThenRunStable) {
  auto sim = make_sim();
  const real e_min = sim.minimize_energy(100);
  sim.run(100);
  EXPECT_TRUE(std::isfinite(sim.potential_energy()));
  EXPECT_TRUE(std::isfinite(e_min));
  // System did not blow up: temperature within an order of the thermostat.
  EXPECT_LT(sim.system().temperature(), 3100.0);
}

TEST(Simulation, NeighborRebuildsHappen) {
  auto sim = make_sim();
  sim.run(200);
  EXPECT_GT(sim.neighbor_rebuilds(), 1u);
}

class SimulationCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mummi_simckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(SimulationCheckpoint, RestoreReproducesState) {
  SimulationConfig cfg;
  cfg.checkpoint_interval = 25;
  cfg.checkpoint_path = (dir_ / "sim.ckpt").string();
  auto sim = make_sim(cfg);
  sim.run(50);  // checkpoints at 25 and 50
  const auto pos_at_50 = sim.system().pos;

  auto restored = make_sim(cfg, 27, 99);  // different seed/state
  EXPECT_TRUE(restored.restore());
  EXPECT_EQ(restored.step_count(), 50);
  for (std::size_t i = 0; i < pos_at_50.size(); ++i) {
    EXPECT_DOUBLE_EQ(restored.system().pos[i].x, pos_at_50[i].x);
    EXPECT_DOUBLE_EQ(restored.system().vel[i].y, sim.system().vel[i].y);
  }
}

TEST_F(SimulationCheckpoint, RestoreWithoutCheckpointReturnsFalse) {
  SimulationConfig cfg;
  cfg.checkpoint_interval = 10;
  cfg.checkpoint_path = (dir_ / "none.ckpt").string();
  auto sim = make_sim(cfg);
  EXPECT_FALSE(sim.restore());
}

TEST_F(SimulationCheckpoint, ExplicitCheckpointAnytime) {
  SimulationConfig cfg;
  cfg.checkpoint_interval = 1000000;  // never on schedule
  cfg.checkpoint_path = (dir_ / "manual.ckpt").string();
  auto sim = make_sim(cfg);
  sim.run(7);
  sim.checkpoint();
  auto restored = make_sim(cfg);
  EXPECT_TRUE(restored.restore());
  EXPECT_EQ(restored.step_count(), 7);
}

TEST_F(SimulationCheckpoint, RestoreRejectsForgedSystemBytes) {
  // A checkpoint whose system has a bond past the last particle: the force
  // loops would index out of bounds, so restore throws instead.
  SimulationConfig cfg;
  cfg.checkpoint_interval = 1000000;
  cfg.checkpoint_path = (dir_ / "forged.ckpt").string();
  System forged = small_fluid(8, 3.0, 1);
  forged.bonds.push_back({0, 8, 0.47, 1250});
  util::ByteWriter w;
  w.i64(5);
  w.f64(0.0);
  w.bytes(forged.serialize());
  util::CheckpointFile(cfg.checkpoint_path).save(w.data());
  auto sim = make_sim(cfg);
  EXPECT_THROW(sim.restore(), util::FormatError);
  EXPECT_EQ(sim.step_count(), 0);  // nothing committed from the bad payload
}

TEST_F(SimulationCheckpoint, MissingPathRejected) {
  SimulationConfig cfg;
  cfg.checkpoint_interval = 10;
  EXPECT_THROW(make_sim(cfg), util::Error);
}

TEST(Simulation, RestraintsHoldParticleNearReference) {
  SimulationConfig cfg;
  auto sim = make_sim(cfg, 8, 3);
  const Vec3 ref = sim.system().pos[0];
  Restraints r;
  r.indices = {0};
  r.references = {ref};
  r.k = 5000.0;
  sim.set_restraints(std::move(r));
  sim.run(300);
  EXPECT_LT(sim.system().box.min_image(sim.system().pos[0], ref).norm(), 0.3);
  sim.clear_restraints();
  sim.run(10);  // still runs after clearing
}

TEST(Simulation, DeterministicForSeed) {
  auto a = make_sim({}, 27, 5);
  auto b = make_sim({}, 27, 5);
  a.run(60);
  b.run(60);
  for (std::size_t i = 0; i < a.system().size(); ++i)
    EXPECT_DOUBLE_EQ(a.system().pos[i].x, b.system().pos[i].x);
}

}  // namespace
}  // namespace mummi::md
