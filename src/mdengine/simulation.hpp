// Simulation driver: force field + neighbor list + integrator + hooks.
//
// Plays the role ddcMD/AMBER play in the paper: advance the system, emit
// trajectory frames at a fixed cadence for the in-situ analysis.
#pragma once

#include <functional>
#include <memory>

#include "mdengine/force_field.hpp"
#include "mdengine/integrator.hpp"
#include "mdengine/system.hpp"

namespace mummi::util {
class ThreadPool;
}  // namespace mummi::util

namespace mummi::md {

struct SimulationConfig {
  real dt = 0.02;            // ps (Martini-scale); AA uses ~0.002
  static constexpr real skin = 0.3;  // neighbor-list skin, nm
  int frame_interval = 100;  // steps between frame callbacks (0 = off)
  /// Pool the kernels thread through; null is serial. Output is
  /// bit-identical either way.
  util::ThreadPool* pool = nullptr;
};

class Simulation {
 public:
  /// Called with the system, the step index and the potential energy each
  /// time a frame is due — the attachment point for in-situ analysis.
  using FrameFn = std::function<void(const System&, long step, real pe)>;

  Simulation(System system, std::shared_ptr<const ForceField> ff,
             std::unique_ptr<Integrator> integrator, SimulationConfig config);

  /// Adds position restraints (backmapping's restrained relaxation).
  void set_restraints(Restraints restraints);
  void clear_restraints();

  void on_frame(FrameFn fn) { frame_fn_ = std::move(fn); }

  /// Advances `nsteps`, maintaining the neighbor list and firing frame
  /// callbacks on schedule.
  void run(long nsteps);

  /// Steepest-descent relaxation (does not advance step count).
  real minimize_energy(int max_steps, real f_tol = 10.0);

  [[nodiscard]] const System& system() const { return system_; }
  [[nodiscard]] System& system() { return system_; }
  [[nodiscard]] long step_count() const { return step_; }
  [[nodiscard]] real potential_energy() const { return last_pe_; }
  [[nodiscard]] std::size_t neighbor_rebuilds() const { return rebuilds_; }
  [[nodiscard]] const NeighborList& neighbors() const { return neighbors_; }
  [[nodiscard]] util::ThreadPool* pool() const { return config_.pool; }

 private:
  [[nodiscard]] ForceFn force_fn();
  void ensure_neighbors();

  System system_;
  std::shared_ptr<const ForceField> ff_;
  std::unique_ptr<Integrator> integrator_;
  SimulationConfig config_;
  NeighborList neighbors_;
  Restraints restraints_;
  bool have_restraints_ = false;
  FrameFn frame_fn_;
  long step_ = 0;
  real last_pe_ = 0;
  std::size_t rebuilds_ = 0;
};

}  // namespace mummi::md
