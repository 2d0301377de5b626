#include "mdengine/simulation.hpp"

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::md {

Simulation::Simulation(System system, std::shared_ptr<const ForceField> ff,
                       std::unique_ptr<Integrator> integrator,
                       SimulationConfig config)
    : system_(std::move(system)),
      ff_(std::move(ff)),
      integrator_(std::move(integrator)),
      config_(config),
      neighbors_(ff_->cutoff(), config.skin) {
  MUMMI_CHECK(ff_ != nullptr && integrator_ != nullptr);
}

void Simulation::set_restraints(Restraints restraints) {
  restraints_ = std::move(restraints);
  have_restraints_ = true;
}

void Simulation::clear_restraints() {
  restraints_ = Restraints{};
  have_restraints_ = false;
}

ForceFn Simulation::force_fn() {
  return [this](System& s) {
    ensure_neighbors();
    real pe = ff_->compute(s, neighbors_, config_.pool);
    pe += compute_bonded(s, config_.pool);
    if (have_restraints_) pe += restraints_.compute(s);
    return pe;
  };
}

void Simulation::ensure_neighbors() {
  if (neighbors_.needs_rebuild(system_, config_.pool)) {
    neighbors_.build(system_, config_.pool);
    ++rebuilds_;
  }
}

void Simulation::run(long nsteps) {
  const ForceFn forces = force_fn();
  for (long n = 0; n < nsteps; ++n) {
    last_pe_ = integrator_->step(system_, forces, config_.dt);
    ++step_;
    if (config_.frame_interval > 0 && step_ % config_.frame_interval == 0 &&
        frame_fn_)
      frame_fn_(system_, step_, last_pe_);
  }
}

real Simulation::minimize_energy(int max_steps, real f_tol) {
  last_pe_ = minimize(system_, force_fn(), max_steps, 0.01, f_tol);
  return last_pe_;
}

}  // namespace mummi::md
