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
  if (config_.checkpoint_interval > 0)
    MUMMI_CHECK_MSG(!config_.checkpoint_path.empty(),
                    "checkpointing enabled without a path");
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
    if (config_.checkpoint_interval > 0 &&
        step_ % config_.checkpoint_interval == 0)
      checkpoint();
  }
}

real Simulation::minimize_energy(int max_steps, real f_tol) {
  last_pe_ = minimize(system_, force_fn(), max_steps, 0.01, f_tol);
  return last_pe_;
}

void Simulation::checkpoint() const {
  MUMMI_CHECK_MSG(!config_.checkpoint_path.empty(), "no checkpoint path");
  util::ByteWriter w;
  w.i64(step_);
  w.f64(last_pe_);
  w.bytes(system_.serialize());
  util::CheckpointFile(config_.checkpoint_path).save(w.data());
}

bool Simulation::restore() {
  MUMMI_CHECK_MSG(!config_.checkpoint_path.empty(), "no checkpoint path");
  auto payload = util::CheckpointFile(config_.checkpoint_path).load();
  if (!payload) return false;
  // Decode everything before committing, so a bad payload changes nothing.
  util::ByteReader r(*payload);
  const std::int64_t step = r.i64();
  const double last_pe = r.f64();
  System system = System::deserialize(r.bytes());
  step_ = step;
  last_pe_ = last_pe;
  system_ = std::move(system);
  return true;
}

}  // namespace mummi::md
