// Particle system: SoA state + bonded topology.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mdengine/types.hpp"
#include "util/bytes.hpp"

namespace mummi::md {

/// Harmonic bond between two particles: V = k/2 (r - r0)^2.
struct Bond {
  int i, j;
  real r0;
  real k;
};

/// Harmonic angle i-j-k: V = k/2 (theta - theta0)^2.
struct Angle {
  int i, j, k;
  real theta0;
  real ktheta;
};

/// The simulated state. Positions/velocities/forces are structure-of-arrays;
/// types index into the force field's species table.
struct System {
  Box box;
  std::vector<Vec3> pos;
  std::vector<Vec3> vel;
  std::vector<Vec3> force;
  std::vector<real> mass;
  std::vector<real> charge;
  std::vector<int> type;
  std::vector<int> molecule;  // molecule id, -1 for free particles
  std::vector<Bond> bonds;
  std::vector<Angle> angles;

  [[nodiscard]] std::size_t size() const { return pos.size(); }

  /// Appends a particle; returns its index.
  int add_particle(Vec3 position, int type_id, real m, real q = 0.0,
                   int mol = -1) {
    pos.push_back(position);
    vel.push_back({});
    force.push_back({});
    mass.push_back(m);
    charge.push_back(q);
    type.push_back(type_id);
    molecule.push_back(mol);
    return static_cast<int>(pos.size()) - 1;
  }

  /// Instantaneous kinetic energy (kJ/mol).
  [[nodiscard]] real kinetic_energy() const {
    real ke = 0;
    for (std::size_t i = 0; i < size(); ++i) ke += 0.5 * mass[i] * vel[i].norm2();
    return ke;
  }

  /// Instantaneous temperature from equipartition (3N degrees of freedom).
  [[nodiscard]] real temperature() const {
    if (size() == 0) return 0;
    return 2.0 * kinetic_energy() /
           (3.0 * static_cast<real>(size()) * kBoltzmann);
  }

  /// Removes net center-of-mass momentum.
  void zero_momentum();

  /// The system's bytes, field by field; the engine pins hash them.
  [[nodiscard]] util::Bytes serialize() const;
};

}  // namespace mummi::md
