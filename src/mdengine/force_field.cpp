#include "mdengine/force_field.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::md {

namespace {
/// Coulomb prefactor in kJ mol^-1 nm e^-2 (1/(4 pi eps0)).
constexpr real kCoulomb = 138.935458;
}  // namespace

TypeMatrixForceField::TypeMatrixForceField(int n_types, real cutoff)
    : n_types_(n_types), cutoff_(cutoff), coul_pre_(kCoulomb / eps_r_) {
  MUMMI_CHECK_MSG(n_types > 0, "need at least one particle type");
  MUMMI_CHECK_MSG(cutoff > 0, "cutoff must be positive");
  const auto cells = static_cast<std::size_t>(n_types) *
                     static_cast<std::size_t>(n_types);
  table_.resize(cells);
  c12_.assign(cells, 0);
  c6_.assign(cells, 0);
  shift_.assign(cells, 0);
  f12_.assign(cells, 0);
  f6_.assign(cells, 0);
}

std::size_t TypeMatrixForceField::index(int a, int b) const {
  MUMMI_CHECK_MSG(a >= 0 && a < n_types_ && b >= 0 && b < n_types_,
                  "type index out of range");
  return static_cast<std::size_t>(a) * static_cast<std::size_t>(n_types_) +
         static_cast<std::size_t>(b);
}

void TypeMatrixForceField::set_pair(int a, int b, PairParams params) {
  const real s2 = params.sigma * params.sigma;
  const real s6 = s2 * s2 * s2;
  const real c6 = 4 * params.epsilon * s6;
  const real c12 = c6 * s6;
  const real irc2 = 1 / (cutoff_ * cutoff_);
  const real irc6 = irc2 * irc2 * irc2;
  // Same factorization the kernel uses, so V(cutoff) cancels to ~epsilon.
  const real shift = (c12 * irc6 - c6) * irc6;
  for (const std::size_t t : {index(a, b), index(b, a)}) {
    table_[t] = params;
    c12_[t] = c12;
    c6_[t] = c6;
    shift_[t] = shift;
    f12_[t] = 12 * c12;
    f6_[t] = 6 * c6;
  }
}

PairParams TypeMatrixForceField::pair(int a, int b) const {
  return table_[index(a, b)];
}

void TypeMatrixForceField::set_dielectric(real eps_r) {
  MUMMI_CHECK_MSG(eps_r > 0, "relative dielectric must be positive");
  eps_r_ = eps_r;
  coul_pre_ = kCoulomb / eps_r;
}

real TypeMatrixForceField::compute(System& system,
                                   const NeighborList& neighbors,
                                   util::ThreadPool* pool) const {
  const std::size_t n = system.size();
  if (n == 0) return 0;
  MUMMI_CHECK_MSG(neighbors.row_start().size() == n + 1,
                  "neighbor list was built for a different system");

  // Validate the whole type array once per call (the old kernel
  // bounds-checked every pair); the inner loop indexes unchecked, with a
  // debug-only assert to catch types mutated mid-step.
  const int* type = system.type.data();
  {
    const auto nt = static_cast<unsigned>(n_types_);
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i)
      ok &= static_cast<unsigned>(type[i]) < nt;
    MUMMI_CHECK_MSG(ok, "system.type contains an out-of-range species index");
  }

  const auto& row_start = neighbors.row_start();
  const int* nbr = neighbors.neighbors().data();
  const real rc2 = cutoff_ * cutoff_;
  const real inv_rc = 1 / cutoff_;
  const real pre = coul_pre_;
  const Box box = system.box;
  const Vec3* pos = system.pos.data();
  const real* charge = system.charge.data();
  const real* c12t = c12_.data();
  const real* c6t = c6_.data();
  const real* shiftt = shift_.data();
  const real* f12t = f12_.data();
  const real* f6t = f6_.data();
  const auto ntypes = static_cast<std::size_t>(n_types_);

  // Kernel blocks: ~16 per pass for large inputs (slack for an 8-worker
  // pool), never below 512 items so small systems skip the fan-out. Block
  // seams decide the force fold order, so the constants are part of the
  // bit-identity contract.
  const std::size_t block = util::block_size(n, 512, 16);
  const std::size_t nblocks = util::block_count(n, block);
  // One scratch per *calling* thread, bound through a local reference so the
  // block lambda captures this thread's instance — pool workers referencing
  // the thread_local directly would each see their own (empty) scratch.
  static thread_local util::BlockScratch<Vec3> scratch_tls;
  static thread_local std::vector<real> energy_tls;
  util::BlockScratch<Vec3>& scratch = scratch_tls;
  std::vector<real>& energy_slots = energy_tls;
  scratch.reset(nblocks, n);
  energy_slots.assign(nblocks, 0);

  util::for_blocks(pool, n, block, [&](std::size_t begin, std::size_t end) {
    const std::size_t b = begin / block;
    Vec3* f = scratch.block(b);
    real energy = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Vec3 pi = pos[i];
      const real qi = charge[i];
      const std::size_t base = static_cast<std::size_t>(type[i]) * ntypes;
      Vec3 fi{};
      for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k) {
        const auto j = static_cast<std::size_t>(nbr[k]);
        MUMMI_DEBUG_ASSERT(static_cast<unsigned>(type[j]) <
                               static_cast<unsigned>(n_types_),
                           "type index out of range");
        const Vec3 d = box.min_image(pi, pos[j]);
        const real r2 = d.norm2();
        if (r2 >= rc2 || r2 == 0) continue;
        const std::size_t t = base + static_cast<std::size_t>(type[j]);
        real f_over_r = 0;

        const real c12 = c12t[t];
        if (c12 != 0) {
          const real ir2 = 1 / r2;
          const real ir6 = ir2 * ir2 * ir2;
          energy += (c12 * ir6 - c6t[t]) * ir6 - shiftt[t];
          f_over_r += (f12t[t] * ir6 - f6t[t]) * ir6 * ir2;
        }

        const real qq = qi * charge[j];
        if (qq != 0) {
          const real r = std::sqrt(r2);
          energy += pre * qq * (1 / r - inv_rc);
          f_over_r += pre * qq / (r2 * r);
        }

        const Vec3 fv = f_over_r * d;
        fi += fv;
        f[j] -= fv;
      }
      f[i] += fi;
    }
    energy_slots[b] = energy;
  });

  scratch.fold(system.force.data(), pool, block);
  static obs::Counter& pair_counter = obs::counter("md.force.pairs");
  pair_counter.inc(neighbors.n_pairs());
  // Energy partials summed in ascending slot order.
  return std::accumulate(energy_slots.begin(), energy_slots.end(), real{0});
}

real compute_bonded(System& system, util::ThreadPool* pool) {
  const std::size_t nbonds = system.bonds.size();
  const std::size_t nangles = system.angles.size();
  if (nbonds + nangles == 0) return 0;
  const std::size_t n = system.size();
  const std::size_t bond_block = util::block_size(nbonds, 512, 16);
  const std::size_t nb_bonds = util::block_count(nbonds, bond_block);
  const std::size_t angle_block = util::block_size(nangles, 512, 16);
  const std::size_t nb_angles = util::block_count(nangles, angle_block);

  // See compute(): capture the caller's instances, not the workers'
  // thread_locals.
  static thread_local util::BlockScratch<Vec3> scratch_tls;
  static thread_local std::vector<real> energy_tls;
  util::BlockScratch<Vec3>& scratch = scratch_tls;
  std::vector<real>& energy_slots = energy_tls;
  scratch.reset(std::max(nb_bonds, nb_angles), n);
  energy_slots.assign(nb_bonds + nb_angles, 0);
  const Box box = system.box;
  const Vec3* pos = system.pos.data();

  // Bond blocks, then angle blocks on top of the same buffers (the passes
  // are separated by a join, and block b always lands in buffer b) — one
  // fixed-order reduction covers both terms.
  util::for_blocks(
      pool, nbonds, bond_block, [&](std::size_t begin, std::size_t end) {
        const std::size_t b = begin / bond_block;
        Vec3* f = scratch.block(b);
        real energy = 0;
        for (std::size_t k = begin; k < end; ++k) {
          const Bond& bond = system.bonds[k];
          const Vec3 d = box.min_image(pos[bond.i], pos[bond.j]);
          const real r = d.norm();
          if (r == 0) continue;
          const real dr = r - bond.r0;
          energy += 0.5 * bond.k * dr * dr;
          const Vec3 fv = (-bond.k * dr / r) * d;
          f[bond.i] += fv;
          f[bond.j] -= fv;
        }
        energy_slots[b] = energy;
      });

  util::for_blocks(
      pool, nangles, angle_block, [&](std::size_t begin, std::size_t end) {
        const std::size_t b = begin / angle_block;
        Vec3* f = scratch.block(b);
        real energy = 0;
        for (std::size_t k = begin; k < end; ++k) {
          const Angle& angle = system.angles[k];
          const Vec3 rij = box.min_image(pos[angle.i], pos[angle.j]);
          const Vec3 rkj = box.min_image(pos[angle.k], pos[angle.j]);
          const real nij = rij.norm();
          const real nkj = rkj.norm();
          if (nij == 0 || nkj == 0) continue;
          real cos_t = rij.dot(rkj) / (nij * nkj);
          cos_t = std::clamp(cos_t, static_cast<real>(-1),
                             static_cast<real>(1));
          const real theta = std::acos(cos_t);
          const real dtheta = theta - angle.theta0;
          energy += 0.5 * angle.ktheta * dtheta * dtheta;
          // force_i = -dV/dtheta * dtheta/dr_i; dtheta/dcos = -1/sin(theta),
          // so the two minus signs cancel. Guard sin ~ 0 at collinear
          // geometries.
          const real sin_t = std::sqrt(
              std::max(static_cast<real>(1e-12), 1 - cos_t * cos_t));
          const real coeff = angle.ktheta * dtheta / sin_t;
          const Vec3 di =
              (1 / nij) * ((1 / nkj) * rkj - (cos_t / nij) * rij);
          const Vec3 dk =
              (1 / nkj) * ((1 / nij) * rij - (cos_t / nkj) * rkj);
          f[angle.i] += coeff * di;
          f[angle.k] += coeff * dk;
          f[angle.j] -= coeff * (di + dk);
        }
        energy_slots[nb_bonds + b] = energy;
      });

  scratch.fold(system.force.data(), pool, util::block_size(n, 512, 16));
  // Energy partials summed in ascending slot order.
  return std::accumulate(energy_slots.begin(), energy_slots.end(), real{0});
}

real Restraints::compute(System& system) const {
  MUMMI_CHECK(indices.size() == references.size());
  real energy = 0;
  for (std::size_t n = 0; n < indices.size(); ++n) {
    const int i = indices[n];
    const Vec3 d = system.box.min_image(system.pos[i], references[n]);
    energy += 0.5 * k * d.norm2();
    system.force[i] -= k * d;
  }
  return energy;
}

}  // namespace mummi::md
