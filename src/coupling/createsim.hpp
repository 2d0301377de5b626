// createsim: continuum patch -> equilibrated CG particle system.
//
// Paper Sec. 4.1 item 2: "The createsim module transforms a patch from
// continuum representation into a particle-based one. The insane tool is
// used to create a CG representation of the membrane and proteins. Once
// constructed, GROMACS is used to relax the membrane and proteins into a
// more natural, equilibrated, state."
//
// Here: lipids are placed leaflet-by-leaflet by sampling the patch density
// fields (insane's role), proteins are built as bead chains at the patch
// center, and the system is relaxed by steepest-descent minimization plus a
// short thermostatted run (GROMACS's role).
#pragma once

#include <memory>

#include "coupling/patch.hpp"
#include "mdengine/force_field.hpp"
#include "mdengine/system.hpp"
#include "util/rng.hpp"

namespace mummi::util {
class ThreadPool;
}  // namespace mummi::util

namespace mummi::coupling {

/// Bead-type layout for a CG membrane with S lipid species:
/// types [0, S) are per-species head beads, S is the shared tail bead,
/// S+1 is the protein backbone bead.
struct CgTypeLayout {
  int n_species = 0;
  [[nodiscard]] int head(int species) const { return species; }
  [[nodiscard]] int tail() const { return n_species; }
  [[nodiscard]] int protein() const { return n_species + 1; }
  [[nodiscard]] int n_types() const { return n_species + 2; }
};

struct CgBuildConfig {
  double lipids_per_nm2 = 0.25;  // per leaflet (Martini bilayers: ~1.5; kept
                                 // lower so repro-scale patches stay small)
  static constexpr double box_height = 12.0;  // nm
  static constexpr int ras_beads = 8;
  static constexpr int raf_beads = 6;
  int minimize_steps = 150;
  int relax_steps = 100;         // short thermostatted equilibration
  static constexpr double temperature = 310.0;  // K
  static constexpr double dt = 0.02;  // ps
  util::ThreadPool* pool = nullptr;  // MD engine pool (null: serial)
};

/// A built CG system plus the index bookkeeping the in-situ analysis needs.
struct CgSystemInfo {
  md::System system;
  CgTypeLayout layout;
  std::vector<int> protein_beads;  // backbone chain, RAS first
  int ras_beads = 0;               // how many of protein_beads are RAS
  /// Lipid head-bead indices per species (RDF selections).
  std::vector<std::vector<int>> heads_by_species;
};

/// Martini-like CG force field for the given species count (cutoff 1.2 nm,
/// sigma 0.47 nm, interaction matrix with species-dependent mixing).
[[nodiscard]] std::shared_ptr<md::TypeMatrixForceField> make_cg_forcefield(
    int n_species);

class CreateSim {
 public:
  explicit CreateSim(CgBuildConfig config = {});

  /// Builds and relaxes a CG system from a patch. Deterministic given `rng`.
  [[nodiscard]] CgSystemInfo build(const Patch& patch, util::Rng& rng) const;

  [[nodiscard]] const CgBuildConfig& config() const { return config_; }

 private:
  CgBuildConfig config_;
};

}  // namespace mummi::coupling
