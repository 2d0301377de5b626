// Backmapping: CG snapshot -> all-atom system.
//
// Paper Sec. 4.1 item 4: backmapping "retrieves a selected snapshot from the
// ddcMD trajectory, converts the CG to the AA model using a modified version
// of the backward tool, performs cycles of energy minimization and
// position-restrained MD using GROMACS, and finally converts the data
// format" for AMBER.
//
// Here: each CG bead expands to a geometric template of atoms with random
// jitter (backward's role), followed by minimization and position-restrained
// Langevin relaxation cycles.
#pragma once

#include <memory>

#include "coupling/createsim.hpp"

namespace mummi::coupling {

struct AaBuildConfig {
  int atoms_per_bead = 4;     // Martini 4:1 mapping, inverted
  static constexpr double spread = 0.12;  // template radius, nm
  int minimize_steps = 120;
  int restrained_steps = 80;  // position-restrained MD
  static constexpr double restraint_k = 500.0;
  static constexpr double temperature = 310.0;  // K
  static constexpr double dt = 0.002;  // ps (AA timestep)
  util::ThreadPool* pool = nullptr;  // MD engine pool (null: serial)
};

/// Built AA system plus the protein backbone trace (one atom per former
/// protein bead) used by secondary-structure analysis.
struct AaSystemInfo {
  md::System system;
  std::vector<int> backbone;
  int n_types = 0;
};

/// AA-like force field: smaller beads (sigma 0.30 nm), shallower wells,
/// 0.9 nm cutoff. Two types: heavy-atom (0) and protein-atom (1).
[[nodiscard]] std::shared_ptr<md::TypeMatrixForceField> make_aa_forcefield();

class Backmapper {
 public:
  explicit Backmapper(AaBuildConfig config = {});

  /// Expands a CG system to AA and relaxes it. Deterministic given `rng`.
  [[nodiscard]] AaSystemInfo build(const CgSystemInfo& cg, util::Rng& rng) const;

  [[nodiscard]] const AaBuildConfig& config() const { return config_; }

 private:
  AaBuildConfig config_;
};

}  // namespace mummi::coupling
