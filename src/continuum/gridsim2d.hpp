// GridSim2D: the continuum (macro) scale.
//
// Paper Sec. 4.1 item 1: "a continuum description of lipids that uses DDFT
// for representing lipid dynamics in terms of their density fields. Proteins
// (positions and configurational states) are represented as particles that
// interact with each other and with the lipids. This model comprises a
// 1 um x 1 um bilayer ... 2400x2400 grid, with 8 lipid types in the inner
// and 6 types in the outer leaflet."
//
// Dynamics implemented:
//   - lipids: dynamic density functional theory,
//       drho_s/dt = M div( grad rho_s + rho_s grad mu_ex,s )
//     with excess chemical potential
//       mu_ex,s = sum_t chi_st rho_t - kappa lap(rho_s) + sum_p w(state_p, s)
//                 G(x - x_p),
//     explicit finite differences on the periodic grid;
//   - proteins: overdamped Brownian particles on the free-energy landscape
//     (lipid coupling + pairwise soft repulsion), with Markov jumps between
//     configurational states.
//
// The engine is a deterministic parallel kernel engine in the mold of the MD
// force engine (DESIGN.md 4h/4j): stencils run over row blocks whose
// boundaries depend on the grid size only, protein dynamics runs over a
// periodic cell list with per-protein counter-based RNG streams, all scratch
// persists across steps (zero-allocation steady state), and serialized
// snapshots are bit-identical at any thread count and equal to the frames
// pinned in the continuum tests (EngineFrameMatchesPin,
// EnginePins.ContinuumBenchSmallFrame).
//
// The CG-to-continuum feedback updates the protein-lipid coupling weights
// w(state, species) on the fly, exactly where the paper's RDF feedback lands.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "continuum/grid2d.hpp"
#include "continuum/parallel_kernels.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mummi::obs {
class Counter;
class HistogramMetric;
}  // namespace mummi::obs

namespace mummi::cont {

/// Protein configurational states tracked by the macro model. RAS-only
/// particles and RAS-RAF complexes, each in two conformational states —
/// giving the Patch Selector its per-state queues (paper Task 2 uses five
/// in-memory queues for "different protein configurations").
enum class ProteinState : int {
  kRasA = 0,
  kRasB = 1,
  kRasRafA = 2,
  kRasRafB = 3,
};
constexpr int kNumProteinStates = 4;

struct Protein {
  double x = 0, y = 0;  // nm
  ProteinState state = ProteinState::kRasA;
};

struct ContinuumConfig {
  int grid = 192;            // cells per side (paper: 2400)
  double extent = 1000.0;    // box edge, nm (1 um)
  int inner_species = 8;     // lipid types, inner leaflet
  int outer_species = 6;     // lipid types, outer leaflet
  double dt = 0.05;          // us per step
  static constexpr double mobility = 20.0;  // nm^2 / us
  // Gradient-penalty stiffness (nm^2 energy units).
  static constexpr double kappa = 25.0;
  static constexpr double chi_scale = 0.4;  // lipid-lipid interaction magnitude
  double protein_diffusion = 1.0;  // nm^2 / us
  double protein_radius = 10.0;    // Gaussian coupling footprint, nm
  double state_switch_rate = 2e-3;  // 1/us Markov jumps between states
  int n_proteins = 30;
  std::uint64_t seed = 42;
  /// Pool the kernels thread through; null is serial. Output is
  /// bit-identical either way.
  util::ThreadPool* pool = nullptr;
};

/// One saved continuum frame — the unit the Patch Creator consumes.
struct Snapshot {
  double time_us = 0;
  int grid = 0;
  double extent = 0;
  std::vector<Grid2d> fields;  // inner species then outer species
  std::vector<Protein> proteins;

  [[nodiscard]] util::Bytes serialize() const;
  /// Throws util::FormatError on malformed bytes (truncation, field size
  /// mismatch, out-of-range protein state, non-positive grid).
  static Snapshot deserialize(const util::Bytes& bytes);
};

class GridSim2D {
 public:
  explicit GridSim2D(ContinuumConfig config);

  /// Advances by `n` DDFT steps.
  void step(int n = 1);

  [[nodiscard]] double time_us() const { return time_us_; }
  [[nodiscard]] std::uint64_t step_count() const { return step_count_; }
  [[nodiscard]] const ContinuumConfig& config() const { return config_; }
  [[nodiscard]] int n_species() const {
    return config_.inner_species + config_.outer_species;
  }
  [[nodiscard]] const Grid2d& field(int species) const { return fields_[species]; }
  [[nodiscard]] const std::vector<Protein>& proteins() const { return proteins_; }
  [[nodiscard]] util::ThreadPool* pool() const { return config_.pool; }

  /// Captures the current state for the workflow to parse into patches.
  [[nodiscard]] Snapshot snapshot() const;

  /// Feedback entry point: the aggregated CG RDFs arrive as updated
  /// protein-lipid coupling weights, read "on the fly" by the running model.
  void set_protein_lipid_coupling(ProteinState state, int species,
                                  double weight);
  [[nodiscard]] double protein_lipid_coupling(ProteinState state,
                                              int species) const;

  /// Checkpoint/restore of the full model state. Frames are versioned and
  /// carry the step counter and RNG stream, so a resumed campaign replays
  /// bit-identically; restore() rejects any other frame version.
  [[nodiscard]] util::Bytes serialize() const;
  void restore(const util::Bytes& bytes);

  /// Total lipid mass per species — conserved by the DDFT flux form; tests
  /// assert this invariant.
  [[nodiscard]] std::vector<double> species_mass() const;

 private:
  void step_lipids();
  void step_proteins();
  /// Stamps the per-state Gaussian protein footprints into footprint_
  /// (block-parallel scatter, ascending-block fold).
  void build_footprints();
  [[nodiscard]] double coupling_field_gradient(const Protein& p, int axis) const;
  /// Brownian displacement + Markov state jump for protein `a` given its
  /// repulsion+coupling force, drawing from the protein's per-step stream.
  void advance_protein(std::size_t a, double fx, double fy);

  ContinuumConfig config_;
  double h_;  // grid spacing, nm
  std::vector<Grid2d> fields_;
  std::vector<Grid2d> mu_;      // scratch: excess chemical potential
  std::vector<Grid2d> next_;    // scratch: updated densities (swapped in)
  std::vector<double> footprint_;  // scratch: [state * cells + cell]
  util::BlockScratch<double> fp_scratch_;  // per-protein-block footprints
  detail::ProteinCellBins bins_;
  std::vector<std::vector<std::size_t>> cand_scratch_;  // per-block neighbors
  std::vector<std::uint64_t> pair_counts_;              // per-block partials
  std::vector<Protein> proteins_;
  std::vector<double> coupling_;  // [state][species] weights
  std::vector<double> chi_;       // [s][t] interaction matrix
  util::Rng rng_;                 // init-time stream (fields, placement)
  double time_us_ = 0;
  std::uint64_t step_count_ = 0;

  // cont.step.* telemetry handles (stable for the process lifetime).
  obs::Counter* c_steps_ = nullptr;
  obs::Counter* c_cells_ = nullptr;
  obs::Counter* c_pairs_ = nullptr;
  obs::Counter* c_rebuilds_ = nullptr;
  obs::HistogramMetric* h_pairs_ = nullptr;
};

}  // namespace mummi::cont
