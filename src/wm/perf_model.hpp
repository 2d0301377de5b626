// Calibrated performance and data-rate models (paper Sec. 4.1).
//
// The campaign simulator drives the *real* coordination code; only job
// durations, simulation throughputs and data volumes come from these models,
// each calibrated to the numbers the paper reports:
//   - GridSim2D: ~0.96 ms/day at 3600 cores; snapshots every 1 us of sim
//     time = every ~90 s of wall time, ~374 MB each;
//   - ddcMD CG: ~1.04 us/day/GPU at ~140k particles, 4.6 MB frames every
//     41.5 s plus 17 KB analysis output; ~20% degradation episode (the MPI
//     mis-compile) for the first third of the campaign;
//   - AMBER AA: ~13.98 ns/day/GPU at ~1.575M atoms, 18 MB frames every
//     ~10.3 min;
//   - createsim: ~1.5 h on 24 cores; backmapping: ~2 h on 18 cores
//     (2.9 GB local + 0.5 GB GPFS per run).
#pragma once

#include <cstdint>

#include "sched/job.hpp"
#include "util/rng.hpp"

namespace mummi::wm {

struct PerfModel {
  // Measured (Sec. 4.1), hence constant; only the setup means vary.

  // Continuum.
  static constexpr double continuum_ms_per_day_ref = 0.96;  // at ref_cores
  static constexpr int continuum_ref_cores = 3600;
  static constexpr double continuum_scaling_exponent = 0.9;  // sublinear

  // CG (ddcMD + Martini on one V100).
  static constexpr double cg_us_per_day = 1.04;
  static constexpr double cg_ref_particles = 140000;
  static constexpr double cg_size_sigma = 1200;    // particle-count spread
  static constexpr double cg_perf_jitter = 0.02;   // relative per-sim noise
  static constexpr double cg_slow_tail_prob = 0.03;  // slow nodes (Fig. 4)
  static constexpr double cg_slow_tail_factor = 0.75;
  static constexpr double cg_degraded_factor = 0.80;  // the MPI episode

  // AA (AMBER on one V100).
  static constexpr double aa_ns_per_day = 13.98;
  static constexpr double aa_ref_atoms = 1.575e6;
  static constexpr double aa_size_sigma = 12000;
  static constexpr double aa_perf_jitter = 0.015;
  static constexpr double aa_slow_tail_prob = 0.03;
  static constexpr double aa_slow_tail_factor = 0.85;

  // Setup jobs.
  double createsim_mean_s = 5400;                  // ~1.5 h
  static constexpr double createsim_sigma = 0.25;  // lognormal sigma
  double backmap_mean_s = 7200;                    // ~2 h
  static constexpr double backmap_sigma = 0.25;

  /// Continuum throughput (ms of model time per day) on `cores` CPU cores.
  [[nodiscard]] double continuum_ms_per_day(int cores) const;

  /// Draws a CG system size (particles) and its achieved rate in us/s.
  /// `degraded` applies the MPI-episode factor.
  struct CgSample {
    double particles;
    double us_per_day;
    [[nodiscard]] double us_per_second() const { return us_per_day / 86400.0; }
  };
  [[nodiscard]] CgSample sample_cg(util::Rng& rng, bool degraded) const;

  struct AaSample {
    double atoms;
    double ns_per_day;
    [[nodiscard]] double ns_per_second() const { return ns_per_day / 86400.0; }
  };
  [[nodiscard]] AaSample sample_aa(util::Rng& rng) const;

  [[nodiscard]] double sample_createsim_seconds(util::Rng& rng) const;
  [[nodiscard]] double sample_backmap_seconds(util::Rng& rng) const;
};

/// Data production rates for the campaign ledger (bytes and file counts).
struct RateModel {
  static constexpr double continuum_snapshot_bytes = 374e6;
  static constexpr double continuum_snapshot_interval_s = 90;
  static constexpr double patch_bytes = 70e3;

  static constexpr double cg_frame_bytes = 4.6e6;
  static constexpr double cg_frame_interval_s = 41.5;
  static constexpr double cg_analysis_bytes = 17e3;
  static constexpr double frame_id_bytes = 850;

  static constexpr double aa_frame_bytes = 18e6;
  static constexpr double aa_frame_interval_s = 618;  // 10.3 min

  static constexpr double backmap_local_bytes = 2.9e9;
  static constexpr double backmap_gpfs_bytes = 0.5e9;
};

/// Running totals of campaign data (Sec. 5.2: "several TBs of new data per
/// day and over a billion files in total"). Trajectory frames live on
/// node-local RAM disk ("a conscious mix of the shared filesystem and local
/// on-node RAM disk"); the persisted categories hit GPFS.
struct DataLedger {
  double bytes_continuum = 0;    // persisted
  double bytes_patches = 0;      // persisted
  double bytes_cg_frames = 0;    // RAM disk
  double bytes_cg_analysis = 0;  // persisted
  double bytes_aa_frames = 0;    // RAM disk
  double bytes_backmap = 0;      // mostly RAM disk; 0.5/3.4 GB persisted

  std::uint64_t files_total = 0;

  [[nodiscard]] double bytes_total() const {
    return bytes_continuum + bytes_patches + bytes_cg_frames +
           bytes_cg_analysis + bytes_aa_frames + bytes_backmap;
  }
  /// Fraction of trajectory frames archived from RAM disk to GPFS tar
  /// archives for retention.
  static constexpr double kFrameArchiveFraction = 0.10;

  [[nodiscard]] double bytes_persisted() const {
    return bytes_continuum + bytes_patches + bytes_cg_analysis +
           bytes_backmap * (0.5 / 3.4) +
           kFrameArchiveFraction * (bytes_cg_frames + bytes_aa_frames);
  }
};

}  // namespace mummi::wm
