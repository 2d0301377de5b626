#include "coupling/encoders.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mummi::coupling {

namespace {
constexpr int kPoolGrid = 3;  // 3x3 macro-pooling of the patch
}

PatchEncoder::PatchEncoder(int n_species, std::uint64_t seed, int out_dim)
    : n_species_(n_species),
      mlp_({n_species * kPoolGrid * kPoolGrid + cont::kNumProteinStates, 32,
            16, out_dim},
           seed) {}

std::vector<float> PatchEncoder::features(const Patch& patch) const {
  MUMMI_CHECK_MSG(patch.n_species == n_species_,
                  "patch species count mismatch");
  std::vector<float> f(static_cast<std::size_t>(n_species_) * kPoolGrid *
                           kPoolGrid + cont::kNumProteinStates,
                       0.0f);
  // Mean-pool each species over a kPoolGrid x kPoolGrid macro grid.
  const int cell = patch.grid / kPoolGrid;
  std::size_t cursor = 0;
  for (int s = 0; s < n_species_; ++s)
    for (int bi = 0; bi < kPoolGrid; ++bi)
      for (int bj = 0; bj < kPoolGrid; ++bj) {
        float sum = 0;
        int count = 0;
        for (int i = bi * cell; i < (bi + 1) * cell; ++i)
          for (int j = bj * cell; j < (bj + 1) * cell; ++j) {
            sum += patch.density_at(s, i, j);
            ++count;
          }
        f[cursor++] = count > 0 ? sum / static_cast<float>(count) : 0.0f;
      }
  // Protein-state composition.
  for (const auto& p : patch.proteins)
    f[cursor + static_cast<std::size_t>(p.state)] += 1.0f;
  return f;
}

std::vector<float> PatchEncoder::encode(const Patch& patch) const {
  return mlp_.forward(features(patch));
}

CgFrameInfo compute_frame_info(const md::System& system,
                               const std::vector<int>& protein_beads,
                               int ras_beads, std::uint64_t sim_id,
                               long step) {
  MUMMI_CHECK_MSG(ras_beads >= 2 &&
                      static_cast<std::size_t>(ras_beads) <= protein_beads.size(),
                  "invalid protein bead partition");
  CgFrameInfo info;
  info.sim_id = sim_id;
  info.step = step;

  // RAS principal axis: first -> last RAS bead.
  const md::Vec3 ras_axis = system.box.min_image(
      system.pos[protein_beads[static_cast<std::size_t>(ras_beads) - 1]],
      system.pos[protein_beads[0]]);
  const md::real axis_norm = std::max(ras_axis.norm(), md::real(1e-9));
  // Tilt: angle of the RAS axis against the membrane normal (z), degrees.
  info.tilt = static_cast<float>(
      std::acos(std::abs(ras_axis.z) / axis_norm) * 180.0 / M_PI);
  // Rotation: azimuth of the axis in the membrane plane, degrees [0, 360).
  double rot = std::atan2(ras_axis.y, ras_axis.x) * 180.0 / M_PI;
  if (rot < 0) rot += 360.0;
  info.rotation = static_cast<float>(rot);

  // Separation: RAS centroid to RAF centroid (0 when no RAF beads).
  if (static_cast<std::size_t>(ras_beads) < protein_beads.size()) {
    md::Vec3 ras_c{}, raf_c{};
    for (int b = 0; b < ras_beads; ++b) ras_c += system.pos[protein_beads[b]];
    ras_c *= 1.0 / ras_beads;
    const auto n_raf = protein_beads.size() - static_cast<std::size_t>(ras_beads);
    for (std::size_t b = static_cast<std::size_t>(ras_beads);
         b < protein_beads.size(); ++b)
      raf_c += system.pos[protein_beads[b]];
    raf_c *= 1.0 / static_cast<md::real>(n_raf);
    info.separation =
        static_cast<float>(system.box.min_image(ras_c, raf_c).norm());
  }
  return info;
}

}  // namespace mummi::coupling
