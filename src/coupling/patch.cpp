#include "coupling/patch.hpp"

#include <cmath>

#include "util/error.hpp"

namespace mummi::coupling {

PatchCreator::PatchCreator(int patch_grid, double patch_extent)
    : patch_grid_(patch_grid), patch_extent_(patch_extent) {
  MUMMI_CHECK_MSG(patch_grid > 1 && patch_extent > 0, "invalid patch shape");
}

std::vector<Patch> PatchCreator::create(const cont::Snapshot& snapshot,
                                        std::uint64_t& next_id) const {
  std::vector<Patch> out;
  out.reserve(snapshot.proteins.size());
  const double h = snapshot.extent / snapshot.grid;  // continuum spacing
  const double half = 0.5 * patch_extent_;
  const double sample_dx = patch_extent_ / (patch_grid_ - 1);

  for (const auto& center : snapshot.proteins) {
    Patch patch;
    patch.id = next_id++;
    patch.time_us = snapshot.time_us;
    patch.grid = patch_grid_;
    patch.extent = patch_extent_;
    patch.n_species = static_cast<int>(snapshot.fields.size());
    patch.density.resize(static_cast<std::size_t>(patch.n_species) *
                         patch_grid_ * patch_grid_);

    // Resample each species field over the window centered on the protein.
    std::size_t cursor = 0;
    for (const auto& field : snapshot.fields) {
      for (int i = 0; i < patch_grid_; ++i) {
        const double x = center.x - half + i * sample_dx;
        for (int j = 0; j < patch_grid_; ++j) {
          const double y = center.y - half + j * sample_dx;
          patch.density[cursor++] =
              static_cast<float>(field.interpolate(x / h, y / h));
        }
      }
    }

    // Collect proteins inside the window (periodic minimum image), center
    // protein first, with local coordinates.
    patch.proteins.push_back(PatchProtein{half, half, center.state});
    for (const auto& other : snapshot.proteins) {
      if (&other == &center) continue;
      double dx = other.x - center.x;
      double dy = other.y - center.y;
      dx -= snapshot.extent * std::round(dx / snapshot.extent);
      dy -= snapshot.extent * std::round(dy / snapshot.extent);
      if (std::abs(dx) <= half && std::abs(dy) <= half)
        patch.proteins.push_back(PatchProtein{half + dx, half + dy, other.state});
    }
    out.push_back(std::move(patch));
  }
  return out;
}

}  // namespace mummi::coupling
