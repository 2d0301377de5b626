#include "wm/insitu.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/rng.hpp"

namespace mummi::wm {

namespace {

// Miniature CG stand-in per sim: 4 lipid species x 4 head beads + a 6-bead
// RAS-RAF backbone (4 RAS + 2 RAF) in a 4 x 4 x 8 nm box.
constexpr int kSpecies = 4;
constexpr int kHeadsPerSpecies = 4;
constexpr int kRasBeads = 4;
constexpr int kRafBeads = 2;
constexpr double kBoxXy = 4.0;
constexpr double kBoxZ = 8.0;
constexpr md::real kRdfRmax = 2.0;
constexpr std::size_t kRdfBins = 16;

/// Poisson draw: Knuth's product method for small means, rounded-normal
/// approximation above (never reached at campaign candidate rates, but keeps
/// the helper total). Consumes a data-independent *stream*, not a shared RNG.
std::uint32_t draw_poisson(util::Rng& rng, double mean) {
  if (!(mean > 0.0)) return 0;
  if (mean < 16.0) {
    const double limit = std::exp(-mean);
    double p = rng.uniform();
    std::uint32_t k = 0;
    while (p > limit) {
      p *= rng.uniform();
      ++k;
    }
    return k;
  }
  const double x = rng.normal(mean, std::sqrt(mean));
  return x > 0.0 ? static_cast<std::uint32_t>(std::llround(x)) : 0u;
}

md::Vec3 random_unit(util::Rng& rng) {
  md::Vec3 v{rng.normal(), rng.normal(), rng.normal()};
  const md::real n = std::max(v.norm(), md::real(1e-9));
  return v * (1.0 / n);
}

coupling::CgSystemInfo make_proto() {
  coupling::CgSystemInfo info;
  info.system.box.length = {kBoxXy, kBoxXy, kBoxZ};
  info.heads_by_species.resize(static_cast<std::size_t>(kSpecies));
  for (int s = 0; s < kSpecies; ++s)
    for (int h = 0; h < kHeadsPerSpecies; ++h)
      info.heads_by_species[static_cast<std::size_t>(s)].push_back(
          info.system.add_particle({}, s, 72.0));
  const int protein_type = kSpecies;
  for (int b = 0; b < kRasBeads + kRafBeads; ++b)
    info.protein_beads.push_back(
        info.system.add_particle({}, protein_type, 72.0));
  info.ras_beads = kRasBeads;
  return info;
}

}  // namespace

InSituPlane::InSituPlane(std::uint64_t seed, util::ThreadPool* pool)
    : seed_(seed),
      pool_(pool),
      proto_(make_proto()),
      analysis_(proto_, 0, kRdfRmax, kRdfBins) {}

std::uint64_t InSituPlane::stream_seed(std::uint64_t seed, std::uint64_t sim,
                                       std::uint64_t tick,
                                       std::uint64_t lane) {
  std::uint64_t z = seed;
  z += 0x9e3779b97f4a7c15ULL * (sim + 1);
  z += 0xbf58476d1ce4e5b9ULL * (tick + 1);
  z += 0x94d049bb133111ebULL * (lane + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void InSituPlane::run_sim(std::uint64_t payload, md::System& sys,
                          std::uint64_t tick_key, double candidate_mean,
                          InSituResult& out) const {
  util::Rng rng(stream_seed(seed_, payload, tick_key, 0));
  const md::Vec3 box = sys.box.length;
  for (const auto& species : proto_.heads_by_species)
    for (const int i : species)
      sys.pos[static_cast<std::size_t>(i)] = {rng.uniform(0.0, box.x),
                                              rng.uniform(0.0, box.y),
                                              rng.uniform(0.0, box.z)};
  // RAS-RAF backbone: a 0.47 nm-bond random walk near the mid-plane, so
  // tilt/rotation/separation descriptors cover the frame-selector bins.
  md::Vec3 p{rng.uniform(0.0, box.x), rng.uniform(0.0, box.y),
             0.5 * box.z + rng.uniform(-0.5, 0.5)};
  for (const int i : proto_.protein_beads) {
    sys.pos[static_cast<std::size_t>(i)] = sys.box.wrap(p);
    p += 0.47 * random_unit(rng);
  }

  out.sim = payload;
  out.rdfs.clear();
  out.frame = analysis_.analyze(
      sys, payload, static_cast<long>(tick_key & 0x7fffffffffffffffULL),
      out.rdfs);
  util::Rng draws(stream_seed(seed_, payload, tick_key, 1));
  out.candidates = draw_poisson(draws, candidate_mean);
  out.extra.clear();
  for (std::uint32_t k = 1; k < out.candidates; ++k) {
    const auto tilt = static_cast<float>(90.0 * std::sqrt(draws.uniform()));
    const auto rot = static_cast<float>(draws.uniform(0.0, 360.0));
    const auto sep = static_cast<float>(std::min(3.0, draws.exponential(1.0)));
    out.extra.push_back({tilt, rot, sep});
  }
}

std::uint64_t InSituPlane::tick(
    const std::vector<std::uint64_t>& payloads, std::uint64_t tick_key,
    double candidate_mean,
    const std::function<void(const InSituResult&)>& fold) {
  const std::size_t n = payloads.size();
  // At least 16 sims per block amortize the per-task dispatch; past 512 sims
  // the tick is capped at 32 blocks.
  const std::size_t block = util::block_size(n, 16, 32);
  const std::size_t nblocks = util::block_count(n, block);
  // Grown on the caller, only past the largest tick yet; a tick overwrites
  // or zeroes every entry it reads.
  if (slots_.size() < n) {
    InSituResult empty;
    empty.rdfs = analysis_.make_rdfs();
    slots_.resize(n, empty);
  }
  if (scratch_.size() < nblocks) scratch_.resize(nblocks, proto_.system);
  if (partials_.size() < nblocks)
    partials_.resize(nblocks, analysis_.make_rdfs());
  if (rdfs_.per_species.empty()) rdfs_ = analysis_.make_rdfs();
  rdfs_.clear();
  active_ = n;

  std::uint64_t fold_ns = 0;
  util::for_blocks_ordered(
      pool_, n, block,
      // Pool task per block: each sim steps into the block's scratch system
      // and is analyzed into its slot; the block sums its sims' RDFs.
      [&](std::size_t lo, std::size_t hi) {
        coupling::RdfSet& partial = partials_[lo / block];
        partial.clear();
        for (std::size_t i = lo; i < hi; ++i) {
          run_sim(payloads[i], scratch_[lo / block], tick_key, candidate_mean,
                  slots_[i]);
          partial.merge(slots_[i].rdfs);
        }
      },
      // Caller, ascending blocks: fold each block as soon as it finishes —
      // globally ascending in sim id while later blocks are still in flight.
      [&](std::size_t lo, std::size_t hi) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = lo; i < hi; ++i) fold(slots_[i]);
        rdfs_.merge(partials_[lo / block]);
        fold_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      });
  return fold_ns;
}

}  // namespace mummi::wm
