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

struct InSituPlane::SimState {
  md::System system;
  coupling::CgAnalysis analysis;
  InSituResult result;

  SimState(const coupling::CgSystemInfo& info, std::uint64_t sim_id)
      : system(info.system), analysis(info, sim_id, kRdfRmax, kRdfBins) {}
};

InSituPlane::InSituPlane(std::uint64_t seed, util::ThreadPool* pool)
    : seed_(seed), pool_(pool), proto_(make_proto()) {}

InSituPlane::~InSituPlane() = default;

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

void InSituPlane::step_sim(std::uint64_t payload, SimState& st,
                           std::uint64_t tick_key) const {
  util::Rng rng(stream_seed(seed_, payload, tick_key, 0));
  md::System& sys = st.system;
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
}

void InSituPlane::analyze_sim(std::uint64_t payload, SimState& st,
                              std::uint64_t tick_key, double candidate_mean,
                              InSituResult& out) const {
  out.sim = payload;
  out.frame = st.analysis.analyze(
      st.system, static_cast<long>(tick_key & 0x7fffffffffffffffULL));
  out.rdfs = st.analysis.take_rdfs();
  util::Rng rng(stream_seed(seed_, payload, tick_key, 1));
  out.candidates = draw_poisson(rng, candidate_mean);
  out.extra.clear();
  for (std::uint32_t k = 1; k < out.candidates; ++k) {
    const auto tilt = static_cast<float>(90.0 * std::sqrt(rng.uniform()));
    const auto rot = static_cast<float>(rng.uniform(0.0, 360.0));
    const auto sep = static_cast<float>(std::min(3.0, rng.exponential(1.0)));
    out.extra.push_back({tilt, rot, sep});
  }
}

std::uint64_t InSituPlane::tick(
    const std::vector<std::uint64_t>& payloads, std::uint64_t tick_key,
    double candidate_mean,
    const std::function<void(const InSituResult&)>& fold) {
  // Merge the ascending payloads against the ascending live states: keep the
  // sims still running, create the newly started ones, drop the departed
  // (serial: allocation stays off the workers). Afterwards states_[i]
  // belongs to payloads[i].
  const std::size_t n = payloads.size();
  std::vector<std::pair<std::uint64_t, std::unique_ptr<SimState>>> live;
  live.reserve(n);
  auto old = states_.begin();
  for (const std::uint64_t payload : payloads) {
    while (old != states_.end() && old->first < payload) ++old;
    if (old != states_.end() && old->first == payload)
      live.push_back(std::move(*old++));
    else
      live.emplace_back(payload, std::make_unique<SimState>(proto_, payload));
  }
  states_ = std::move(live);

  std::uint64_t fold_ns = 0;
  util::for_blocks_ordered(
      // At least 16 sims per block amortize the per-task dispatch; past
      // 512 sims the tick is capped at 32 blocks.
      pool_, n, util::block_size(n, 16, 32),
      // Pool task per block: step, then analyze, each of the block's sims.
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          SimState& st = *states_[i].second;
          step_sim(payloads[i], st, tick_key);
          analyze_sim(payloads[i], st, tick_key, candidate_mean, st.result);
        }
      },
      // Caller, ascending blocks: fold each block as soon as it finishes —
      // globally ascending in sim id while later blocks are still in flight.
      [&](std::size_t lo, std::size_t hi) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = lo; i < hi; ++i) fold(states_[i].second->result);
        fold_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      });
  return fold_ns;
}

}  // namespace mummi::wm
