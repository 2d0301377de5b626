#include "continuum/gridsim2d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mummi::cont {

namespace {

// Frame header: sentinel and version word.
constexpr std::uint64_t kFrameSentinelV2 = 0xFFFFFFFF434E5446ULL;  // ..'CNTF'
constexpr std::uint32_t kFrameVersion = 2;

}  // namespace

GridSim2D::GridSim2D(ContinuumConfig config)
    : config_(config),
      h_(config.extent / config.grid),
      rng_(config.seed) {
  const int ns = n_species();
  MUMMI_CHECK_MSG(ns > 0 && config_.grid > 2 && config_.dt > 0,
                  "invalid continuum config");

  // Lipid fields: per-species base density with small random perturbations,
  // so domains can form but mass stays ~1 per unit area in each leaflet.
  fields_.reserve(ns);
  for (int s = 0; s < ns; ++s) {
    const bool inner = s < config_.inner_species;
    const double base = 1.0 / (inner ? config_.inner_species : config_.outer_species);
    Grid2d g(config_.grid, base);
    for (auto& v : g.data()) v *= 1.0 + 0.05 * (rng_.uniform() - 0.5);
    fields_.push_back(std::move(g));
  }
  mu_.assign(static_cast<std::size_t>(ns), Grid2d(config_.grid));
  next_.assign(static_cast<std::size_t>(ns), Grid2d(config_.grid));
  footprint_.assign(static_cast<std::size_t>(kNumProteinStates) *
                        static_cast<std::size_t>(config_.grid) * config_.grid,
                    0.0);

  // Symmetric lipid-lipid interaction matrix: mild self-attraction drives
  // domain formation; cross terms are random but weak.
  chi_.assign(static_cast<std::size_t>(ns) * ns, 0.0);
  for (int s = 0; s < ns; ++s) {
    for (int t = s; t < ns; ++t) {
      double v = config_.chi_scale * (rng_.uniform() - 0.5);
      if (s == t) v = -0.5 * config_.chi_scale;
      chi_[static_cast<std::size_t>(s) * ns + t] = v;
      chi_[static_cast<std::size_t>(t) * ns + s] = v;
    }
  }

  // Protein-lipid couplings start neutral-ish; feedback refines them.
  coupling_.assign(static_cast<std::size_t>(kNumProteinStates) * ns, 0.0);
  for (auto& w : coupling_) w = 0.3 * (rng_.uniform() - 0.5);

  proteins_.resize(static_cast<std::size_t>(config_.n_proteins));
  for (auto& p : proteins_) {
    p.x = rng_.uniform(0.0, config_.extent);
    p.y = rng_.uniform(0.0, config_.extent);
    p.state = static_cast<ProteinState>(rng_.uniform_index(kNumProteinStates));
  }

  c_steps_ = &obs::counter("cont.step.steps");
  c_cells_ = &obs::counter("cont.step.cells");
  c_pairs_ = &obs::counter("cont.step.protein_pairs");
  c_rebuilds_ = &obs::counter("cont.step.rebuilds");
  h_pairs_ = &obs::histogram("cont.step.pairs_per_protein", 0.0, 64.0, 32);
}

void GridSim2D::set_protein_lipid_coupling(ProteinState state, int species,
                                           double weight) {
  MUMMI_CHECK(species >= 0 && species < n_species());
  coupling_[static_cast<std::size_t>(state) * n_species() + species] = weight;
}

double GridSim2D::protein_lipid_coupling(ProteinState state,
                                         int species) const {
  MUMMI_CHECK(species >= 0 && species < n_species());
  return coupling_[static_cast<std::size_t>(state) * n_species() + species];
}

void GridSim2D::build_footprints() {
  util::ThreadPool* pool = config_.pool;
  const int n = config_.grid;
  const auto cells = static_cast<std::size_t>(n) * n;
  const double sigma_g = config_.protein_radius / h_;  // in cells
  const std::size_t np = proteins_.size();
  // sigma == 0 (pointlike protein) would divide by zero in the Gaussian:
  // such proteins simply leave no footprint.
  const bool stamp = sigma_g > 0 && np > 0;
  const std::size_t block = util::block_size(np, 16, 8);
  const std::size_t nblocks = stamp ? util::block_count(np, block) : 0;
  fp_scratch_.reset(nblocks, footprint_.size());
  if (stamp) {
    const int reach = std::max(2, static_cast<int>(3 * sigma_g));
    const double denom = 2 * sigma_g * sigma_g;
    // Cell coordinates beyond this bound would overflow int in the cast or
    // in ci + di; like NaN/inf (which fail the comparison too), they leave
    // no footprint.
    const double max_cell =
        static_cast<double>(std::numeric_limits<int>::max() - reach - 1);
    auto wrap = [n](int i) { return ((i % n) + n) % n; };
    util::for_blocks(pool, np, block, [&](std::size_t lo, std::size_t hi) {
      double* buf = fp_scratch_.block(lo / block);
      for (std::size_t pi = lo; pi < hi; ++pi) {
        const Protein& p = proteins_[pi];
        const double gi = p.x / h_;
        const double gj = p.y / h_;
        if (!(std::abs(gi) <= max_cell && std::abs(gj) <= max_cell)) continue;
        double* f = buf + static_cast<std::size_t>(p.state) * cells;
        const int ci = static_cast<int>(std::floor(gi));
        const int cj = static_cast<int>(std::floor(gj));
        for (int di = -reach; di <= reach; ++di) {
          const std::size_t row =
              static_cast<std::size_t>(wrap(ci + di)) * n;
          for (int dj = -reach; dj <= reach; ++dj) {
            const double dx = gi - (ci + di);
            const double dy = gj - (cj + dj);
            const double g = std::exp(-(dx * dx + dy * dy) / denom);
            f[row + wrap(cj + dj)] += g;
          }
        }
      }
    });
  }
  // footprint = 0.0 + block 0 + block 1 + ..., ascending per cell.
  std::fill(footprint_.begin(), footprint_.end(), 0.0);
  fp_scratch_.fold(footprint_.data(), pool,
                   util::block_size(footprint_.size(), 4096, 16));
}

void GridSim2D::step_lipids() {
  const int n = config_.grid;
  const int ns = n_species();
  const double h2 = h_ * h_;
  const double kappa = config_.kappa;
  const double coeff = config_.mobility * config_.dt;

  build_footprints();
  // Row blocks: ~16 for large grids, never below 8 rows. Each row is
  // computed whole by one block, so the seams never touch a sum.
  const std::size_t rows_per_block =
      util::block_size(static_cast<std::size_t>(n), 8, 16);

  // Excess chemical potential, fused over row blocks: the chi contraction,
  // gradient penalty and protein coupling land on each mu cell in one fixed
  // order (chi terms t-ascending with t = 0 assigning, then -kappa lap, then
  // coupling st-ascending), the order the pinned frames were taken in.
  // Interior columns use direct +-1 offsets; only j = 0 and j = n-1 pay the
  // periodic wrap.
  util::for_blocks(
      config_.pool, static_cast<std::size_t>(n), rows_per_block,
      [&](std::size_t rlo, std::size_t rhi) {
        for (std::size_t i = rlo; i < rhi; ++i) {
          const std::size_t r = i * n;
          const std::size_t rup = ((i + 1) % n) * n;      // row of atp(i+1, j)
          const std::size_t rdn = ((i + n - 1) % n) * n;  // row of atp(i-1, j)
          for (int s = 0; s < ns; ++s) {
            double* mu = mu_[s].data().data() + r;
            const double* chis = &chi_[static_cast<std::size_t>(s) * ns];
            // chi contraction: t-loop over contiguous species rows (SoA view
            // of the fields) so it vectorizes.
            {
              const double c = chis[0];
              const double* rho = fields_[0].data().data() + r;
              for (int j = 0; j < n; ++j) mu[j] = c * rho[j];
            }
            for (int t = 1; t < ns; ++t) {
              const double c = chis[t];
              const double* rho = fields_[t].data().data() + r;
              for (int j = 0; j < n; ++j) mu[j] += c * rho[j];
            }
            // Gradient penalty: -kappa * five-point Laplacian.
            {
              const double* base = fields_[s].data().data();
              const double* rc = base + r;
              const double* ru = base + rup;
              const double* rd = base + rdn;
              mu[0] -= kappa *
                       ((ru[0] + rd[0] + rc[1] + rc[n - 1] - 4.0 * rc[0]) / h2);
              for (int j = 1; j < n - 1; ++j)
                mu[j] -= kappa * ((ru[j] + rd[j] + rc[j + 1] + rc[j - 1] -
                                   4.0 * rc[j]) /
                                  h2);
              mu[n - 1] -= kappa * ((ru[n - 1] + rd[n - 1] + rc[0] +
                                     rc[n - 2] - 4.0 * rc[n - 1]) /
                                    h2);
            }
            // Protein coupling through the per-state footprints.
            for (int st = 0; st < kNumProteinStates; ++st) {
              const double w = coupling_[static_cast<std::size_t>(st) * ns + s];
              if (w == 0) continue;
              const double* fp =
                  footprint_.data() + static_cast<std::size_t>(st) * n * n + r;
              for (int j = 0; j < n; ++j) mu[j] += w * fp[j];
            }
          }
        }
      });

  // Conservative update: drho/dt = M [lap rho + div(rho grad mu)], written
  // into the persistent next_ grids and swapped in — no per-step allocation.
  // Face fluxes and their combination order are fixed: the pinned frames
  // hold them.
  util::for_blocks(
      config_.pool, static_cast<std::size_t>(n), rows_per_block,
      [&](std::size_t rlo, std::size_t rhi) {
        for (std::size_t i = rlo; i < rhi; ++i) {
          const std::size_t r = i * n;
          const std::size_t rup = ((i + 1) % n) * n;
          const std::size_t rdn = ((i + n - 1) % n) * n;
          for (int s = 0; s < ns; ++s) {
            const double* rho = fields_[s].data().data();
            const double* mu = mu_[s].data().data();
            const double* rc = rho + r;
            const double* ru = rho + rup;
            const double* rd = rho + rdn;
            const double* mc = mu + r;
            const double* mup = mu + rup;
            const double* mdn = mu + rdn;
            double* out = next_[s].data().data() + r;
            auto cell = [&](int j, int jp, int jm) {
              const double f_ip = 0.5 * (rc[j] + ru[j]) * (mup[j] - mc[j]) / h_;
              const double f_im = 0.5 * (rd[j] + rc[j]) * (mc[j] - mdn[j]) / h_;
              const double f_jp =
                  0.5 * (rc[j] + rc[jp]) * (mc[jp] - mc[j]) / h_;
              const double f_jm =
                  0.5 * (rc[jm] + rc[j]) * (mc[j] - mc[jm]) / h_;
              const double div = (f_ip - f_im + f_jp - f_jm) / h_;
              const double lap =
                  (ru[j] + rd[j] + rc[jp] + rc[jm] - 4.0 * rc[j]) / h2;
              double v = rc[j] + coeff * (lap + div);
              if (v < 0) v = 0;  // density floor
              out[j] = v;
            };
            cell(0, 1, n - 1);
            for (int j = 1; j < n - 1; ++j) cell(j, j + 1, j - 1);
            cell(n - 1, 0, n - 2);
          }
        }
      });

  for (int s = 0; s < ns; ++s) std::swap(fields_[s], next_[s]);
}

double GridSim2D::coupling_field_gradient(const Protein& p, int axis) const {
  // d/dx of U_p = sum_s w(state, s) rho_s at the protein position, by
  // central differences of the interpolated fields.
  const int ns = n_species();
  const double eps = 0.5 * h_;
  double grad = 0;
  for (int s = 0; s < ns; ++s) {
    const double w = coupling_[static_cast<std::size_t>(p.state) * ns + s];
    if (w == 0) continue;
    const double xp = p.x + (axis == 0 ? eps : 0);
    const double xm = p.x - (axis == 0 ? eps : 0);
    const double yp = p.y + (axis == 1 ? eps : 0);
    const double ym = p.y - (axis == 1 ? eps : 0);
    const double up = fields_[s].interpolate(xp / h_, yp / h_);
    const double um = fields_[s].interpolate(xm / h_, ym / h_);
    grad += w * (up - um) / (2 * eps);
  }
  return grad;
}

void GridSim2D::advance_protein(std::size_t a, double fx, double fy) {
  Protein& p = proteins_[a];
  const double d = config_.protein_diffusion;
  const double dt = config_.dt;
  const double step_sigma = std::sqrt(2 * d * dt);
  const double l = config_.extent;
  // Counter-based stream: a pure function of (seed, protein, step), so the
  // update threads freely and resumes exactly from any checkpoint.
  util::Rng prng(
      detail::protein_stream_seed(config_.seed, a, step_count_));
  const double nx = p.x + d * fx * dt + step_sigma * prng.normal();
  const double ny = p.y + d * fy * dt + step_sigma * prng.normal();
  // A blown-up field (unstable dt on a coarse grid) yields a non-finite
  // force; freeze the protein rather than let NaN poison the indices.
  if (std::isfinite(nx)) p.x = nx - l * std::floor(nx / l);
  if (std::isfinite(ny)) p.y = ny - l * std::floor(ny / l);

  // Markov jumps between configurational states.
  if (prng.uniform() < config_.state_switch_rate * dt) {
    int next = static_cast<int>(prng.uniform_index(kNumProteinStates - 1));
    if (next >= static_cast<int>(p.state)) ++next;
    p.state = static_cast<ProteinState>(next);
  }
}

void GridSim2D::step_proteins() {
  const std::size_t np = proteins_.size();
  if (np == 0) return;
  const double l = config_.extent;
  const double rep_range = 2 * config_.protein_radius;

  // Cell bins snapshot the pre-step positions: forces read the stable
  // bin copies (Jacobi update), so blocks never observe each other's writes.
  bins_.build(proteins_, l, rep_range);
  c_rebuilds_->inc();

  // Protein blocks: ~8, never below 16 proteins (as in build_footprints).
  const std::size_t block = util::block_size(np, 16, 8);
  const std::size_t nblocks = util::block_count(np, block);
  if (cand_scratch_.size() < nblocks) cand_scratch_.resize(nblocks);
  pair_counts_.assign(nblocks, 0);

  util::for_blocks(config_.pool, np, block, [&](std::size_t lo, std::size_t hi) {
    const std::size_t bi = lo / block;
    auto& cand = cand_scratch_[bi];
    std::uint64_t pairs = 0;
    for (std::size_t a = lo; a < hi; ++a) {
      double fx = -coupling_field_gradient(proteins_[a], 0);
      double fy = -coupling_field_gradient(proteins_[a], 1);
      if (rep_range > 0) {
        // Soft pairwise repulsion keeps complexes from stacking. Candidates
        // come back sorted ascending, so the in-range accumulation order is
        // the same as an all-pairs loop — bit-identical forces.
        cand.clear();
        bins_.gather_candidates(a, cand);
        for (const std::size_t b : cand) {
          if (b == a) continue;
          double dx = bins_.x(a) - bins_.x(b);
          double dy = bins_.y(a) - bins_.y(b);
          dx -= l * std::round(dx / l);
          dy -= l * std::round(dy / l);
          const double r2 = dx * dx + dy * dy;
          if (r2 > rep_range * rep_range || r2 == 0) continue;
          const double r = std::sqrt(r2);
          const double mag = 2.0 * (1.0 - r / rep_range) / rep_range;
          fx += mag * dx / r;
          fy += mag * dy / r;
          ++pairs;
        }
      }
      advance_protein(a, fx, fy);
    }
    pair_counts_[bi] = pairs;
  });

  std::uint64_t pairs = 0;
  for (const std::uint64_t c : pair_counts_) pairs += c;
  c_pairs_->inc(pairs);
  h_pairs_->observe(static_cast<double>(pairs) / static_cast<double>(np));
}

void GridSim2D::step(int n) {
  const auto cells_per_step = static_cast<std::uint64_t>(config_.grid) *
                              config_.grid * n_species();
  for (int k = 0; k < n; ++k) {
    step_lipids();
    step_proteins();
    ++step_count_;
    time_us_ += config_.dt;
    c_steps_->inc();
    c_cells_->inc(cells_per_step);
  }
}

Snapshot GridSim2D::snapshot() const {
  Snapshot snap;
  snap.time_us = time_us_;
  snap.grid = config_.grid;
  snap.extent = config_.extent;
  snap.fields = fields_;
  snap.proteins = proteins_;
  return snap;
}

std::vector<double> GridSim2D::species_mass() const {
  std::vector<double> out;
  out.reserve(fields_.size());
  const double cell_area = h_ * h_;
  for (const auto& f : fields_) out.push_back(f.sum() * cell_area);
  return out;
}

util::Bytes Snapshot::serialize() const {
  util::ByteWriter w;
  w.f64(time_us);
  w.u32(static_cast<std::uint32_t>(grid));
  w.f64(extent);
  w.u32(static_cast<std::uint32_t>(fields.size()));
  for (const auto& f : fields) w.vec(f.data());
  w.u32(static_cast<std::uint32_t>(proteins.size()));
  for (const auto& p : proteins) {
    w.f64(p.x);
    w.f64(p.y);
    w.u32(static_cast<std::uint32_t>(p.state));
  }
  return std::move(w).take();
}

Snapshot Snapshot::deserialize(const util::Bytes& bytes) {
  util::ByteReader r(bytes);
  Snapshot snap;
  snap.time_us = r.f64();
  snap.grid = static_cast<int>(r.u32());
  if (snap.grid <= 0) throw util::FormatError("snapshot grid must be positive");
  snap.extent = r.f64();
  const auto nf = r.u32();
  // Check each count against the bytes left before reserving: a field
  // carries at least its 8-byte length word, a protein 20 bytes.
  if (nf > r.remaining() / 8)
    throw util::FormatError("snapshot field count exceeds stream");
  const auto cells =
      static_cast<std::size_t>(snap.grid) * static_cast<std::size_t>(snap.grid);
  snap.fields.reserve(nf);
  for (std::uint32_t i = 0; i < nf; ++i) {
    // Read (and bounds-check) before sizing the grid, so hostile headers
    // cannot drive a huge allocation.
    std::vector<double> data = r.vec<double>();
    if (data.size() != cells)
      throw util::FormatError("snapshot field size mismatch");
    Grid2d g(snap.grid);
    g.data() = std::move(data);
    snap.fields.push_back(std::move(g));
  }
  const auto np = r.u32();
  if (np > r.remaining() / 20)
    throw util::FormatError("snapshot protein count exceeds stream");
  snap.proteins.reserve(np);
  for (std::uint32_t i = 0; i < np; ++i) {
    Protein p;
    p.x = r.f64();
    p.y = r.f64();
    const std::uint32_t state = r.u32();
    // An arbitrary u32 is NOT a ProteinState: reject rather than launder
    // out-of-range bytes into enum-indexed tables downstream.
    if (state >= static_cast<std::uint32_t>(kNumProteinStates))
      throw util::FormatError("snapshot protein state out of range");
    p.state = static_cast<ProteinState>(state);
    snap.proteins.push_back(p);
  }
  return snap;
}

util::Bytes GridSim2D::serialize() const {
  util::ByteWriter w;
  w.u64(kFrameSentinelV2);
  w.u32(kFrameVersion);
  w.bytes(snapshot().serialize());
  w.vec(coupling_);
  w.vec(chi_);
  w.u64(step_count_);
  const util::Rng::State st = rng_.save_state();
  for (const std::uint64_t word : st.s) w.u64(word);
  w.u8(st.has_spare ? 1 : 0);
  w.f64(st.spare);
  return std::move(w).take();
}

void GridSim2D::restore(const util::Bytes& bytes) {
  util::ByteReader r(bytes);
  if (r.u64() != kFrameSentinelV2 || r.u32() != kFrameVersion)
    throw util::FormatError("unknown continuum frame version");
  const Snapshot snap = Snapshot::deserialize(r.bytes());
  std::vector<double> coupling = r.vec<double>();
  std::vector<double> chi = r.vec<double>();
  const std::uint64_t steps = r.u64();
  util::Rng::State st{};
  for (auto& word : st.s) word = r.u64();
  st.has_spare = r.u8() != 0;
  st.spare = r.f64();
  const auto ns = static_cast<std::size_t>(n_species());
  MUMMI_CHECK_MSG(snap.grid == config_.grid && snap.fields.size() == ns,
                  "restore() config mismatch");
  MUMMI_CHECK_MSG(coupling.size() == static_cast<std::size_t>(
                                         kNumProteinStates) * ns &&
                      chi.size() == ns * ns,
                  "restore() parameter size mismatch");
  time_us_ = snap.time_us;
  step_count_ = steps;
  fields_ = snap.fields;
  proteins_ = snap.proteins;
  coupling_ = std::move(coupling);
  chi_ = std::move(chi);
  rng_.load_state(st);
}

}  // namespace mummi::cont
