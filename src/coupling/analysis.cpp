#include "coupling/analysis.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace mummi::coupling {

namespace {
// Bounds for untrusted RdfSet streams, validated before any allocation (the
// Snapshot::deserialize hardening discipline): far above anything the
// campaign emits (4 species, 16-24 bins), far below an allocation that
// could hurt.
constexpr std::uint32_t kMaxSpecies = 4096;
constexpr std::uint64_t kMaxBins = 1u << 20;
}  // namespace

void RdfSet::merge(const RdfSet& other) {
  MUMMI_CHECK_MSG(per_species.size() == other.per_species.size(),
                  "RdfSet species mismatch");
  for (std::size_t s = 0; s < per_species.size(); ++s)
    per_species[s].merge(other.per_species[s]);
}

util::Bytes RdfSet::serialize() const {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(per_species.size()));
  for (const auto& rdf : per_species) {
    w.f64(rdf.r_max());
    w.u64(rdf.nbins());
    w.u64(rdf.frames());
    w.f64(rdf.pair_density_sum());
    w.vec(rdf.counts());
  }
  return std::move(w).take();
}

RdfSet RdfSet::deserialize(const util::Bytes& bytes) {
  util::ByteReader r(bytes);
  RdfSet out;
  const auto ns = r.u32();
  if (ns > kMaxSpecies)
    throw util::FormatError("RdfSet species count out of range");
  out.per_species.reserve(ns);
  for (std::uint32_t s = 0; s < ns; ++s) {
    const double rmax = r.f64();
    if (!std::isfinite(rmax) || rmax <= 0.0)
      throw util::FormatError("RdfSet r_max invalid");
    const auto nbins = r.u64();
    if (nbins == 0 || nbins > kMaxBins)
      throw util::FormatError("RdfSet bin count out of range");
    const auto frames = r.u64();
    const double pair_density = r.f64();
    if (!std::isfinite(pair_density))
      throw util::FormatError("RdfSet pair density invalid");
    // ByteReader::vec bounds the element count against the remaining bytes
    // before allocating; a truncated stream throws here, not in operator new.
    auto counts = r.vec<double>();
    if (counts.size() != nbins)
      throw util::FormatError("RdfSet counts/bins mismatch");
    md::RdfAccumulator acc(rmax, nbins);
    acc.restore_raw(std::move(counts), frames, pair_density);
    out.per_species.push_back(std::move(acc));
  }
  return out;
}

CgAnalysis::CgAnalysis(const CgSystemInfo& info, std::uint64_t sim_id,
                       md::real rdf_rmax, std::size_t rdf_bins)
    : sim_id_(sim_id),
      heads_by_species_(info.heads_by_species),
      protein_beads_(info.protein_beads),
      ras_beads_(info.ras_beads),
      rdf_rmax_(rdf_rmax),
      rdf_bins_(rdf_bins) {
  MUMMI_CHECK_MSG(!protein_beads_.empty(), "CG analysis needs protein beads");
  accum_ = make_rdfs();
}

CgFrameInfo CgAnalysis::analyze(const md::System& system, long step) {
  ++frames_;
  return analyze(system, sim_id_, step, accum_);
}

CgFrameInfo CgAnalysis::analyze(const md::System& system,
                                std::uint64_t sim_id, long step,
                                RdfSet& rdfs) const {
  for (std::size_t s = 0; s < heads_by_species_.size(); ++s)
    if (!heads_by_species_[s].empty())
      rdfs.per_species[s].add_frame(system, protein_beads_,
                                    heads_by_species_[s]);
  return compute_frame_info(system, protein_beads_, ras_beads_, sim_id, step);
}

RdfSet CgAnalysis::make_rdfs() const {
  RdfSet out;
  out.per_species.reserve(heads_by_species_.size());
  for (std::size_t s = 0; s < heads_by_species_.size(); ++s)
    out.per_species.emplace_back(rdf_rmax_, rdf_bins_);
  return out;
}

RdfSet CgAnalysis::take_rdfs() {
  return std::exchange(accum_, make_rdfs());
}

}  // namespace mummi::coupling
