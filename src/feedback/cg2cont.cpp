#include "feedback/cg2cont.hpp"

#include "util/error.hpp"

namespace mummi::fb {

util::Bytes FeedbackRecord::serialize() const {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(state));
  w.bytes(rdfs.serialize());
  return std::move(w).take();
}

FeedbackRecord FeedbackRecord::deserialize(const util::Bytes& bytes) {
  util::ByteReader r(bytes);
  FeedbackRecord rec;
  // iterate() indexes its per-state tables with the state, so a forged value
  // must not get past here.
  const auto state = r.u32();
  if (state >= static_cast<std::uint32_t>(cont::kNumProteinStates))
    throw util::FormatError("FeedbackRecord protein state out of range");
  rec.state = static_cast<cont::ProteinState>(state);
  rec.rdfs = coupling::RdfSet::deserialize(r.bytes());
  if (!r.at_end())
    throw util::FormatError("FeedbackRecord has trailing bytes");
  return rec;
}

CgToContinuumFeedback::CgToContinuumFeedback(ds::DataStorePtr store,
                                             cont::GridSim2D* target,
                                             Cg2ContConfig config)
    : store_(std::move(store)), target_(target), config_(std::move(config)) {
  MUMMI_CHECK(store_ != nullptr);
}

double CgToContinuumFeedback::weight_from_rdf(
    const md::RdfAccumulator& rdf) const {
  if (rdf.frames() == 0) return 0.0;
  const auto g = rdf.g();
  const auto centers = rdf.centers();
  double enrich = 0;
  int nbins = 0;
  for (std::size_t b = 0; b < g.size(); ++b) {
    if (centers[b] > config_.contact_radius) break;
    enrich += g[b];
    ++nbins;
  }
  if (nbins == 0) return 0.0;
  enrich = enrich / nbins - 1.0;  // >0: lipids enriched near the protein
  // Enrichment means attraction: a negative coupling weight lowers the
  // lipid chemical potential near the protein footprint.
  return -config_.weight_scale * enrich;
}

IterationStats CgToContinuumFeedback::iterate() {
  IterationStats stats;

  // Collect: identify new records, then fetch them — one pipelined round
  // trip on the batched path, a per-record loop otherwise.
  const auto keys = store_->keys(config_.pending_ns, "*");
  stats.collect_virtual +=
      config_.costs.identify_per_key * static_cast<double>(keys.size());
  std::vector<util::Bytes> blobs;
  if (config_.batched && !keys.empty()) {
    blobs = store_->get_many(config_.pending_ns, keys);
    stats.collect_virtual +=
        config_.costs.batch_round_trip +
        config_.costs.read_batch_per_record * static_cast<double>(keys.size());
  }

  // Aggregate per protein state.
  std::vector<coupling::RdfSet> agg(cont::kNumProteinStates);
  std::vector<bool> seen(cont::kNumProteinStates, false);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    FeedbackRecord record;
    if (config_.batched) {
      record = FeedbackRecord::deserialize(blobs[i]);
    } else {
      record =
          FeedbackRecord::deserialize(store_->get(config_.pending_ns, keys[i]));
      stats.collect_virtual += config_.costs.read_per_record;
    }
    const auto s = static_cast<std::size_t>(record.state);
    if (!seen[s]) {
      agg[s] = record.rdfs;
      seen[s] = true;
    } else {
      agg[s].merge(record.rdfs);
    }
    stats.process_virtual += config_.costs.process_per_frame;
    ++stats.frames;
  }

  // Report: derive weights and push them into the running continuum model.
  if (stats.frames > 0) {
    for (int st = 0; st < cont::kNumProteinStates; ++st) {
      if (!seen[static_cast<std::size_t>(st)]) continue;
      const auto& rdfs = agg[static_cast<std::size_t>(st)];
      if (n_species_ == 0) {
        n_species_ = static_cast<int>(rdfs.per_species.size());
        weights_.assign(
            static_cast<std::size_t>(cont::kNumProteinStates) * n_species_,
            0.0);
      }
      for (int sp = 0; sp < n_species_; ++sp) {
        const double w =
            weight_from_rdf(rdfs.per_species[static_cast<std::size_t>(sp)]);
        auto& slot =
            weights_[static_cast<std::size_t>(st) * n_species_ + sp];
        slot = (1.0 - config_.smoothing) * slot + config_.smoothing * w;
        if (target_)
          target_->set_protein_lipid_coupling(
              static_cast<cont::ProteinState>(st), sp, slot);
      }
    }
  }

  // Tag: move processed records out of the pending namespace so the next
  // iteration's cost scales only with new data.
  if (config_.batched) {
    if (!keys.empty()) {
      store_->move_many(config_.pending_ns, keys, config_.done_ns);
      stats.tag_virtual +=
          config_.costs.batch_round_trip +
          config_.costs.tag_batch_per_record * static_cast<double>(keys.size());
    }
  } else {
    for (const auto& key : keys) {
      store_->move(config_.pending_ns, key, config_.done_ns);
      stats.tag_virtual += config_.costs.tag_per_record;
    }
  }
  return stats;
}

}  // namespace mummi::fb
