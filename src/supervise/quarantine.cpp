#include "supervise/quarantine.hpp"

#include <algorithm>

#include "util/crashpoint.hpp"
#include "util/error.hpp"

namespace mummi::supervise {

const char* to_string(StrikeKind kind) {
  switch (kind) {
    case StrikeKind::kFailure: return "failure";
    case StrikeKind::kHang: return "hang";
    case StrikeKind::kNodeKill: return "node_kill";
  }
  return "?";
}

bool QuarantineLedger::strike(const std::string& type, std::uint64_t payload,
                              StrikeKind kind, double now, int node) {
  auto [it, inserted] = entries_.try_emplace(Key{type, payload});
  Entry& e = it->second;
  if (inserted) e.first_strike_s = now;
  switch (kind) {
    case StrikeKind::kFailure:
      ++e.failures;
      break;
    case StrikeKind::kHang:
      ++e.hangs;
      break;
    case StrikeKind::kNodeKill: {
      ++e.node_kills;
      auto pos = std::lower_bound(e.nodes_killed.begin(), e.nodes_killed.end(),
                                  node);
      if (pos == e.nodes_killed.end() || *pos != node)
        e.nodes_killed.insert(pos, node);
      break;
    }
  }
  if (e.quarantined || strike_limit_ <= 0) return false;
  const bool over =
      e.direct_strikes() >= static_cast<std::uint32_t>(strike_limit_) ||
      e.nodes_killed.size() >= static_cast<std::size_t>(strike_limit_);
  if (!over) return false;
  e.quarantined = true;
  e.quarantined_at_s = now;
  ++n_quarantined_;
  return true;
}

bool QuarantineLedger::quarantined(const std::string& type,
                                   std::uint64_t payload) const {
  const Entry* e = find(type, payload);
  return e != nullptr && e->quarantined;
}

const QuarantineLedger::Entry* QuarantineLedger::find(
    const std::string& type, std::uint64_t payload) const {
  auto it = entries_.find(Key{type, payload});
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> QuarantineLedger::quarantined_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, e] : entries_)
    if (e.quarantined)
      out.push_back(key.first + ":" + std::to_string(key.second));
  return out;  // map order ⇒ already sorted by (type, payload)
}

void QuarantineLedger::serialize(util::ByteWriter& w) const {
  // The ledger rides inside the campaign checkpoint; a crash here must leave
  // the previous on-disk checkpoint (and its ledger) fully recoverable.
  util::crash_point("supervise.ledger.serialize");
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [key, e] : entries_) {
    w.str(key.first);
    w.u64(key.second);
    w.u32(e.failures);
    w.u32(e.hangs);
    w.u32(e.node_kills);
    w.u32(static_cast<std::uint32_t>(e.nodes_killed.size()));
    for (int n : e.nodes_killed) w.u32(static_cast<std::uint32_t>(n));
    w.u8(e.quarantined ? 1 : 0);
    w.f64(e.first_strike_s);
    w.f64(e.quarantined_at_s);
  }
}

void QuarantineLedger::restore(util::ByteReader& r) {
  // Decode into locals: a stream that ends early throws and leaves the
  // ledger as it was.
  std::map<Key, Entry> entries;
  std::size_t n_quarantined = 0;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string type = r.str();
    const std::uint64_t payload = r.u64();
    Entry e;
    e.failures = r.u32();
    e.hangs = r.u32();
    e.node_kills = r.u32();
    const std::uint32_t nn = r.u32();
    if (nn > r.remaining() / sizeof(std::uint32_t))
      throw util::FormatError("quarantine ledger: node count exceeds stream");
    e.nodes_killed.reserve(nn);
    for (std::uint32_t j = 0; j < nn; ++j)
      e.nodes_killed.push_back(static_cast<int>(r.u32()));
    e.quarantined = r.u8() != 0;
    e.first_strike_s = r.f64();
    e.quarantined_at_s = r.f64();
    if (e.quarantined) ++n_quarantined;
    entries.emplace(Key{std::move(type), payload}, std::move(e));
  }
  entries_ = std::move(entries);
  n_quarantined_ = n_quarantined;
}

}  // namespace mummi::supervise
