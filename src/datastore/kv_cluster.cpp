#include "datastore/kv_cluster.hpp"

#include <algorithm>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace mummi::ds {

namespace {
using Cost = KvCostModel;

// Virtual per-op cost distributions (Fig. 7's query-mix rates). Bounds cover
// the calibrated cost model with headroom for large payload transfers.
obs::HistogramMetric& cost_hist(const char* name) {
  return obs::histogram(name, 0.0, 2.0e-3, 40);
}

// Batch instrumentation: one count per batch op plus the size distribution,
// so traces show the pipelining taking effect (few ops, large batches).
void note_batch(const char* op_counter, std::size_t batch_size) {
  static obs::Counter& batches = obs::counter("kv.ops.batch");
  batches.inc();
  obs::counter(op_counter).inc();
  obs::histogram("kv.batch.size", 0.0, 70000.0, 70)
      .observe(static_cast<double>(batch_size));
}
}  // namespace

KvCluster::KvCluster(std::size_t n_servers) {
  MUMMI_CHECK_MSG(n_servers > 0, "cluster needs at least one server");
  shards_.reserve(n_servers);
  shard_ops_.reserve(n_servers);
  for (std::size_t i = 0; i < n_servers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shard_ops_.push_back(&obs::counter("kv.shard." + std::to_string(i) +
                                       ".ops"));
  }
}

void KvCluster::add_time(std::atomic<double>& counter, double dt) {
  double cur = counter.load(std::memory_order_relaxed);
  while (!counter.compare_exchange_weak(cur, cur + dt,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
  }
}

double KvCluster::total_sim_seconds() const {
  return sim_seconds_keys() + sim_seconds_reads() + sim_seconds_deletes() +
         sim_seconds_writes();
}

std::size_t KvCluster::server_of(const std::string& key) const {
  return util::fnv1a(key) % shards_.size();
}

std::string_view KvCluster::ns_of(std::string_view key) {
  const std::size_t colon = key.find(':');
  return colon == std::string_view::npos ? std::string_view{}
                                         : key.substr(0, colon);
}

void KvCluster::index_add(Shard& shard, const std::string& key) {
  shard.by_ns[std::string(ns_of(key))].insert(key);
}

void KvCluster::index_remove(Shard& shard, const std::string& key) {
  auto it = shard.by_ns.find(std::string(ns_of(key)));
  if (it == shard.by_ns.end()) return;
  it->second.erase(key);
  if (it->second.empty()) shard.by_ns.erase(it);
}

void KvCluster::set(const std::string& key, util::Bytes value) {
  const std::size_t s = server_of(key);
  const double dt =
      Cost::per_query + Cost::per_byte * static_cast<double>(value.size());
  Shard& shard = *shards_[s];
  std::unique_lock lock(shard.mutex);
  add_time(t_writes_, dt);
  static obs::Counter& ops = obs::counter("kv.ops.set");
  ops.inc();
  shard_ops_[s]->inc();
  cost_hist("kv.cost.write_s").observe(dt);
  auto [it, inserted] = shard.data.insert_or_assign(key, std::move(value));
  if (inserted) index_add(shard, it->first);
}

std::optional<util::Bytes> KvCluster::get(const std::string& key) const {
  const std::size_t s = server_of(key);
  const Shard& shard = *shards_[s];
  std::shared_lock lock(shard.mutex);
  static obs::Counter& ops = obs::counter("kv.ops.get");
  ops.inc();
  shard_ops_[s]->inc();
  auto it = shard.data.find(key);
  if (it == shard.data.end()) {
    add_time(t_reads_, Cost::per_query);
    cost_hist("kv.cost.read_s").observe(Cost::per_query);
    return std::nullopt;
  }
  const double dt =
      Cost::per_read + Cost::per_byte * static_cast<double>(it->second.size());
  add_time(t_reads_, dt);
  cost_hist("kv.cost.read_s").observe(dt);
  return it->second;
}

bool KvCluster::exists(const std::string& key) const {
  const std::size_t s = server_of(key);
  const Shard& shard = *shards_[s];
  std::shared_lock lock(shard.mutex);
  return shard.data.count(key) > 0;
}

bool KvCluster::del(const std::string& key) {
  const std::size_t s = server_of(key);
  Shard& shard = *shards_[s];
  std::unique_lock lock(shard.mutex);
  add_time(t_dels_, Cost::per_query);
  static obs::Counter& ops = obs::counter("kv.ops.del");
  ops.inc();
  shard_ops_[s]->inc();
  cost_hist("kv.cost.del_s").observe(Cost::per_query);
  const bool erased = shard.data.erase(key) > 0;
  if (erased) index_remove(shard, key);
  return erased;
}

bool KvCluster::move_locked(Shard& src, Shard& dst, const std::string& from,
                            const std::string& to) {
  auto it = src.data.find(from);
  if (it == src.data.end()) return false;
  util::Bytes value = std::move(it->second);
  src.data.erase(it);
  index_remove(src, from);
  auto [dit, inserted] = dst.data.insert_or_assign(to, std::move(value));
  if (inserted) index_add(dst, dit->first);
  return true;
}

bool KvCluster::rename(const std::string& from, const std::string& to) {
  // Same-shard renames move in place under one exclusive lock; cross-shard
  // renames hold both locks (index order), so the move is atomic to every
  // other client.
  const std::size_t s_from = server_of(from);
  const std::size_t s_to = server_of(to);
  static obs::Counter& ops = obs::counter("kv.ops.rename");
  if (s_from == s_to) {
    Shard& shard = *shards_[s_from];
    std::unique_lock lock(shard.mutex);
    add_time(t_dels_, Cost::per_query);
    ops.inc();
    shard_ops_[s_from]->inc();
    return move_locked(shard, shard, from, to);
  }
  Shard& lo = *shards_[std::min(s_from, s_to)];
  Shard& hi = *shards_[std::max(s_from, s_to)];
  std::unique_lock lock_lo(lo.mutex);
  std::unique_lock lock_hi(hi.mutex);
  // A cross-shard rename is two round trips: DEL on the source shard plus
  // SET on the destination.
  add_time(t_dels_, Cost::per_query);
  add_time(t_writes_, Cost::per_query);
  ops.inc();
  shard_ops_[s_from]->inc();
  shard_ops_[s_to]->inc();
  return move_locked(*shards_[s_from], *shards_[s_to], from, to);
}

std::vector<std::string> KvCluster::scan(const std::string* ns,
                                         const std::string& pattern) const {
  const std::size_t n_shards = shards_.size();
  const std::size_t prefix_len = (ns != nullptr && !ns->empty())
                                     ? ns->size() + 1  // "<ns>:"
                                     : 0;
  // Shards are walked in index order; a shard's op counter ticks only when
  // it actually walked keys for the scan.
  std::vector<std::string> out;
  std::size_t scanned = 0;
  for (std::size_t i = 0; i < n_shards; ++i) {
    const Shard& shard = *shards_[i];
    std::shared_lock lock(shard.mutex);
    if (ns == nullptr) {
      // Full scan: every stored key is inspected against the pattern.
      scanned += shard.data.size();
      shard_ops_[i]->inc();
      for (const auto& [k, _] : shard.data)
        if (util::glob_match(pattern, k)) out.push_back(k);
    } else {
      // Namespace-confined scan: only this namespace's keys are touched,
      // so cost is independent of every other namespace's population.
      auto it = shard.by_ns.find(*ns);
      if (it == shard.by_ns.end()) continue;
      scanned += it->second.size();
      shard_ops_[i]->inc();
      for (const auto& k : it->second) {
        const std::string_view tail = std::string_view(k).substr(prefix_len);
        if (util::glob_match(pattern, tail)) out.push_back(k);
      }
    }
  }
  std::sort(out.begin(), out.end());

  const double dt =
      Cost::per_query * static_cast<double>(n_shards) +
      Cost::per_scanned_key * static_cast<double>(scanned) +
      Cost::per_returned_key * static_cast<double>(out.size());
  add_time(t_keys_, dt);
  static obs::Counter& ops = obs::counter("kv.ops.keys");
  ops.inc();
  obs::histogram("kv.cost.keys_s", 0.0, 30.0, 60).observe(dt);
  return out;
}

std::vector<std::string> KvCluster::keys(const std::string& pattern) const {
  // Route patterns with a literal "<ns>:" prefix through the namespace
  // index; everything else pays the full scan.
  const std::string_view prefix = util::glob_literal_prefix(pattern);
  const std::size_t colon = prefix.find(':');
  if (colon != std::string_view::npos) {
    const std::string ns(prefix.substr(0, colon));
    return scan(&ns, pattern.substr(colon + 1));
  }
  return scan(nullptr, pattern);
}

std::vector<std::string> KvCluster::keys(const std::string& ns,
                                         const std::string& pattern) const {
  return scan(&ns, pattern);
}

std::size_t KvCluster::count(const std::string& ns) const {
  // Index-only metadata query: one round trip per shard, no keys scanned or
  // transferred — the cost is independent of every namespace's population.
  std::size_t n = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    std::shared_lock lock(shard.mutex);
    auto it = shard.by_ns.find(ns);
    if (it == shard.by_ns.end()) continue;
    n += it->second.size();
    shard_ops_[i]->inc();
  }
  add_time(t_keys_,
           Cost::per_query * static_cast<double>(shards_.size()));
  static obs::Counter& ops = obs::counter("kv.ops.count");
  ops.inc();
  return n;
}

namespace {
/// Input indices grouped by shard, plus the list of touched shards in index
/// order.
struct ShardGroups {
  std::vector<std::vector<std::uint32_t>> by_shard;
  std::vector<std::size_t> touched;
};

template <typename KeyOf>
ShardGroups group_by_shard(std::size_t n, std::size_t n_shards,
                           const KeyOf& shard_of) {
  ShardGroups g;
  g.by_shard.resize(n_shards);
  for (std::size_t i = 0; i < n; ++i)
    g.by_shard[shard_of(i)].push_back(static_cast<std::uint32_t>(i));
  for (std::size_t s = 0; s < n_shards; ++s)
    if (!g.by_shard[s].empty()) g.touched.push_back(s);
  return g;
}
}  // namespace

std::vector<std::optional<util::Bytes>> KvCluster::mget(
    const std::vector<std::string>& keys) const {
  std::vector<std::optional<util::Bytes>> out(keys.size());
  if (keys.empty()) return out;
  const auto groups = group_by_shard(
      keys.size(), shards_.size(),
      [&](std::size_t i) { return server_of(keys[i]); });
  note_batch("kv.ops.mget", keys.size());

  for (const std::size_t s : groups.touched) {
    const Shard& shard = *shards_[s];
    std::shared_lock lock(shard.mutex);
    double dt = Cost::per_query;  // one pipelined round trip per shard
    for (const std::uint32_t idx : groups.by_shard[s]) {
      auto it = shard.data.find(keys[idx]);
      if (it != shard.data.end()) {
        out[idx] = it->second;
        dt += Cost::per_byte * static_cast<double>(it->second.size());
      }
      dt += Cost::batch_per_key;
    }
    shard_ops_[s]->inc();
    add_time(t_reads_, dt);
  }
  return out;
}

std::size_t KvCluster::mrename(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    std::vector<char>* renamed) {
  if (renamed != nullptr) renamed->assign(pairs.size(), 0);
  if (pairs.empty()) return 0;
  const auto groups = group_by_shard(
      pairs.size(), shards_.size(),
      [&](std::size_t i) { return server_of(pairs[i].first); });
  note_batch("kv.ops.mrename", pairs.size());

  // Source-shard groups apply serially in shard order. Each group locks its
  // source shard plus every destination shard it touches, all exclusively
  // and in ascending index order (the cluster-wide lock order), so its
  // cross-shard moves are atomic to every other client.
  std::size_t n_renamed = 0;
  for (const std::size_t s : groups.touched) {
    std::vector<std::size_t> involved{s};
    std::size_t cross_pairs = 0;
    for (const std::uint32_t idx : groups.by_shard[s]) {
      const std::size_t d = server_of(pairs[idx].second);
      if (d != s) {
        involved.push_back(d);
        ++cross_pairs;
      }
    }
    std::sort(involved.begin(), involved.end());
    involved.erase(std::unique(involved.begin(), involved.end()),
                   involved.end());

    std::vector<std::unique_lock<std::shared_mutex>> locks;
    locks.reserve(involved.size());
    for (const std::size_t i : involved)
      locks.emplace_back(shards_[i]->mutex);

    for (const std::uint32_t idx : groups.by_shard[s]) {
      const auto& [from, to] = pairs[idx];
      if (!move_locked(*shards_[s], *shards_[server_of(to)], from, to))
        continue;
      ++n_renamed;
      if (renamed != nullptr) (*renamed)[idx] = 1;
    }
    // One DEL round trip on the source shard plus one SET round trip per
    // distinct destination shard; cross-shard pairs pay the marginal twice.
    add_time(t_dels_, Cost::per_query +
                          Cost::batch_per_key *
                              static_cast<double>(groups.by_shard[s].size()));
    add_time(t_writes_,
             Cost::per_query * static_cast<double>(involved.size() - 1) +
                 Cost::batch_per_key * static_cast<double>(cross_pairs));
    for (const std::size_t i : involved) shard_ops_[i]->inc();
  }
  return n_renamed;
}

std::size_t KvCluster::total_keys() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    n += shard->data.size();
  }
  return n;
}

std::uint64_t KvCluster::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    for (const auto& [_, v] : shard->data) n += v.size();
  }
  return n;
}

void KvCluster::reset_sim_time() {
  t_keys_.store(0.0);
  t_reads_.store(0.0);
  t_dels_.store(0.0);
  t_writes_.store(0.0);
}

}  // namespace mummi::ds
