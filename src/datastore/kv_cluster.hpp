// In-memory sharded key-value cluster (the Redis substitute).
//
// Paper Sec. 4.2: "MuMMI's redis interface sets up a cluster of Redis servers
// that are allocated randomly to all compute nodes ... we leverage Redis as a
// short-term and highly responsive in-memory cache to reduce the amount of
// time per feedback loop."
//
// KvCluster implements the query surface the feedback loop uses — SET / GET /
// KEYS(pattern) / DEL / RENAME plus the pipelined batch forms MGET and
// MRENAME — over N shards guarded by shared mutexes (shared for
// reads, exclusive for mutations). Each shard keeps a secondary
// namespace index ("<ns>:" key prefix -> key set) so namespace-confined
// listing and counting are O(keys-in-namespace), not O(total keys) — the
// property the paper's tagging strategy exists to provide ("feedback cost
// scales with the number of ongoing simulations, not with history").
//
// A cost model *accounts* (never sleeps) virtual network time per operation
// so benches can report Summit-calibrated latencies (Fig. 7) while running at
// memory speed. Batched operations charge Redis-pipelining semantics: one
// round trip per shard touched plus a small per-key marginal, which is where
// the measured collect+tag speedup comes from.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace mummi::obs {
class Counter;
}  // namespace mummi::obs

namespace mummi::ds {

/// Virtual-time cost of cluster operations, calibrated to the paper's
/// measured rates (~10k key-retrievals+deletions/s, ~2k value-reads/s on a
/// 20-node cluster at 4000-node scale).
struct KvCostModel {
  static constexpr double per_query = 1.0e-4;  // s per round trip (del/set)
  static constexpr double per_read = 5.0e-4;  // seconds per value retrieval
  static constexpr double per_byte = 2.0e-9;  // payload transfer
  static constexpr double per_scanned_key = 2.0e-8;  // KEYS scan per key
  static constexpr double per_returned_key = 1.0e-4;  // KEYS transfer per match
  /// Marginal per sub-operation inside a pipelined batch: the per-key server
  /// work once the round trip is amortized over the whole shard group.
  static constexpr double batch_per_key = 2.0e-5;
};

class KvCluster {
 public:
  /// A cluster of `n_servers` shards. Keys map to shards by hash, mirroring
  /// Redis hash slots.
  explicit KvCluster(std::size_t n_servers);

  void set(const std::string& key, util::Bytes value);
  [[nodiscard]] std::optional<util::Bytes> get(const std::string& key) const;
  [[nodiscard]] bool exists(const std::string& key) const;
  bool del(const std::string& key);
  /// Renames a key (the feedback "tagging" primitive). Returns false when
  /// the source key is absent. Cross-shard renames are delete+set and charge
  /// two round trips (one per shard); they hold both shard locks (in index
  /// order), so no reader sees the record on both shards or on neither.
  bool rename(const std::string& from, const std::string& to);

  /// All keys matching a glob pattern, across every shard, in sorted order.
  /// Patterns with a literal "<ns>:" prefix ("rdf-pending:*") are routed
  /// through the namespace index and never scan other namespaces' keys.
  [[nodiscard]] std::vector<std::string> keys(const std::string& pattern) const;

  /// Namespace-confined listing: full keys "<ns>:<tail>" whose tail matches
  /// `pattern` (`ns` empty selects keys containing no ':'). O(keys in `ns`),
  /// independent of every other namespace. Sorted order.
  [[nodiscard]] std::vector<std::string> keys(const std::string& ns,
                                              const std::string& pattern) const;

  /// Number of keys in a namespace, from the index alone — no key is
  /// scanned or transferred.
  [[nodiscard]] std::size_t count(const std::string& ns) const;

  // --- pipelined batch operations ------------------------------------------
  // Redis-pipelining semantics: sub-ops are grouped per shard, each touched
  // shard's lock is taken once, and the cost model charges one round trip per
  // shard touched plus `batch_per_key` per sub-op. Results land at the same
  // index as the input key. Batches with duplicate keys (or rename pairs
  // sharing keys) resolve same-shard conflicts in input order and
  // cross-shard conflicts in shard order.

  [[nodiscard]] std::vector<std::optional<util::Bytes>> mget(
      const std::vector<std::string>& keys) const;

  /// Batched tagging: renames each (from, to) pair. Returns the number of
  /// pairs whose source existed; `renamed`, when given, is resized to the
  /// pair count and flags each of them. Cross-shard pairs lock source and
  /// destination shards together (index order), like rename().
  std::size_t mrename(
      const std::vector<std::pair<std::string, std::string>>& pairs,
      std::vector<char>* renamed = nullptr);

  [[nodiscard]] std::size_t n_servers() const { return shards_.size(); }
  [[nodiscard]] std::size_t server_of(const std::string& key) const;
  [[nodiscard]] std::size_t total_keys() const;
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Accumulated virtual network seconds, split by operation class — the
  /// quantities Fig. 7 plots.
  [[nodiscard]] double sim_seconds_keys() const { return t_keys_.load(); }
  [[nodiscard]] double sim_seconds_reads() const { return t_reads_.load(); }
  [[nodiscard]] double sim_seconds_deletes() const { return t_dels_.load(); }
  [[nodiscard]] double sim_seconds_writes() const { return t_writes_.load(); }
  /// Sum of the four per-class ledgers — what benches report as "KV time".
  [[nodiscard]] double total_sim_seconds() const;
  void reset_sim_time();

 private:
  struct Shard {
    /// Lock discipline: shared for get/exists/keys/count/mget, exclusive for
    /// every mutation.
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, util::Bytes> data;
    /// Secondary index: namespace -> keys. The namespace of a key is the
    /// prefix before its first ':' ("" for keys without one). Kept exactly
    /// in sync with `data` under the exclusive lock; empty sets are erased
    /// so count()/keys(ns) never iterate dead namespaces.
    std::unordered_map<std::string, std::unordered_set<std::string>> by_ns;
  };

  static void add_time(std::atomic<double>& counter, double dt);
  static std::string_view ns_of(std::string_view key);
  static void index_add(Shard& shard, const std::string& key);
  static void index_remove(Shard& shard, const std::string& key);
  /// Shared scan implementation for keys(pattern) and keys(ns, pattern).
  [[nodiscard]] std::vector<std::string> scan(const std::string* ns,
                                              const std::string& pattern) const;
  /// Same-slot move of `from`'s record to `to` across (possibly identical)
  /// shards; caller holds both exclusive locks. Returns false when absent.
  static bool move_locked(Shard& src, Shard& dst, const std::string& from,
                          const std::string& to);

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-shard op counters ("kv.shard.<i>.ops"), cached at construction so
  /// the hot KV paths never build a metric name. Registry handles are
  /// process-stable, and clusters of equal size share them. A batch visit
  /// counts once per shard touched (it models one pipelined round trip).
  std::vector<obs::Counter*> shard_ops_;
  mutable std::atomic<double> t_keys_{0.0};
  mutable std::atomic<double> t_reads_{0.0};
  mutable std::atomic<double> t_dels_{0.0};
  mutable std::atomic<double> t_writes_{0.0};
};

}  // namespace mummi::ds
