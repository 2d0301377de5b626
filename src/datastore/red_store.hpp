// DataStore backend over the in-memory KV cluster.
//
// Records map to cluster keys "<namespace>:<key>", mirroring Redis key
// conventions. move() is a RENAME — the O(1) tagging operation the fast
// feedback loop relies on.
#pragma once

#include <memory>

#include "datastore/data_store.hpp"
#include "datastore/kv_cluster.hpp"

namespace mummi::ds {

class RedStore final : public DataStore {
 public:
  /// Shares an externally owned cluster (several components talk to the same
  /// cluster in a campaign, as on Summit with the 20-node Redis allocation).
  explicit RedStore(std::shared_ptr<KvCluster> cluster);

  /// Convenience: owns a fresh cluster of `n_servers`.
  explicit RedStore(std::size_t n_servers);

  void put(const std::string& ns, const std::string& key,
           const util::Bytes& value) override;
  [[nodiscard]] util::Bytes get(const std::string& ns,
                                const std::string& key) const override;
  [[nodiscard]] bool exists(const std::string& ns,
                            const std::string& key) const override;
  [[nodiscard]] std::vector<std::string> keys(
      const std::string& ns, const std::string& pattern) const override;
  bool erase(const std::string& ns, const std::string& key) override;
  void move(const std::string& src_ns, const std::string& key,
            const std::string& dst_ns) override;
  // Batched forms map onto cluster pipelines (MGET / MRENAME): one round
  // trip per shard touched instead of one per record.
  [[nodiscard]] std::vector<util::Bytes> get_many(
      const std::string& ns,
      const std::vector<std::string>& keys) const override;
  void move_many(const std::string& src_ns,
                 const std::vector<std::string>& keys,
                 const std::string& dst_ns) override;
  [[nodiscard]] std::string backend() const override { return "redis"; }

  [[nodiscard]] KvCluster& cluster() { return *cluster_; }
  [[nodiscard]] const KvCluster& cluster() const { return *cluster_; }

 private:
  static std::string full_key(const std::string& ns, const std::string& key);

  std::shared_ptr<KvCluster> cluster_;
};

}  // namespace mummi::ds
