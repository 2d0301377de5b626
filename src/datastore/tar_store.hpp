// DataStore backend over taridx archives: one archive per namespace.
//
// "One of the simplest ways of reducing the inode count is to collect files
// into archives" (paper Sec. 4.2). Each namespace maps to <root>/<ns>.tar +
// <root>/<ns>.tar.idx — two inodes regardless of member count.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "datastore/data_store.hpp"
#include "datastore/taridx.hpp"

namespace mummi::ds {

class TarStore final : public DataStore {
 public:
  explicit TarStore(std::string root);

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
  // Batched forms resolve each namespace's archive once per batch instead of
  // once per record (archive lookup takes the store-wide mutex).
  [[nodiscard]] std::vector<util::Bytes> get_many(
      const std::string& ns,
      const std::vector<std::string>& keys) const override;
  void move_many(const std::string& src_ns,
                 const std::vector<std::string>& keys,
                 const std::string& dst_ns) override;
  void flush() override;
  [[nodiscard]] std::string backend() const override { return "taridx"; }

  /// Number of inodes used (2 per touched namespace: tar + idx).
  [[nodiscard]] std::size_t inode_count() const;

 private:
  TarIdx& archive(const std::string& ns) const;

  std::string root_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, std::unique_ptr<TarIdx>> archives_;
};

}  // namespace mummi::ds
