#include "datastore/red_store.hpp"

#include "util/error.hpp"

namespace mummi::ds {

RedStore::RedStore(std::shared_ptr<KvCluster> cluster)
    : cluster_(std::move(cluster)) {
  MUMMI_CHECK(cluster_ != nullptr);
}

RedStore::RedStore(std::size_t n_servers)
    : cluster_(std::make_shared<KvCluster>(n_servers)) {}

std::string RedStore::full_key(const std::string& ns, const std::string& key) {
  MUMMI_CHECK_MSG(!ns.empty() && ns.find(':') == std::string::npos,
                  "invalid namespace: " + ns);
  MUMMI_CHECK_MSG(!key.empty(), "empty key");
  return ns + ":" + key;
}

void RedStore::put(const std::string& ns, const std::string& key,
                   const util::Bytes& value) {
  cluster_->set(full_key(ns, key), value);
}

util::Bytes RedStore::get(const std::string& ns, const std::string& key) const {
  auto v = cluster_->get(full_key(ns, key));
  if (!v) throw util::StoreError("missing record: " + ns + "/" + key);
  return *v;
}

bool RedStore::exists(const std::string& ns, const std::string& key) const {
  return cluster_->exists(full_key(ns, key));
}

std::vector<std::string> RedStore::keys(const std::string& ns,
                                        const std::string& pattern) const {
  MUMMI_CHECK_MSG(!ns.empty() && ns.find(':') == std::string::npos,
                  "invalid namespace: " + ns);
  const std::string prefix = ns + ":";
  std::vector<std::string> out;
  // Namespace-confined listing: O(keys in ns), never scans other namespaces.
  for (auto& full : cluster_->keys(ns, pattern))
    out.push_back(full.substr(prefix.size()));
  return out;
}

std::vector<util::Bytes> RedStore::get_many(
    const std::string& ns, const std::vector<std::string>& keys) const {
  std::vector<std::string> full;
  full.reserve(keys.size());
  for (const auto& key : keys) full.push_back(full_key(ns, key));
  auto values = cluster_->mget(full);
  std::vector<util::Bytes> out;
  out.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!values[i])
      throw util::StoreError("missing record: " + ns + "/" + keys[i]);
    out.push_back(std::move(*values[i]));
  }
  return out;
}

void RedStore::move_many(const std::string& src_ns,
                         const std::vector<std::string>& keys,
                         const std::string& dst_ns) {
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(keys.size());
  for (const auto& key : keys)
    pairs.emplace_back(full_key(src_ns, key), full_key(dst_ns, key));
  std::vector<char> renamed;
  cluster_->mrename(pairs, &renamed);
  for (std::size_t i = 0; i < keys.size(); ++i)
    if (!renamed[i])
      throw util::StoreError("missing record: " + src_ns + "/" + keys[i]);
}

bool RedStore::erase(const std::string& ns, const std::string& key) {
  return cluster_->del(full_key(ns, key));
}

void RedStore::move(const std::string& src_ns, const std::string& key,
                    const std::string& dst_ns) {
  if (!cluster_->rename(full_key(src_ns, key), full_key(dst_ns, key)))
    throw util::StoreError("missing record: " + src_ns + "/" + key);
}

}  // namespace mummi::ds
