#include "datastore/tar_store.hpp"

#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace mummi::ds {

TarStore::TarStore(std::string root) : root_(std::move(root)) {
  util::make_dirs(root_);
}

TarIdx& TarStore::archive(const std::string& ns) const {
  MUMMI_CHECK_MSG(!ns.empty() && ns.find('/') == std::string::npos,
                  "invalid namespace: " + ns);
  std::lock_guard lock(mutex_);
  auto it = archives_.find(ns);
  if (it == archives_.end()) {
    auto tar = std::make_unique<TarIdx>(root_ + "/" + ns + ".tar");
    it = archives_.emplace(ns, std::move(tar)).first;
  }
  return *it->second;
}

void TarStore::put(const std::string& ns, const std::string& key,
                   const util::Bytes& value) {
  archive(ns).append(key, value);
}

util::Bytes TarStore::get(const std::string& ns, const std::string& key) const {
  auto data = archive(ns).read(key);
  if (!data) throw util::StoreError("missing record: " + ns + "/" + key);
  return *data;
}

bool TarStore::exists(const std::string& ns, const std::string& key) const {
  return archive(ns).contains(key);
}

std::vector<std::string> TarStore::keys(const std::string& ns,
                                        const std::string& pattern) const {
  std::vector<std::string> out;
  for (auto& key : archive(ns).keys())
    if (util::glob_match(pattern, key)) out.push_back(std::move(key));
  return out;
}

bool TarStore::erase(const std::string& ns, const std::string& key) {
  // Index-only removal: "one may explicitly manipulate the associated index
  // files to 'remove' a key [but] the data itself cannot be updated".
  return archive(ns).erase_key(key);
}

void TarStore::move(const std::string& src_ns, const std::string& key,
                    const std::string& dst_ns) {
  auto data = archive(src_ns).read(key);
  if (!data) throw util::StoreError("missing record: " + src_ns + "/" + key);
  archive(dst_ns).append(key, *data);
  archive(src_ns).erase_key(key);
}

std::vector<util::Bytes> TarStore::get_many(
    const std::string& ns, const std::vector<std::string>& keys) const {
  TarIdx& tar = archive(ns);
  std::vector<util::Bytes> out;
  out.reserve(keys.size());
  for (const auto& key : keys) {
    auto data = tar.read(key);
    if (!data) throw util::StoreError("missing record: " + ns + "/" + key);
    out.push_back(std::move(*data));
  }
  return out;
}

void TarStore::move_many(const std::string& src_ns,
                         const std::vector<std::string>& keys,
                         const std::string& dst_ns) {
  if (keys.empty()) return;
  TarIdx& src = archive(src_ns);
  TarIdx& dst = archive(dst_ns);
  for (const auto& key : keys) {
    auto data = src.read(key);
    if (!data) throw util::StoreError("missing record: " + src_ns + "/" + key);
    dst.append(key, *data);
    src.erase_key(key);
  }
}

void TarStore::flush() {
  std::lock_guard lock(mutex_);
  for (auto& [_, tar] : archives_) tar->flush();
}

std::size_t TarStore::inode_count() const {
  std::lock_guard lock(mutex_);
  return archives_.size() * 2;
}

}  // namespace mummi::ds
