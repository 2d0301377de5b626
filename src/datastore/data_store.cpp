#include "datastore/data_store.hpp"

namespace mummi::ds {

std::size_t DataStore::count(const std::string& ns) const {
  return keys(ns, "*").size();
}

void DataStore::put_text(const std::string& ns, const std::string& key,
                         const std::string& text) {
  put(ns, key, util::to_bytes(text));
}

std::string DataStore::get_text(const std::string& ns,
                                const std::string& key) const {
  return util::to_string(get(ns, key));
}

void DataStore::put_npy(const std::string& ns, const std::string& key,
                        const util::NpyArray& array) {
  put(ns, key, util::npy_encode(array));
}

util::NpyArray DataStore::get_npy(const std::string& ns,
                                  const std::string& key) const {
  return util::npy_decode(get(ns, key));
}

}  // namespace mummi::ds
