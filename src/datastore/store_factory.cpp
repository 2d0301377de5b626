#include "datastore/store_factory.hpp"

#include "datastore/fs_store.hpp"
#include "datastore/red_store.hpp"
#include "datastore/tar_store.hpp"
#include "util/error.hpp"

namespace mummi::ds {

DataStorePtr make_store(const util::Config& config) {
  const std::string backend = config.get_string("datastore.backend");
  if (backend == "filesystem") {
    return std::make_shared<FsStore>(config.get_string("datastore.root"));
  }
  if (backend == "taridx") {
    return std::make_shared<TarStore>(config.get_string("datastore.root"));
  }
  if (backend == "redis") {
    const auto servers =
        static_cast<std::size_t>(config.get_int("datastore.servers", 20));
    return std::make_shared<RedStore>(servers);
  }
  throw util::ConfigError("unknown datastore backend: " + backend);
}

}  // namespace mummi::ds
