// Config-driven backend selection — the paper's "single configuration
// switch" that redirects a byte stream to a file, an archive, or a database.
//
// Recognized keys (section "datastore"):
//   datastore.backend   = filesystem | taridx | redis   (required)
//   datastore.root      = <dir>          (filesystem/taridx; required)
//   datastore.servers   = <n>            (redis; default 20, as on Summit)
#pragma once

#include "datastore/data_store.hpp"
#include "util/config.hpp"

namespace mummi::ds {

/// Builds a DataStore from configuration. Throws util::ConfigError for an
/// unknown backend or missing required keys.
[[nodiscard]] DataStorePtr make_store(const util::Config& config);

}  // namespace mummi::ds
