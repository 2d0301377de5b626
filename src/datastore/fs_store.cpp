#include "datastore/fs_store.hpp"

#include <cstring>
#include <filesystem>

#include "obs/metrics.hpp"
#include "util/backoff.hpp"
#include "util/checkpoint.hpp"
#include "util/crashpoint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace fs = std::filesystem;

namespace mummi::ds {

namespace {
constexpr const char* kTmpSuffix = ".tmp";

bool is_tmp_name(const std::string& name) {
  const std::size_t n = std::strlen(kTmpSuffix);
  return name.size() > n && name.compare(name.size() - n, n, kTmpSuffix) == 0;
}

void validate(const std::string& ns, const std::string& key) {
  MUMMI_CHECK_MSG(!ns.empty() && ns.find('/') == std::string::npos,
                  "invalid namespace: " + ns);
  MUMMI_CHECK_MSG(!key.empty() && key.find('/') == std::string::npos,
                  "invalid key: " + key);
  // The ".tmp" sibling of a key is the atomic-put staging file; a key with
  // that suffix would collide with another key's staging path.
  MUMMI_CHECK_MSG(!is_tmp_name(key), "reserved key suffix .tmp: " + key);
}
}  // namespace

FsStore::FsStore(std::string root, util::IoRetryPolicy retry)
    : root_(std::move(root)), retry_(std::move(retry)) {
  util::make_dirs(root_);
}

void FsStore::inject_failures(int count) {
  std::lock_guard lock(mutex_);
  pending_failures_ += count;
}

int FsStore::injected_remaining() const {
  std::lock_guard lock(mutex_);
  return pending_failures_;
}

std::uint64_t FsStore::io_retries() const {
  std::lock_guard lock(mutex_);
  return io_retries_;
}

void FsStore::armored(const char* what, const std::string& path,
                      const std::function<void()>& io) const {
  static obs::Counter& ops = obs::counter("fs.ops");
  static obs::Counter& retries = obs::counter("fs.retries");
  static obs::Counter& injected_failures = obs::counter("fs.injected_failures");
  static obs::Counter& failures = obs::counter("fs.failures");
  ops.inc();
  // One jitter stream per call, seeded as util::write_file seeds its own.
  util::Rng jitter_rng(retry_.jitter_seed ^ util::fnv1a(path));
  const util::SleepFn sleep =
      retry_.sleep ? retry_.sleep : util::wall_sleeper();
  std::string last_error = "unavailable";
  int attempt = 0;
  const bool ok =
      util::retry_with_backoff(retry_.backoff, jitter_rng, sleep, [&] {
        bool injected = false;
        {
          std::lock_guard lock(mutex_);
          if (attempt > 0) ++io_retries_;
          if (pending_failures_ > 0) {
            --pending_failures_;
            injected = true;
          }
        }
        if (attempt++ > 0) retries.inc();
        if (injected) {
          injected_failures.inc();
          last_error = "injected I/O failure";
          return false;
        }
        try {
          io();
          return true;
        } catch (const util::UnavailableError& err) {
          last_error = err.what();
          return false;
        }
      });
  if (ok) return;
  failures.inc();
  throw util::UnavailableError(std::string("fs store ") + what +
                               " failed after retries: " + last_error);
}

std::string FsStore::path_of(const std::string& ns,
                             const std::string& key) const {
  return root_ + "/" + ns + "/" + key;
}

void FsStore::atomic_put(const std::string& path,
                         const util::Bytes& value) const {
  static obs::Counter& torn_prevented =
      obs::counter("fs.torn_writes_prevented");
  const std::string tmp = path + kTmpSuffix;
  std::error_code ec;
  // A leftover sibling temp is the footprint of a crash inside an earlier
  // put: the write that, done in place, would have torn the record.
  if (fs::exists(tmp, ec)) torn_prevented.inc();
  util::crash_point("fs.put.pre_tmp");
  util::write_file(tmp, value, retry_);
  util::crash_point("fs.put.post_tmp");
  fs::rename(tmp, path, ec);
  if (ec)
    throw util::UnavailableError("atomic put rename failed: " + path + ": " +
                                 ec.message());
  util::crash_point("fs.put.post_rename");
}

void FsStore::put(const std::string& ns, const std::string& key,
                  const util::Bytes& value) {
  validate(ns, key);
  util::make_dirs(root_ + "/" + ns);
  // Crash-atomic: stage the value in a sibling ".tmp" and rename into place,
  // so a reader (or a restart) sees either the old record or the new one,
  // never a torn prefix — the in-place trunc write this replaces left a
  // partial value that a later get() returned as valid.
  const std::string path = path_of(ns, key);
  armored("put", path, [&] { atomic_put(path, value); });
}

util::Bytes FsStore::get(const std::string& ns, const std::string& key) const {
  validate(ns, key);
  std::optional<util::Bytes> data;
  const std::string path = path_of(ns, key);
  armored("get", path, [&] { data = util::read_file(path); });
  // A missing record is a definitive answer, not a transient fault — it is
  // never retried.
  if (!data) throw util::StoreError("missing record: " + ns + "/" + key);
  return *data;
}

bool FsStore::exists(const std::string& ns, const std::string& key) const {
  validate(ns, key);
  return fs::exists(path_of(ns, key));
}

std::vector<std::string> FsStore::keys(const std::string& ns,
                                       const std::string& pattern) const {
  std::vector<std::string> out;
  const std::string dir = root_ + "/" + ns;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // Staging files from in-flight (or crashed) atomic puts are not records.
    if (is_tmp_name(name)) continue;
    if (util::glob_match(pattern, name)) out.push_back(name);
  }
  return out;
}

bool FsStore::erase(const std::string& ns, const std::string& key) {
  validate(ns, key);
  util::crash_point("fs.del.pre");
  return util::remove_file(path_of(ns, key));
}

void FsStore::move(const std::string& src_ns, const std::string& key,
                   const std::string& dst_ns) {
  validate(src_ns, key);
  validate(dst_ns, key);
  util::make_dirs(root_ + "/" + dst_ns);
  util::crash_point("fs.move.pre");
  const std::string src = path_of(src_ns, key);
  armored("move", src, [&] {
    std::error_code ec;
    fs::rename(src, path_of(dst_ns, key), ec);
    if (ec)
      throw util::StoreError("move failed: " + src_ns + "/" + key + " -> " +
                             dst_ns + ": " + ec.message());
  });
  util::crash_point("fs.move.post");
}

std::vector<util::Bytes> FsStore::get_many(
    const std::string& ns, const std::vector<std::string>& keys) const {
  std::vector<util::Bytes> out;
  out.reserve(keys.size());
  for (const auto& key : keys) {
    validate(ns, key);
    std::optional<util::Bytes> data;
    const std::string path = path_of(ns, key);
    armored("get", path, [&] { data = util::read_file(path); });
    if (!data) throw util::StoreError("missing record: " + ns + "/" + key);
    out.push_back(std::move(*data));
  }
  return out;
}

void FsStore::move_many(const std::string& src_ns,
                        const std::vector<std::string>& keys,
                        const std::string& dst_ns) {
  if (keys.empty()) return;
  util::make_dirs(root_ + "/" + dst_ns);
  // Each rename is atomic but the batch is not: a mid-batch failure (or
  // crash) leaves a prefix of the keys moved. The error enumerates exactly
  // which, so callers can reconcile instead of guessing.
  std::vector<std::string> moved;
  moved.reserve(keys.size());
  for (const auto& key : keys) {
    validate(src_ns, key);
    validate(dst_ns, key);
    util::crash_point("fs.move_many.mid");
    try {
      const std::string src = path_of(src_ns, key);
      armored("move", src, [&] {
        std::error_code ec;
        fs::rename(src, path_of(dst_ns, key), ec);
        if (ec)
          throw util::StoreError("move failed: " + src_ns + "/" + key + " -> " +
                                 dst_ns + ": " + ec.message());
      });
    } catch (const util::Error& err) {
      std::string already;
      for (const auto& m : moved) {
        if (!already.empty()) already += ",";
        already += m;
      }
      if (already.empty()) already = "none";
      throw util::StoreError(
          "move_many " + src_ns + " -> " + dst_ns + " failed at key '" + key +
          "' (" + std::to_string(moved.size()) + "/" +
          std::to_string(keys.size()) + " already moved: " + already +
          "): " + err.what());
    }
    moved.push_back(key);
  }
}

std::size_t FsStore::inode_count() const {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       it != fs::recursive_directory_iterator(); ++it)
    if (it->is_regular_file() && !is_tmp_name(it->path().filename().string()))
      ++n;
  return n;
}

}  // namespace mummi::ds
