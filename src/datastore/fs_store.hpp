// Filesystem backend: one directory per namespace, one file per key.
//
// "The simplest data interface accesses the filesystem directly ... most
// suitable for small files, e.g., those that store the state of the
// simulation" (paper Sec. 4.2). Reads and writes go through armored I/O with
// retries.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "datastore/data_store.hpp"
#include "util/checkpoint.hpp"

namespace mummi::ds {

class FsStore final : public DataStore {
 public:
  /// Records live under `root/<namespace>/<key>`. Keys are sanitized:
  /// '/' is rejected to keep namespaces flat, and the ".tmp" suffix is
  /// reserved for the crash-atomic put staging file. `retry` governs the
  /// armored I/O paths (put/get/move): capped exponential backoff with
  /// deterministic jitter between attempts.
  explicit FsStore(std::string root, util::IoRetryPolicy retry = {});

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
  // Batched forms keep per-file armored I/O (each file can still fail and
  // retry independently) but pay directory setup once per batch instead of
  // once per record.
  [[nodiscard]] std::vector<util::Bytes> get_many(
      const std::string& ns,
      const std::vector<std::string>& keys) const override;
  void move_many(const std::string& src_ns,
                 const std::vector<std::string>& keys,
                 const std::string& dst_ns) override;
  [[nodiscard]] std::string backend() const override { return "filesystem"; }

  /// Number of inodes (files) currently held — the metric tar archiving
  /// reduces 9000x in the paper.
  [[nodiscard]] std::size_t inode_count() const;

  [[nodiscard]] const std::string& root() const { return root_; }

  // --- fault injection (paper Sec. 4.4: "retrials if reading/writing
  // fails") ----------------------------------------------------------------
  /// The next `count` armored I/O attempts fail with util::UnavailableError
  /// before touching the filesystem; the retry loop absorbs them (or throws
  /// once the backoff policy is exhausted).
  void inject_failures(int count);
  [[nodiscard]] int injected_remaining() const;
  /// Armored I/O attempts beyond the first, summed over all operations.
  [[nodiscard]] std::uint64_t io_retries() const;

 private:
  [[nodiscard]] std::string path_of(const std::string& ns,
                                    const std::string& key) const;
  /// Crash-atomic single-record write: stage in `path + ".tmp"`, rename into
  /// place. A crash leaves either the old record or the new one, plus at
  /// worst a stale .tmp that the next put detects (fs.torn_writes_prevented)
  /// and overwrites.
  void atomic_put(const std::string& path, const util::Bytes& value) const;
  /// Runs `io` under the retry policy (at least once, whatever
  /// max_attempts says), jittering its waits from a stream seeded by
  /// `path`. Injected failures consume one pending count per attempt;
  /// exhaustion throws util::UnavailableError.
  void armored(const char* what, const std::string& path,
               const std::function<void()>& io) const;

  std::string root_;
  util::IoRetryPolicy retry_;
  mutable std::mutex mutex_;
  mutable int pending_failures_ = 0;
  mutable std::uint64_t io_retries_ = 0;
};

}  // namespace mummi::ds
