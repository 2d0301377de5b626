// Armored checkpoint I/O.
//
// Paper Sec. 4.2/4.4: "I/O armoring and redundancy is used to guard against
// filesystem failures, e.g., backups of checkpoint files and retrials if
// reading/writing fails", and components "can be restored completely after
// any such crash". CheckpointFile provides:
//   - atomic replace (write sibling .tmp, rename over the primary),
//   - a rotating .bak of the previous good checkpoint,
//   - bounded retries on transient failures,
//   - a checksummed frame carrying a monotone generation counter (frame v4),
//     so load() recovers the newest *complete* state among
//     {primary, .bak, .tmp} — in particular a crash between the .bak
//     rotation and the final rename no longer loses the fully-written .tmp.
//     The checksum is a word-at-a-time hash over generation | size | payload;
//     load() validates candidates newest first and reads only what it needs.
//
// The save path is instrumented with util::crash_point boundaries
// (ckpt.save.pre_tmp / post_tmp / post_bak / post_rename); the crash-point
// sweep (tests + bench_resilience --crash-sweep) kills a run at each of them
// and proves recovery, per the crash-consistency contract in DESIGN.md 4i.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/backoff.hpp"
#include "util/bytes.hpp"

namespace mummi::util {

/// How armored file writes retry: capped exponential backoff between
/// attempts, waited out by `sleep` (wall clock by default; tests and the
/// virtual-time campaign substitute recorders/accountants).
struct IoRetryPolicy {
  BackoffPolicy backoff{/*max_attempts=*/4, /*base_delay_s=*/1e-3,
                        /*multiplier=*/2.0, /*max_delay_s=*/0.25,
                        /*jitter_frac=*/0.25};
  SleepFn sleep;                // empty = sleep for real (wall_sleeper)
  // Seed of the deterministic jitter stream.
  static constexpr std::uint64_t jitter_seed = 0x10aded;
};

class CheckpointFile {
 public:
  /// `path` is the primary checkpoint location; "<path>.bak" holds the
  /// previous good version.
  explicit CheckpointFile(std::string path, IoRetryPolicy retry = {});

  /// Atomically replaces the checkpoint with `payload`, stamped with the
  /// next generation. Keeps the previous version as backup. Throws IoError
  /// after retries.
  void save(const Bytes& payload) const;

  /// Loads the newest complete checkpoint: the highest-generation candidate
  /// among {primary, .bak, .tmp} that passes its checksum (ties prefer
  /// primary, then .bak). Candidates are tried in descending generation
  /// order and the first valid one is returned. Logs and counts
  /// (`ckpt.recovered_from`) when a non-primary wins. Returns nullopt when
  /// no valid candidate exists.
  [[nodiscard]] std::optional<Bytes> load() const;

  /// True if any of primary / .bak / .tmp exists (validity not checked).
  [[nodiscard]] bool exists() const;

  /// Removes primary, backup and temp (for tests and controlled resets).
  void remove() const;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  /// Monotone per-path frame counter; a fresh handle resumes past every
  /// on-disk candidate (including torn ones) so generations never regress.
  [[nodiscard]] std::uint64_t next_generation() const;

  std::string path_;
  IoRetryPolicy retry_;
  // Cached generation high-water mark; lazily seeded from disk. save() and
  // load() are logically const (the checkpoint *content* is the state).
  mutable std::uint64_t gen_ = 0;
  mutable bool gen_known_ = false;
};

/// Reads a whole file into bytes; nullopt if it does not exist.
[[nodiscard]] std::optional<Bytes> read_file(const std::string& path);

/// Writes bytes to a file (truncating); retries transient failures under the
/// policy's capped-exponential backoff instead of hammering the filesystem.
void write_file(const std::string& path, const Bytes& data,
                const IoRetryPolicy& retry = {});

/// Creates a directory and parents, like `mkdir -p`.
void make_dirs(const std::string& path);

/// Removes a file if present; returns whether it existed.
bool remove_file(const std::string& path);

}  // namespace mummi::util
