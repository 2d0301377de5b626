#include "util/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/crashpoint.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace fs = std::filesystem;

namespace mummi::util {

namespace {
// Frame v3 ("MuMMICK3"): magic, generation, size, checksum, payload. The
// generation is a per-path monotone counter so load() can pick the newest
// *complete* state among {path, .bak, .tmp} — a crash between the .bak
// rotation and the final rename leaves the newest frame only in .tmp, and
// without generations that frame was silently discarded for the older .bak.
constexpr std::uint64_t kMagicV3 = 0x4d754d4d49434b33ULL;

Bytes frame(const Bytes& payload, std::uint64_t generation) {
  ByteWriter w;
  w.u64(kMagicV3);
  w.u64(generation);
  w.u64(payload.size());
  w.u64(fnv1a(payload.data(), payload.size()));
  w.raw(payload.data(), payload.size());
  return std::move(w).take();
}

struct Unframed {
  Bytes payload;
  std::uint64_t generation = 0;
};

std::optional<Unframed> unframe(const Bytes& raw) {
  try {
    ByteReader r(raw);
    if (r.u64() != kMagicV3) return std::nullopt;
    Unframed out;
    out.generation = r.u64();
    const auto size = r.u64();
    const auto checksum = r.u64();
    if (size > r.remaining()) return std::nullopt;
    out.payload.resize(size);
    r.raw(out.payload.data(), size);
    if (fnv1a(out.payload.data(), out.payload.size()) != checksum)
      return std::nullopt;
    return out;
  } catch (const FormatError&) {
    return std::nullopt;
  }
}

/// Reads just the generation from a frame header (no checksum validation):
/// cheap input to the next-generation counter. A torn frame can only inflate
/// the counter (harmless — generations stay monotone); it can never win a
/// load(), which demands a valid checksum.
std::uint64_t peek_generation(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  if (!in || magic != kMagicV3) return 0;
  std::uint64_t gen = 0;
  in.read(reinterpret_cast<char*>(&gen), sizeof gen);
  return in ? gen : 0;
}
}  // namespace

std::optional<Bytes> read_file(const std::string& path) {
  // Only regular files have a byte size; a directory opens fine on Linux and
  // seek-to-end then reports a nonsense offset (huge or -1 depending on the
  // filesystem) that the unchecked cast below turned into a giant
  // allocation. Anything else is a read failure, same as a vanished file.
  std::error_code ec;
  if (!fs::is_regular_file(fs::status(path, ec)) || ec) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (!in || end < 0) return std::nullopt;
  const auto size = static_cast<std::size_t>(end);
  in.seekg(0);
  Bytes data(size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (!in) return std::nullopt;
  return data;
}

void write_file(const std::string& path, const Bytes& data,
                const IoRetryPolicy& retry) {
  Rng jitter_rng(retry.jitter_seed ^ fnv1a(path));
  const SleepFn& sleep = retry.sleep ? retry.sleep : wall_sleeper();
  int attempt = 0;
  crash_point("util.write_file.pre");
  const bool ok = retry_with_backoff(retry.backoff, jitter_rng, sleep, [&] {
    if (attempt > 0) log_warn("write retry ", attempt, " for ", path);
    ++attempt;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    // The torn window: the file is truncated, the payload is not yet down.
    // Callers that need atomicity write a sibling temp and rename (see
    // CheckpointFile::save, FsStore::put); this point proves they do.
    crash_point("util.write_file.mid");
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.flush();
    return static_cast<bool>(out);
  });
  if (!ok) throw IoError("write failed after retries: " + path);
  crash_point("util.write_file.post");
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throw IoError("mkdir failed: " + path + ": " + ec.message());
}

bool remove_file(const std::string& path) {
  std::error_code ec;
  return fs::remove(path, ec);
}

CheckpointFile::CheckpointFile(std::string path, IoRetryPolicy retry)
    : path_(std::move(path)), retry_(std::move(retry)) {}

std::uint64_t CheckpointFile::next_generation() const {
  if (!gen_known_) {
    // Fresh handle over existing state (restart): resume the counter past
    // every candidate, torn or not, so generations never move backwards.
    gen_ = std::max({peek_generation(path_), peek_generation(path_ + ".bak"),
                     peek_generation(path_ + ".tmp")});
    gen_known_ = true;
  }
  return ++gen_;
}

void CheckpointFile::save(const Bytes& payload) const {
  const Bytes framed = frame(payload, next_generation());
  const std::string tmp = path_ + ".tmp";
  crash_point("ckpt.save.pre_tmp");
  write_file(tmp, framed, retry_);
  crash_point("ckpt.save.post_tmp");
  std::error_code ec;
  // Rotate the old checkpoint to .bak before the atomic replace. A crash
  // anywhere in this window loses no state: the newest complete frame sits
  // in .tmp and outranks .bak by generation on the next load().
  if (fs::exists(path_)) {
    fs::rename(path_, path_ + ".bak", ec);
    if (ec) log_warn("checkpoint backup rotation failed: ", ec.message());
  }
  crash_point("ckpt.save.post_bak");
  fs::rename(tmp, path_, ec);
  if (ec) throw IoError("checkpoint rename failed: " + path_ + ": " + ec.message());
  crash_point("ckpt.save.post_rename");
  persist_event("ckpt.generations");
}

std::optional<Bytes> CheckpointFile::load() const {
  // Highest valid generation wins; ties keep the preference order
  // primary > bak > tmp.
  struct Candidate {
    const char* label;
    std::string path;
  };
  const Candidate candidates[] = {{"primary", path_},
                                  {"bak", path_ + ".bak"},
                                  {"tmp", path_ + ".tmp"}};
  std::optional<Unframed> best;
  const char* winner = nullptr;
  for (const auto& c : candidates) {
    auto raw = read_file(c.path);
    if (!raw) continue;
    auto got = unframe(*raw);
    if (!got) continue;
    if (!best || got->generation > best->generation) {
      best = std::move(got);
      winner = c.label;
    }
  }
  if (!best) return std::nullopt;
  // Keep future saves ahead of whatever we just recovered.
  if (!gen_known_ || gen_ < best->generation) {
    gen_ = best->generation;
    gen_known_ = true;
  }
  if (winner != candidates[0].label) {
    log_warn("checkpoint primary invalid or stale, recovered generation ",
             best->generation, " from ", winner, ": ", path_);
    persist_event("ckpt.recovered_from");
  }
  return std::move(best->payload);
}

bool CheckpointFile::exists() const {
  return fs::exists(path_) || fs::exists(path_ + ".bak") ||
         fs::exists(path_ + ".tmp");
}

void CheckpointFile::remove() const {
  remove_file(path_);
  remove_file(path_ + ".bak");
  remove_file(path_ + ".tmp");
}

}  // namespace mummi::util
