#include "util/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "util/crashpoint.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace fs = std::filesystem;

namespace mummi::util {

namespace {
// Frame v4 ("MuMMICK4"): a 32-byte header — magic, generation, size,
// checksum — then the payload. The generation is a per-path monotone counter
// so load() can pick the newest *complete* state among {path, .bak, .tmp}: a
// crash between the .bak rotation and the final rename leaves the newest
// frame only in .tmp. The checksum covers generation | size | payload, so a
// rewritten generation or size invalidates the frame instead of letting a
// stale one outrank the newest.
constexpr std::uint64_t kMagic = 0x4d754d4d49434b34ULL;

struct Header {
  std::uint64_t magic = 0;
  std::uint64_t generation = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(Header) == 32);

constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

constexpr std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) {
  return rotl(lane + word * kP2, 31) * kP1;
}

std::uint64_t word_at(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);  // little-endian, like ByteWriter
  return w;
}

/// Word-at-a-time hash of the message generation | size | payload: message
/// word i feeds lane i % 4 with an xxHash64-style multiply-rotate round,
/// then the lanes fold together with the message length, then the tail
/// bytes mix in and the result avalanches. Not XXH64-compatible.
std::uint64_t frame_checksum(std::uint64_t generation, const std::uint8_t* p,
                             std::size_t size) {
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  lane[0] = lane_round(lane[0], generation);
  lane[1] = lane_round(lane[1], size);
  const std::uint8_t* const end = p + size;
  for (; end - p >= 32; p += 32) {  // payload words 0..3 are message 2..5
    lane[2] = lane_round(lane[2], word_at(p));
    lane[3] = lane_round(lane[3], word_at(p + 8));
    lane[0] = lane_round(lane[0], word_at(p + 16));
    lane[1] = lane_round(lane[1], word_at(p + 24));
  }
  for (std::size_t i = 2; end - p >= 8; p += 8, ++i)
    lane[i % 4] = lane_round(lane[i % 4], word_at(p));
  std::uint64_t h = rotl(lane[0], 1) + rotl(lane[1], 7) + rotl(lane[2], 12) +
                    rotl(lane[3], 18);
  for (const std::uint64_t l : lane) h = (h ^ lane_round(0, l)) * kP1 + kP4;
  h += 2 * sizeof(std::uint64_t) + size;
  for (; p < end; ++p) h = rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

/// Reads a frame header (no checksum validation); nullopt when the file is
/// missing, shorter than a header or not a v4 frame. Cheap: 32 bytes. A torn
/// frame's generation can only inflate the next-generation counter
/// (harmless — generations stay monotone); it can never win a load(), which
/// demands a valid checksum.
std::optional<Header> peek_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Header h;
  if (!in.read(reinterpret_cast<char*>(&h), sizeof h) || h.magic != kMagic)
    return std::nullopt;
  return h;
}

/// The payload of the frame at `path` whose header peek_header() returned,
/// read straight into its buffer; nullopt unless the file holds all `size`
/// bytes and they match the checksum.
std::optional<Bytes> read_payload(const std::string& path, const Header& h) {
  std::error_code ec;
  const auto file_size = fs::file_size(path, ec);
  if (ec || file_size < sizeof h || h.size > file_size - sizeof h)
    return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in.seekg(sizeof h)) return std::nullopt;
  Bytes payload(static_cast<std::size_t>(h.size));
  if (!in.read(reinterpret_cast<char*>(payload.data()),
               static_cast<std::streamsize>(payload.size())))
    return std::nullopt;
  if (frame_checksum(h.generation, payload.data(), payload.size()) !=
      h.checksum)
    return std::nullopt;
  return payload;
}

/// write_file over consecutive pieces: one file, one retry loop, the same
/// crash points.
void write_pieces(const std::string& path,
                  std::span<const std::span<const std::uint8_t>> pieces,
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
    for (const auto piece : pieces)
      out.write(reinterpret_cast<const char*>(piece.data()),
                static_cast<std::streamsize>(piece.size()));
    out.flush();
    return static_cast<bool>(out);
  });
  if (!ok) throw IoError("write failed after retries: " + path);
  crash_point("util.write_file.post");
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
  const std::span<const std::uint8_t> whole[] = {data};
  write_pieces(path, whole, retry);
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
    for (const char* suffix : {"", ".bak", ".tmp"})
      if (const auto h = peek_header(path_ + suffix))
        gen_ = std::max(gen_, h->generation);
    gen_known_ = true;
  }
  return ++gen_;
}

void CheckpointFile::save(const Bytes& payload) const {
  Header h{kMagic, next_generation(), payload.size(), 0};
  h.checksum = frame_checksum(h.generation, payload.data(), payload.size());
  const std::span<const std::uint8_t> frame[] = {
      {reinterpret_cast<const std::uint8_t*>(&h), sizeof h}, payload};
  const std::string tmp = path_ + ".tmp";
  crash_point("ckpt.save.pre_tmp");
  write_pieces(tmp, frame, retry_);
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
  // primary > bak > tmp. Candidates are tried newest first, so only the
  // winner's payload (plus any newer frame that fails its checksum) is read.
  struct Candidate {
    const char* label;
    std::string path;
    Header header;
  };
  std::vector<Candidate> candidates;
  for (const auto& [label, suffix] : {std::pair{"primary", ""},
                                      std::pair{"bak", ".bak"},
                                      std::pair{"tmp", ".tmp"}})
    if (const auto h = peek_header(path_ + suffix))
      candidates.push_back({label, path_ + suffix, *h});
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.header.generation > b.header.generation;
                   });
  for (const auto& c : candidates) {
    auto payload = read_payload(c.path, c.header);
    if (!payload) continue;
    // Keep future saves ahead of whatever we just recovered.
    if (!gen_known_ || gen_ < c.header.generation) {
      gen_ = c.header.generation;
      gen_known_ = true;
    }
    if (c.path != path_) {
      log_warn("checkpoint primary invalid or stale, recovered generation ",
               c.header.generation, " from ", c.label, ": ", path_);
      persist_event("ckpt.recovered_from");
    }
    return payload;
  }
  return std::nullopt;
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
