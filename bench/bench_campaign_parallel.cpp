// Campaign maintain-tick thread sweep: runs the same campaign with the
// in-situ analysis plane on 1/2/4/8 pool workers, checks the bit-identity
// contract (science_fingerprint byte-equal across every thread count), and
// writes bench_outputs/campaign_parallel.json with the fastest measured wall
// time per thread count, the measured speedup against the 1-thread row, and
// the host's CPU count. bench_smoke.sh validates the JSON and the
// fingerprints.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/campaign_common.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

using namespace mummi;

namespace {

std::string fingerprint_hex(const util::Bytes& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a(bytes.data(), bytes.size())));
  return buf;
}

// Wall time per thread count is the minimum of these: on a shared host, load
// from other processes only ever adds time, so the fastest rep is the one
// closest to the tick's own cost.
constexpr int kReps = 5;

struct Row {
  int threads;
  double wall_s, speedup;
  bool identical;
  std::string fingerprint;
};

}  // namespace

int main(int argc, char** argv) {
  wm::CampaignConfig base = bench::campaign_config(argc, argv);
  base.seed = 7;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== campaign maintain tick: in-situ thread sweep ===\n");
  std::printf("(%s schedule, fastest of %d runs per row, nproc %u)\n\n",
              bench::scale_label(argc, argv), kReps, nproc);

  std::vector<Row> rows;
  std::string serial_fp;
  std::uint64_t analysis_frames = 0;
  std::printf("%8s %12s %10s %10s\n", "threads", "wall s", "speedup",
              "identical");
  for (const int threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    // A 1-worker pool takes the inline path; pass null to make that explicit.
    auto cfg = base;
    cfg.insitu_pool = threads > 1 ? &pool : nullptr;
    std::vector<double> walls;
    std::string fp;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      util::Stopwatch wall;
      const auto result = wm::Campaign(cfg).run();
      walls.push_back(wall.elapsed());
      fp = fingerprint_hex(result.science_fingerprint());
      if (serial_fp.empty()) {
        serial_fp = fp;
        analysis_frames = result.analysis_frames;
      }
      identical = identical && fp == serial_fp;
    }
    const double wall_s = *std::min_element(walls.begin(), walls.end());
    const double speedup = rows.empty() ? 1.0 : rows.front().wall_s / wall_s;
    std::printf("%8d %12.3f %9.2fx %10s\n", threads, wall_s, speedup,
                identical ? "yes" : "NO");
    rows.push_back({threads, wall_s, speedup, identical, fp});
  }
  std::printf("\n%llu frames analyzed; fingerprint %s\n",
              static_cast<unsigned long long>(analysis_frames),
              serial_fp.c_str());

  std::filesystem::create_directories("bench_outputs");
  std::FILE* f = std::fopen("bench_outputs/campaign_parallel.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write bench_outputs/campaign_parallel.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"campaign_parallel\",\n"
               "  \"nproc\": %u,\n  \"reps\": %d,\n"
               "  \"analysis_frames\": %llu,\n"
               "  \"rows\": [\n",
               nproc, kReps, static_cast<unsigned long long>(analysis_frames));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_s\": %.3f, "
                 "\"speedup\": %.3f, \"identical\": %s, "
                 "\"fingerprint\": \"%s\"}%s\n",
                 r.threads, r.wall_s, r.speedup,
                 r.identical ? "true" : "false", r.fingerprint.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote bench_outputs/campaign_parallel.json\n");
  for (const Row& r : rows)
    if (!r.identical) {
      std::fprintf(stderr,
                   "campaign_parallel: fingerprint diverged at %d threads\n",
                   r.threads);
      return 1;
    }
  return 0;
}
