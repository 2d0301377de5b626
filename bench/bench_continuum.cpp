// Continuum (DDFT) engine thread sweep: runs the block-parallel kernel
// engine at 1/2/4/8 pool workers, checks the bit-identity contract
// (serialized frames byte-equal across every thread count; the --small frame
// is pinned by EnginePins.ContinuumBenchSmallFrame), and writes
// bench_outputs/continuum_kernels.json with wall throughput and the measured
// speedup against the 1-thread row. bench_smoke.sh validates the JSON; wall
// scaling is host-dependent and informational.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "continuum/gridsim2d.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

using namespace mummi;

namespace {

cont::ContinuumConfig make_config(int grid, util::ThreadPool* pool) {
  cont::ContinuumConfig cfg;
  cfg.grid = grid;
  cfg.inner_species = 8;
  cfg.outer_species = 6;
  cfg.n_proteins = 30;
  cfg.seed = 42;
  cfg.pool = pool;
  return cfg;
}

std::string fingerprint_hex(const util::Bytes& frame) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a(frame.data(), frame.size())));
  return buf;
}

struct Row {
  int threads;
  double wall_s, cells_per_s, speedup;
  bool identical;
  std::string fingerprint;
};

int run(bool small) {
  const int grid = small ? 96 : 192;
  const int steps = small ? 8 : 20;
  const int ns = 14, np = 30;
  const auto cells = static_cast<double>(grid) * grid * ns;
  const auto n = static_cast<std::size_t>(grid);
  const std::size_t nblocks = util::block_count(n, util::block_size(n, 8, 16));
  std::printf("=== continuum DDFT engine: thread sweep ===\n");
  std::printf("(grid=%d^2, %d species, %d proteins, %zu row blocks, "
              "%d steps%s)\n\n",
              grid, ns, np, nblocks, steps, small ? ", --small" : "");

  std::vector<Row> rows;
  std::printf("%8s %12s %16s %10s %10s\n", "threads", "wall s/step",
              "wall cells/s", "speedup", "identical");
  for (const int threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    // A 1-worker pool takes the inline path; pass null to make that explicit.
    util::ThreadPool* p = threads > 1 ? &pool : nullptr;
    cont::GridSim2D sim(make_config(grid, p));
    util::Stopwatch wall;
    sim.step(steps);
    const double per_step = wall.elapsed() / steps;
    const std::string fp = fingerprint_hex(sim.serialize());
    const bool identical = rows.empty() || fp == rows.front().fingerprint;
    const double speedup = rows.empty() ? 1.0 : rows.front().wall_s / per_step;
    const double cps = per_step > 0 ? cells / per_step : 0.0;
    std::printf("%8d %12.6f %16.0f %9.2fx %10s\n", threads, per_step, cps,
                speedup, identical ? "yes" : "NO");
    rows.push_back({threads, per_step, cps, speedup, identical, fp});
  }
  std::printf("\nfingerprint %s\n", rows.front().fingerprint.c_str());

  std::filesystem::create_directories("bench_outputs");
  std::FILE* f = std::fopen("bench_outputs/continuum_kernels.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write bench_outputs/continuum_kernels.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"continuum_kernels\",\n  \"grid\": %d,\n"
               "  \"species\": %d,\n  \"proteins\": %d,\n"
               "  \"row_blocks\": %zu,\n  \"steps\": %d,\n  \"rows\": [\n",
               grid, ns, np, nblocks, steps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_s_per_step\": %.9f, "
                 "\"wall_cells_per_s\": %.1f, \"speedup\": %.3f, "
                 "\"identical\": %s, \"fingerprint\": \"%s\"}%s\n",
                 r.threads, r.wall_s, r.cells_per_s, r.speedup,
                 r.identical ? "true" : "false", r.fingerprint.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote bench_outputs/continuum_kernels.json\n");
  for (const Row& r : rows)
    if (!r.identical) {
      std::fprintf(stderr, "continuum_kernels: frames diverged at %d threads\n",
                   r.threads);
      return 1;
    }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  return run(small);
}
