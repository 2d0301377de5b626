// Continuum (DDFT) engine thread sweep: runs the block-parallel kernel
// engine at 1/2/4/8 pool workers against the pre-refactor legacy reference
// kernels, checks the bit-identity contract (serialized frames byte-equal
// across every thread count AND equal to the legacy kernels), and writes
// bench_outputs/continuum_kernels.json with wall throughput plus a
// deterministic virtual-speedup model. bench_smoke.sh validates the JSON;
// wall scaling is host-dependent and informational.

#include <algorithm>
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

cont::ContinuumConfig make_config(int grid, util::ThreadPool* pool,
                                  bool legacy) {
  cont::ContinuumConfig cfg;
  cfg.grid = grid;
  cfg.inner_species = 8;
  cfg.outer_species = 6;
  cfg.n_proteins = 30;
  cfg.seed = 42;
  cfg.pool = pool;
  cfg.legacy_kernels = legacy;
  return cfg;
}

std::string fingerprint_hex(const util::Bytes& frame) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a(frame.data(), frame.size())));
  return buf;
}

/// Deterministic speedup model for the block schedule: each barrier phase of
/// one step (mu sweep, flux sweep, footprint stamps + fold, protein forces)
/// contributes its per-block costs, greedily list-scheduled onto T workers
/// in fixed block order. virtual_speedup = sum(serial) / sum(makespan).
/// Depends only on (grid, species, proteins, T) — same answer on any host.
double virtual_speedup(int grid, int ns, int np, int threads) {
  const auto n = static_cast<std::size_t>(grid);
  const auto p = static_cast<std::size_t>(np);
  auto phase = [threads](std::size_t count, std::size_t block,
                         double cost_per_item, double* serial) {
    std::vector<double> worker(static_cast<std::size_t>(threads), 0.0);
    for (std::size_t lo = 0; lo < count; lo += block) {
      const double cost =
          cost_per_item * static_cast<double>(std::min(block, count - lo));
      *serial += cost;
      *std::min_element(worker.begin(), worker.end()) += cost;
    }
    return *std::max_element(worker.begin(), worker.end());
  };
  const double row_cost = static_cast<double>(n) * ns;  // cells per row
  // The engine's block rules (gridsim2d.cpp): rows 8 / 16, proteins 16 / 8.
  const std::size_t rows_per_block = util::block_size(n, 8, 16);
  const std::size_t proteins_per_block = util::block_size(p, 16, 8);
  double serial = 0.0, makespan = 0.0;
  makespan += phase(n, rows_per_block, row_cost, &serial);  // mu
  makespan += phase(n, rows_per_block, row_cost, &serial);  // flux
  if (np > 0) {
    // Footprint stamps (~37x37 Gaussian per protein) + protein force pass.
    makespan += phase(p, proteins_per_block, 37.0 * 37.0, &serial);
    makespan += phase(p, proteins_per_block, 200.0, &serial);
  }
  return makespan > 0 ? serial / makespan : 1.0;
}

struct Row {
  int threads;
  double wall_s, cells_per_s, virt;
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

  // Legacy reference kernels: serial by construction, the bit-identity
  // yardstick for every row.
  double legacy_s = 0.0;
  std::string legacy_fp;
  {
    cont::GridSim2D sim(make_config(grid, nullptr, true));
    util::Stopwatch wall;
    sim.step(steps);
    legacy_s = wall.elapsed() / steps;
    legacy_fp = fingerprint_hex(sim.serialize());
  }

  std::vector<Row> rows;
  double serial_s = 0.0;
  std::printf("%8s %12s %16s %14s %10s\n", "threads", "wall s/step",
              "wall cells/s", "virt speedup", "identical");
  for (const int threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    // A 1-worker pool takes the inline path; pass null to make that explicit.
    util::ThreadPool* p = threads > 1 ? &pool : nullptr;
    cont::GridSim2D sim(make_config(grid, p, false));
    util::Stopwatch wall;
    sim.step(steps);
    const double per_step = wall.elapsed() / steps;
    if (threads == 1) serial_s = per_step;
    const std::string fp = fingerprint_hex(sim.serialize());
    const bool identical = fp == legacy_fp;
    const double virt = virtual_speedup(grid, ns, np, threads);
    const double cps = per_step > 0 ? cells / per_step : 0.0;
    std::printf("%8d %12.6f %16.0f %14.2f %10s\n", threads, per_step, cps,
                virt, identical ? "yes" : "NO");
    rows.push_back({threads, per_step, cps, virt, identical, fp});
  }
  std::printf("\nlegacy kernels: %.6f s/step (engine serial %.6f, %.2fx); "
              "fingerprint %s\n",
              legacy_s, serial_s, serial_s > 0 ? legacy_s / serial_s : 0.0,
              legacy_fp.c_str());

  std::filesystem::create_directories("bench_outputs");
  std::FILE* f = std::fopen("bench_outputs/continuum_kernels.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write bench_outputs/continuum_kernels.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"continuum_kernels\",\n  \"grid\": %d,\n"
               "  \"species\": %d,\n  \"proteins\": %d,\n"
               "  \"row_blocks\": %zu,\n  \"steps\": %d,\n"
               "  \"legacy_wall_s_per_step\": %.9f,\n"
               "  \"engine_serial_wall_s_per_step\": %.9f,\n"
               "  \"engine_vs_legacy_wall_speedup\": %.3f,\n"
               "  \"legacy_fingerprint\": \"%s\",\n  \"rows\": [\n",
               grid, ns, np, nblocks, steps, legacy_s, serial_s,
               serial_s > 0 ? legacy_s / serial_s : 0.0, legacy_fp.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_s_per_step\": %.9f, "
                 "\"wall_cells_per_s\": %.1f, \"virtual_speedup\": %.3f, "
                 "\"identical\": %s, \"fingerprint\": \"%s\"}%s\n",
                 r.threads, r.wall_s, r.cells_per_s, r.virt,
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
