// google-benchmark micro-kernels: the hot loops behind the substrates.
// Useful for regression-tracking the library itself (not a paper figure).
//
// `--md-kernels [--small]` switches to the MD force-engine thread sweep
// instead: it runs the flat CSR kernel at 1/2/4/8 pool workers, checks the
// bit-identity contract, and writes bench_outputs/md_kernels.json with wall
// throughput and the measured speedup against the 1-thread row
// (bench_smoke.sh validates the JSON; wall scaling is host-dependent and
// informational).

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "continuum/gridsim2d.hpp"
#include "datastore/kv_cluster.hpp"
#include "datastore/taridx.hpp"
#include "mdengine/integrator.hpp"
#include "mdengine/simulation.hpp"
#include "ml/fps_sampler.hpp"
#include "util/clock.hpp"
#include "util/npy.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace mummi;

namespace {

md::System make_fluid(int n, double box_len, std::uint64_t seed) {
  md::System s;
  s.box.length = {box_len, box_len, box_len};
  util::Rng rng(seed);
  const int per_side = static_cast<int>(std::ceil(std::cbrt(n)));
  const double spacing = box_len / per_side;
  int added = 0;
  for (int i = 0; i < per_side && added < n; ++i)
    for (int j = 0; j < per_side && added < n; ++j)
      for (int k = 0; k < per_side && added < n; ++k) {
        s.add_particle({(i + 0.5) * spacing, (j + 0.5) * spacing,
                        (k + 0.5) * spacing},
                       0, 72.0);
        ++added;
      }
  return s;
}

void BM_MdForceKernel(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  md::System s = make_fluid(n, std::cbrt(n / 8.0), 1);
  md::TypeMatrixForceField ff(1, 1.2);
  ff.set_pair(0, 0, {2.0, 0.47});
  md::NeighborList list(1.2, 0.3);
  list.build(s);
  for (auto _ : state) {
    std::fill(s.force.begin(), s.force.end(), md::Vec3{});
    benchmark::DoNotOptimize(ff.compute(s, list));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(list.n_pairs()));
}
BENCHMARK(BM_MdForceKernel)->Arg(1000)->Arg(8000);

void BM_NeighborRebuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  md::System s = make_fluid(n, std::cbrt(n / 8.0), 2);
  md::NeighborList list(1.2, 0.3);
  for (auto _ : state) list.build(s);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NeighborRebuild)->Arg(1000)->Arg(8000);

void BM_LangevinStep(benchmark::State& state) {
  md::System s = make_fluid(4096, 8.0, 3);
  auto ff = std::make_shared<md::TypeMatrixForceField>(1, 1.2);
  ff->set_pair(0, 0, {2.0, 0.47});
  md::Simulation sim(std::move(s), ff,
                     std::make_unique<md::Langevin>(310.0, 2.0, util::Rng(4)),
                     {});
  for (auto _ : state) sim.run(1);
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_LangevinStep);

void BM_DdftStep(benchmark::State& state) {
  cont::ContinuumConfig cfg;
  cfg.grid = static_cast<int>(state.range(0));
  cfg.inner_species = 8;
  cfg.outer_species = 6;
  cfg.n_proteins = 30;
  cont::GridSim2D sim(cfg);
  for (auto _ : state) sim.step(1);
  state.SetItemsProcessed(state.iterations() * cfg.grid * cfg.grid * 14);
}
BENCHMARK(BM_DdftStep)->Arg(64)->Arg(128);

void BM_NpyEncodeDecode(benchmark::State& state) {
  std::vector<float> data(37 * 37 * 14);
  util::Rng rng(5);
  for (auto& v : data) v = static_cast<float>(rng.uniform());
  const auto array = util::NpyArray::from_f32({14, 37, 37}, data);
  for (auto _ : state) {
    const auto bytes = util::npy_encode(array);
    benchmark::DoNotOptimize(util::npy_decode(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(data.size() * 4));
}
BENCHMARK(BM_NpyEncodeDecode);

void BM_KvSetGet(benchmark::State& state) {
  ds::KvCluster kv(20);
  util::Bytes payload(850);
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 10000);
    kv.set(key, payload);
    benchmark::DoNotOptimize(kv.get(key));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_KvSetGet);

void BM_TarAppend(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mummi_bm_tar_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    ds::TarIdx tar((dir / "bm.tar").string());
    util::Bytes payload(17 * 1024);  // a CG analysis record
    int i = 0;
    for (auto _ : state) tar.append("m" + std::to_string(i++), payload);
    state.SetBytesProcessed(state.iterations() * 17 * 1024);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_TarAppend);

void BM_FpsSelect(benchmark::State& state) {
  util::Rng rng(7);
  util::ThreadPool pool;  // one worker per hardware thread runs the refresh
  for (auto _ : state) {
    state.PauseTiming();
    ml::FpsSampler fps(9, 35000, &pool);
    std::vector<ml::HDPoint> pts;
    for (int i = 0; i < 5000; ++i) {
      ml::HDPoint p;
      p.id = static_cast<ml::PointId>(i);
      p.coords.resize(9);
      for (auto& c : p.coords) c = static_cast<float>(rng.normal());
      pts.push_back(std::move(p));
    }
    fps.add_candidates(pts);
    state.ResumeTiming();
    benchmark::DoNotOptimize(fps.select(10));
  }
}
BENCHMARK(BM_FpsSelect);

// --- MD force-engine thread sweep (--md-kernels) -------------------------

/// The pre-refactor nonbonded kernel, kept here as the baseline: walks the
/// (i, j) pairs in list order (i ascending, then j), looks parameters up
/// through the bounds-checked accessor and recomputes the LJ cutoff shift
/// per pair.
double legacy_force_kernel(const md::TypeMatrixForceField& ff, md::System& s,
                           const md::NeighborList& list) {
  const md::real rc = ff.cutoff();
  const md::real rc2 = rc * rc;
  md::real energy = 0;
  const auto& rows = list.row_start();
  for (int i = 0; i + 1 < static_cast<int>(rows.size()); ++i) {
    for (std::size_t k = rows[i]; k < rows[i + 1]; ++k) {
      const int j = list.neighbors()[k];
      const md::Vec3 d = s.box.min_image(s.pos[i], s.pos[j]);
      const md::real r2 = d.norm2();
      if (r2 >= rc2 || r2 == 0) continue;
      const md::PairParams p = ff.pair(s.type[i], s.type[j]);
      md::real f_over_r = 0;
      if (p.epsilon > 0) {
        const md::real s2 = p.sigma * p.sigma / r2;
        const md::real s6 = s2 * s2 * s2;
        const md::real s12 = s6 * s6;
        const md::real sc2 = p.sigma * p.sigma / rc2;
        const md::real sc6 = sc2 * sc2 * sc2;
        energy += 4 * p.epsilon * (s12 - s6) -
                  4 * p.epsilon * (sc6 * sc6 - sc6);
        f_over_r += 24 * p.epsilon * (2 * s12 - s6) / r2;
      }
      const md::Vec3 f = f_over_r * d;
      s.force[static_cast<std::size_t>(i)] += f;
      s.force[static_cast<std::size_t>(j)] -= f;
    }
  }
  return energy;
}

int run_md_kernels(bool small) {
  const int n = small ? 4000 : 20000;
  const int reps = small ? 5 : 20;
  md::System ref = make_fluid(n, std::cbrt(n / 8.0) * 1.2, 11);
  md::TypeMatrixForceField ff(1, 1.2);
  ff.set_pair(0, 0, {2.0, 0.47});

  md::NeighborList list(1.2, 0.3);
  list.build(ref);
  const std::size_t pairs = list.n_pairs();
  const std::size_t nblocks =
      util::block_count(ref.size(), util::block_size(ref.size(), 512, 16));
  std::printf("=== MD force kernel: thread sweep ===\n");
  std::printf("(n=%d, %zu pairs, %zu blocks, %d reps%s)\n\n", n, pairs,
              nblocks, reps, small ? ", --small" : "");

  // Serial reference forces: the bit-identity yardstick for every row.
  std::fill(ref.force.begin(), ref.force.end(), md::Vec3{});
  const double e_ref = ff.compute(ref, list, nullptr);
  const std::vector<md::Vec3> f_ref = ref.force;

  // Legacy-kernel baseline (serial by construction).
  double legacy_s = 0.0;
  {
    md::System s = make_fluid(n, std::cbrt(n / 8.0) * 1.2, 11);
    util::Stopwatch wall;
    double e = 0;
    for (int r = 0; r < reps; ++r) {
      std::fill(s.force.begin(), s.force.end(), md::Vec3{});
      e = legacy_force_kernel(ff, s, list);
    }
    legacy_s = wall.elapsed() / reps;
    benchmark::DoNotOptimize(e);
  }

  struct Row {
    int threads;
    double wall_s, wall_pairs_per_s, speedup;
    bool identical;
  };
  std::vector<Row> rows;
  double flat_serial_s = 0.0;
  std::printf("%8s %12s %16s %10s %10s\n", "threads", "wall s/eval",
              "wall pairs/s", "speedup", "identical");
  for (const int threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    // A 1-worker pool takes the inline path; pass null to make that explicit.
    util::ThreadPool* p = threads > 1 ? &pool : nullptr;
    md::System s = make_fluid(n, std::cbrt(n / 8.0) * 1.2, 11);
    double e = 0;
    // Warm-up evaluation: first call sizes the scratch buffers.
    std::fill(s.force.begin(), s.force.end(), md::Vec3{});
    e = ff.compute(s, list, p);
    util::Stopwatch wall;
    for (int r = 0; r < reps; ++r) {
      std::fill(s.force.begin(), s.force.end(), md::Vec3{});
      e = ff.compute(s, list, p);
    }
    const double per_eval = wall.elapsed() / reps;
    if (threads == 1) flat_serial_s = per_eval;
    const bool identical =
        e == e_ref && s.force.size() == f_ref.size() &&
        std::memcmp(s.force.data(), f_ref.data(),
                    f_ref.size() * sizeof(md::Vec3)) == 0;
    const double speedup = rows.empty() ? 1.0 : rows.front().wall_s / per_eval;
    const double pps =
        per_eval > 0 ? static_cast<double>(pairs) / per_eval : 0.0;
    std::printf("%8d %12.6f %16.0f %9.2fx %10s\n", threads, per_eval, pps,
                speedup, identical ? "yes" : "NO");
    rows.push_back({threads, per_eval, pps, speedup, identical});
  }
  std::printf("\nlegacy pair-order kernel: %.6f s/eval (flat serial %.6f, "
              "%.2fx)\n",
              legacy_s, flat_serial_s,
              flat_serial_s > 0 ? legacy_s / flat_serial_s : 0.0);

  std::filesystem::create_directories("bench_outputs");
  std::FILE* f = std::fopen("bench_outputs/md_kernels.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write bench_outputs/md_kernels.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"md_kernels\",\n  \"n\": %d,\n"
               "  \"pairs\": %zu,\n  \"blocks\": %zu,\n"
               "  \"legacy_wall_s_per_eval\": %.9f,\n"
               "  \"flat_serial_wall_s_per_eval\": %.9f,\n"
               "  \"flat_vs_legacy_wall_speedup\": %.3f,\n  \"rows\": [\n",
               n, pairs, nblocks, legacy_s, flat_serial_s,
               flat_serial_s > 0 ? legacy_s / flat_serial_s : 0.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_s_per_eval\": %.9f, "
                 "\"wall_pairs_per_s\": %.1f, \"speedup\": %.3f, "
                 "\"identical\": %s}%s\n",
                 r.threads, r.wall_s, r.wall_pairs_per_s, r.speedup,
                 r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote bench_outputs/md_kernels.json\n");
  for (const Row& r : rows)
    if (!r.identical) {
      std::fprintf(stderr, "md_kernels: forces diverged at %d threads\n",
                   r.threads);
      return 1;
    }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool md_kernels = false, small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--md-kernels") == 0) md_kernels = true;
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }
  if (md_kernels) return run_md_kernels(small);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
