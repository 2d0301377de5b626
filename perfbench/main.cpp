// Campaign benchmark runner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--pins <file>] [--rev <id>]
//
// Runs closed-loop passes of one workload from a single process for about
// `--seconds` seconds and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Every pass re-runs set-up
// (a fresh nproc-worker pool plus the workload's construction), then one timed
// pass, then the correctness gate: the science fingerprint must equal the
// value pinned for (workload, seed) in --pins, or, for an unpinned seed, the
// first pass's; workload invariants must hold. A mismatch or an exception is
// a failed operation.
//
// --trace 0 reports the end-to-end metrics with telemetry off
// (obs::set_enabled(false)). --trace 1 first checks that a 1-worker pass gives
// the nproc-worker fingerprint, then alternates untraced and traced passes and
// reports the per-layer table of the median traced pass, plus the tracing
// overhead. The traced pass's Chrome trace lands in --out-dir.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cpuid.h>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace mummi;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string pins;
  std::string rev = "unknown";
  bool pin = false;  // one pass; print "<workload> <seed> <fingerprint>"
};

struct Metric {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"gpu_occupancy_mean", "fraction"},
    {"cycle_p50_ms", "ms"},
    {"cycle_p90_ms", "ms"},
};

constexpr Metric kPerLayer[] = {
    {"wm.insitu_ms", "ms"},
    {"wm.insitu.sims", "count"},
    {"wm.insitu.us_per_sim", "us"},
    {"wm.fold_ms", "ms"},
    {"wm.tick_p50_us", "us"},
    {"wm.tick_p99_us", "us"},
    {"wm.select_patch_ms", "ms"},
    {"wm.select_patch.count", "count"},
    {"wm.select_frame_ms", "ms"},
    {"wm.maintain_self_ms", "ms"},
    {"wm.checkpoint_ms", "ms"},
    {"wm.checkpoint.count", "count"},
    {"wm.checkpoint.bytes", "bytes"},
    {"sched.started", "count"},
    {"sched.failed", "count"},
    {"sched.goodput_ratio", "ratio"},
    {"fault.injected", "count"},
    {"supervise.hangs_detected", "count"},
    {"wm.other_ms", "ms"},
    {"continuum.step_ms", "ms"},
    {"continuum.cells_per_s", "1/s"},
    {"mdengine.cg_ms", "ms"},
    {"mdengine.aa_ms", "ms"},
    {"mdengine.pairs_per_s", "1/s"},
    {"md.nlist.rebuilds", "count"},
    {"coupling.patch_ms", "ms"},
    {"coupling.createsim_ms", "ms"},
    {"coupling.backmap_ms", "ms"},
    {"coupling.cg_analysis_ms", "ms"},
    {"coupling.aa_analysis_ms", "ms"},
    {"datastore.put_ms", "ms"},
    {"feedback.cg2cont_ms", "ms"},
    {"feedback.aa2cg_ms", "ms"},
    {"kv.ops.set", "count"},
    {"kv.ops.get", "count"},
    {"kv.ops.keys", "count"},
    {"kv.ops.rename", "count"},
    {"kv.ops.batch", "count"},
    {"obs.overhead_pct", "%"},
    {"three_scale.other_ms", "ms"},
    {"layers.unattributed_pct", "%"},
};

/// Span name -> per-layer metric receiving its self time. "bench.pass" is the
/// root; its self time is the unattributed remainder (wm.other_ms on the
/// campaigns, three_scale.other_ms on three_scale).
const std::vector<std::pair<std::string, std::string>>& span_layers() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"wm.tick", "wm.insitu_ms"},
      {"wm.maintain", "wm.maintain_self_ms"},
      {"wm.select.patch", "wm.select_patch_ms"},
      {"wm.select.frame", "wm.select_frame_ms"},
      {"wm.checkpoint", "wm.checkpoint_ms"},
      {"continuum.step", "continuum.step_ms"},
      {"coupling.patch", "coupling.patch_ms"},
      {"coupling.createsim", "coupling.createsim_ms"},
      {"coupling.backmap", "coupling.backmap_ms"},
      {"coupling.cg_analysis", "coupling.cg_analysis_ms"},
      {"coupling.aa_analysis", "coupling.aa_analysis_ms"},
      {"mdengine.cg", "mdengine.cg_ms"},
      {"mdengine.aa", "mdengine.aa_ms"},
      {"datastore.put", "datastore.put_ms"},
      {"feedback.cg2cont", "feedback.cg2cont_ms"},
      {"feedback.aa2cg", "feedback.aa2cg_ms"},
  };
  return m;
}

double median(std::vector<double> v) { return perfbench::percentile(v, 50); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683e: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string march(const std::string& flags) {
  const auto at = flags.find("-march=");
  if (at == std::string::npos) return "none (compiler default)";
  return flags.substr(at + 7, flags.find(' ', at) - at - 7);
}

std::map<std::string, std::string> load_pins(const std::string& path,
                                             const std::string& workload) {
  std::map<std::string, std::string> pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, seed, fp;
    if (fields >> name >> seed >> fp && name == workload) pins[seed] = fp;
  }
  return pins;
}

struct Pass {
  double setup_s = 0;
  perfbench::PassResult result;
  bool ok = false;
  // Traced passes only.
  perfbench::LayerTable layers;
  std::map<std::string, double> counters;
  std::string trace_file;
};

class Runner {
 public:
  explicit Runner(Options opt) : opt_(std::move(opt)) {
    const auto pins = load_pins(opt_.pins, opt_.workload);
    const auto it = pins.find(std::to_string(opt_.seed));
    if (it != pins.end()) expected_ = it->second;
    pinned_ = !expected_.empty();
  }

  [[nodiscard]] bool pinned() const { return pinned_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

  Pass pass(bool traced, std::size_t workers) {
    Pass p;
    ++attempted_;
    const std::string scratch =
        opt_.out_dir + "/scratch-" + std::to_string(::getpid()) + "-" +
        std::to_string(attempted_);
    try {
      fs::create_directories(scratch);
      obs::set_enabled(traced);
      if (traced) {
        obs::Tracer::instance().clear();
        obs::MetricsRegistry::instance().reset();
      }
      util::Stopwatch setup;
      auto pool = std::make_unique<util::ThreadPool>(workers);
      pool->submit([] {}).wait();  // worker start belongs to set-up
      auto workload =
          perfbench::make_workload(opt_.workload, opt_.seed, pool.get(), scratch);
      p.setup_s = setup.elapsed();
      p.result = workload->run();
      obs::set_enabled(false);
      workload.reset();
      if (traced) collect_trace(p);
      check(p, workers);
    } catch (const std::exception& e) {
      obs::set_enabled(false);
      std::fprintf(stderr, "perfbench: pass %zu failed: %s\n", attempted_,
                   e.what());
      p.ok = false;
    }
    std::error_code ec;
    fs::remove_all(scratch, ec);
    if (!p.ok) ++failed_;
    return p;
  }

 private:
  void check(Pass& p, std::size_t workers) {
    const auto& r = p.result;
    if (expected_.empty()) expected_ = r.fingerprint;
    if (!r.invalid.empty()) {
      std::fprintf(stderr, "perfbench: pass %zu invalid: %s\n", attempted_,
                   r.invalid.c_str());
    } else if (r.fingerprint != expected_) {
      std::fprintf(stderr,
                   "perfbench: pass %zu (%zu workers) fingerprint %s, "
                   "expected %s (%s)\n",
                   attempted_, workers, r.fingerprint.c_str(),
                   expected_.c_str(), pinned_ ? "pinned" : "first pass");
    } else {
      p.ok = true;
    }
  }

  void collect_trace(Pass& p) {
    const auto& tracer = obs::Tracer::instance();
    if (tracer.dropped() > 0)
      throw std::runtime_error("trace buffer overflowed");
    std::vector<std::string> attributed;
    for (const auto& [span, metric] : span_layers()) attributed.push_back(span);
    p.layers = perfbench::attribute(tracer.events(), "bench.pass", attributed);
    for (const auto& row : obs::MetricsRegistry::instance().snapshot().counters)
      p.counters[row.name] = static_cast<double>(row.value);
    p.trace_file = opt_.out_dir + "/" + opt_.workload + "-seed" +
                   std::to_string(opt_.seed) + "-pass" +
                   std::to_string(attempted_) + ".trace.json";
    if (!tracer.write_chrome_trace(p.trace_file))
      throw std::runtime_error("cannot write " + p.trace_file);
  }

  Options opt_;
  std::string expected_;
  bool pinned_ = false;
  std::size_t attempted_ = 0, failed_ = 0;
};

double counter(const Pass& p, const std::string& name) {
  const auto it = p.counters.find(name);
  return it == p.counters.end() ? 0.0 : it->second;
}

/// The per-layer table of one traced pass, keyed by BENCHMARK.json names.
std::map<std::string, double> per_layer(const Pass& p, const Options& opt,
                                        double overhead_pct) {
  const auto& t = p.layers;
  const auto& r = p.result;
  std::map<std::string, double> m;
  for (const auto& [span, metric] : span_layers()) m[metric] = t.self(span);
  const double other = t.self("bench.pass");
  const bool campaign = perfbench::is_campaign(opt.workload);
  m["wm.other_ms"] = campaign ? other : 0.0;
  m["three_scale.other_ms"] = campaign ? 0.0 : other;
  m["layers.unattributed_pct"] = 100.0 * ratio(other, t.root_ms);

  m["wm.insitu.sims"] = counter(p, "wm.tick.sims");
  m["wm.insitu.us_per_sim"] =
      ratio(m["wm.insitu_ms"] * 1e3, m["wm.insitu.sims"]);
  m["wm.fold_ms"] = counter(p, "wm.tick.fold_ns") * 1e-6;
  m["wm.tick_p50_us"] = perfbench::percentile(t.tick_us, 50);
  m["wm.tick_p99_us"] = perfbench::percentile(t.tick_us, 99);
  m["wm.select_patch.count"] = static_cast<double>(t.n("wm.select.patch"));
  m["wm.checkpoint.count"] = static_cast<double>(t.n("wm.checkpoint"));
  m["wm.checkpoint.bytes"] = r.checkpoint_bytes;

  for (const char* name : {"sched.started", "sched.failed", "fault.injected",
                           "supervise.hangs_detected", "md.nlist.rebuilds",
                           "kv.ops.set", "kv.ops.get", "kv.ops.keys",
                           "kv.ops.rename", "kv.ops.batch"})
    m[name] = counter(p, name);
  m["sched.goodput_ratio"] =
      ratio(counter(p, "sched.completed"), counter(p, "sched.started"));

  m["continuum.cells_per_s"] =
      ratio(counter(p, "cont.step.cells"), m["continuum.step_ms"] * 1e-3);
  m["mdengine.pairs_per_s"] = ratio(
      r.md_run_pairs, (m["mdengine.cg_ms"] + m["mdengine.aa_ms"]) * 1e-3);
  m["obs.overhead_pct"] = overhead_pct;
  return m;
}

void print_layer_table(const Pass& p, const std::map<std::string, double>& m) {
  const double wall_ms = p.result.wall_s * 1e3;
  std::vector<std::pair<double, std::string>> rows;
  double sum = 0;
  auto add = [&](const std::string& metric) {
    rows.emplace_back(m.at(metric), metric);
    sum += m.at(metric);
  };
  for (const auto& [span, metric] : span_layers()) add(metric);
  add("wm.other_ms");
  add("three_scale.other_ms");
  std::sort(rows.rbegin(), rows.rend());
  std::printf("layer table (median traced pass, self time):\n");
  for (const auto& [ms, name] : rows)
    if (ms != 0.0)
      std::printf("  %-26s %12.3f ms %6.2f%%\n", name.c_str(), ms,
                  100.0 * ratio(ms, wall_ms));
  std::printf("  %-26s %12.3f ms vs traced wall %.3f ms (%+.3f%%)\n",
              "sum of layers", sum, wall_ms,
              100.0 * ratio(sum - wall_ms, wall_ms));
  std::printf("  unattributed share %.2f%% (target <= 5%%)\n",
              m.at("layers.unattributed_pct"));
  std::printf("  trace: %s\n", p.trace_file.c_str());
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--out-dir") opt.out_dir = val;
    else if (key == "--pins") opt.pins = val;
    else if (key == "--rev") opt.rev = val;
    else if (key == "--pin") opt.pin = val == "1";
    else return false;
  }
  const auto& names = perfbench::workload_names();
  return argc % 2 == 1 && opt.seconds > 0 &&
         std::find(names.begin(), names.end(), opt.workload) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <campaign_insitu|"
                 "campaign_resilient|three_scale> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir d] [--pins f] [--rev r] "
                 "[--pin 1]\n");
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: %s build is invalid; build Release\n",
                 build_type.c_str());
    return 3;
  }
  util::Log::set_level(util::LogLevel::kWarn);
  fs::create_directories(opt.out_dir);
  // CPUs this process may run on, as nproc(1) counts them.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const std::size_t nproc =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&cpus))
          : std::max(1u, std::thread::hardware_concurrency());
  Runner runner(opt);
  if (opt.pin) {
    const Pass p = runner.pass(false, nproc);
    if (!p.ok) return 1;
    std::printf("%s %llu %s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                p.result.fingerprint.c_str());
    return 0;
  }

  std::printf(
      "meta {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": %s, \"compiler\": %s, \"cxx_flags\": %s, "
      "\"march\": %s, \"nproc\": %zu, \"cpu\": %s, \"rev\": %s, "
      "\"pool_workers\": %zu, \"checkpoint_fs\": %s, \"pinned\": %s}\n",
      json_str(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      json_str(build_type).c_str(), json_str(__VERSION__).c_str(),
      json_str(PERFBENCH_CXX_FLAGS).c_str(),
      json_str(march(PERFBENCH_CXX_FLAGS)).c_str(), nproc,
      json_str(cpu_model()).c_str(), json_str(opt.rev).c_str(), nproc,
      json_str(fs_type(opt.out_dir)).c_str(),
      runner.pinned() ? "true" : "false");

  // Passes until the next one would overrun the budget (at least kMinPasses).
  constexpr std::size_t kMinPasses = 3;
  std::vector<Pass> plain, traced;
  if (opt.trace) {
    const Pass serial = runner.pass(false, 1);
    std::printf("1-worker pass: fingerprint %s (%s)\n",
                serial.result.fingerprint.c_str(), serial.ok ? "ok" : "FAILED");
  }
  util::Stopwatch budget;
  std::vector<double> costs;
  do {
    util::Stopwatch cost;
    plain.push_back(runner.pass(false, nproc));
    if (opt.trace) traced.push_back(runner.pass(true, nproc));
    costs.push_back(cost.elapsed());
  } while (plain.size() < kMinPasses ||
           budget.elapsed() + median(costs) <= opt.seconds);

  std::vector<double> walls, setups, occupancy, cycles;
  for (const Pass& p : plain) {
    if (!p.ok) continue;
    walls.push_back(p.result.wall_s);
    setups.push_back(p.setup_s);
    occupancy.push_back(p.result.gpu_occupancy);
    cycles.insert(cycles.end(), p.result.cycle_ms.begin(),
                  p.result.cycle_ms.end());
  }
  std::map<std::string, double> metrics;
  std::printf("passes: %zu untraced (%zu ok)%s; cycle samples: %zu\n",
              plain.size(), walls.size(),
              opt.trace ? (", " + std::to_string(traced.size()) + " traced")
                              .c_str()
                        : "",
              cycles.size());
  std::printf("untraced pass walls (s):");
  for (const double w : walls) std::printf(" %.4f", w);
  std::printf("\n");
  if (!opt.trace) {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    metrics["wall_s"] = median(walls);
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    metrics["gpu_occupancy_mean"] = median(occupancy);
    metrics["cycle_p50_ms"] = perfbench::percentile(cycles, 50);
    metrics["cycle_p90_ms"] = perfbench::percentile(cycles, 90);
  } else {
    std::vector<const Pass*> ok;
    std::vector<double> traced_walls;
    for (const Pass& p : traced)
      if (p.ok) {
        ok.push_back(&p);
        traced_walls.push_back(p.result.wall_s);
      }
    std::sort(ok.begin(), ok.end(), [](const Pass* a, const Pass* b) {
      return a->result.wall_s < b->result.wall_s;
    });
    const Pass* mid = ok.empty() ? nullptr : ok[(ok.size() - 1) / 2];
    const double overhead =
        100.0 * (ratio(median(traced_walls), median(walls)) - 1.0);
    if (mid != nullptr) {
      metrics = per_layer(*mid, opt, walls.empty() ? 0.0 : overhead);
      print_layer_table(*mid, metrics);
    } else {
      for (const auto& m : kPerLayer) metrics[m.name] = 0.0;
    }
    for (const Pass& p : traced)
      if (&p != mid && !p.trace_file.empty()) {
        std::error_code ec;
        fs::remove(p.trace_file, ec);
      }
  }

  std::string out = "{\"correct\": ";
  out += runner.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(runner.attempted());
  out += ", \"failed\": " + std::to_string(runner.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : opt.trace ? std::vector<Metric>(std::begin(kPerLayer),
                                                       std::end(kPerLayer))
                                 : std::vector<Metric>(std::begin(kEndToEnd),
                                                       std::end(kEndToEnd))) {
    if (!first) out += ", ";
    first = false;
    out += json_str(m.name) + ": {\"value\": " + num(metrics[m.name]) +
           ", \"unit\": " + json_str(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
