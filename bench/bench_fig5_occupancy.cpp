// Reproduces Figure 5: resource-occupancy distribution over 10-minute
// profile events. Paper headline: ">=98% GPU occupancy for more than 83% of
// the time", mean 93.73% / median 99.93% GPU; CPU mean 54.12% / median
// 50.48% (low by design: setup jobs run only when needed).
//
// This bench is also the telemetry showcase: it installs a TelemetryReport
// sink so the campaign's profile tick snapshots the metrics registry every
// 10 virtual minutes, then lands the series in bench_outputs/telemetry.json
// and the span trace in bench_outputs/trace_fig5.json (loadable in
// chrome://tracing or Perfetto). The registry occupancy histogram must agree
// with wm::Profiler exactly — both observe the same samples in the same
// order — and the bench asserts that.

#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "bench/campaign_common.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

using namespace mummi;

int main(int argc, char** argv) {
  obs::MetricsRegistry::instance().reset();
  obs::Tracer::instance().clear();
  obs::TelemetryReport report("fig5_occupancy");
  obs::set_report_sink(&report);

  auto config = bench::campaign_config(argc, argv);
  wm::CampaignResult result = wm::Campaign(std::move(config)).run();
  obs::set_report_sink(nullptr);
  const auto& prof = result.profiler;

  std::printf("=== Figure 5: resource occupancy (%s) ===\n\n",
              bench::scale_label(argc, argv));
  std::printf("profile events: %zu (every 10 min of virtual time)\n\n",
              prof.events().size());

  std::printf("GPU occupancy histogram (%% of events per %% bin):\n%s\n",
              prof.gpu_histogram(20).ascii(46).c_str());
  std::printf("CPU occupancy histogram:\n%s\n",
              prof.cpu_histogram(20).ascii(46).c_str());

  std::printf("%-44s %8.2f%%  (paper: >83%%)\n",
              "fraction of time with >=98% GPU occupancy",
              100.0 * prof.fraction_gpu_at_least(0.98));
  std::printf("%-44s %8.2f%%  (paper: 93.73%%)\n", "mean GPU occupancy",
              100.0 * prof.mean_gpu_occupancy());
  std::printf("%-44s %8.2f%%  (paper: 99.93%%)\n", "median GPU occupancy",
              100.0 * prof.median_gpu_occupancy());
  std::printf("%-44s %8.2f%%  (paper: 54.12%%)\n", "mean CPU occupancy",
              100.0 * prof.mean_cpu_occupancy());
  std::printf("%-44s %8.2f%%  (paper: 50.48%%)\n", "median CPU occupancy",
              100.0 * prof.median_cpu_occupancy());
  std::printf("\nCPU occupancy is low by design: \"CPU jobs are to be "
              "scheduled only when needed\nto prevent simulations of stale "
              "configurations\" (Sec. 5.2).\n");

  // Cross-check: registry-side occupancy must match the Profiler exactly.
  const double reg_mean =
      obs::histogram("wm.occupancy.gpu", 0.0, 1.0000001, 20).mean();
  const double prof_mean = prof.mean_gpu_occupancy();
  std::printf("\ntelemetry registry mean GPU occupancy: %.9f "
              "(profiler: %.9f)\n",
              reg_mean, prof_mean);
  if (std::fabs(reg_mean - prof_mean) > 1e-9) {
    std::fprintf(stderr,
                 "fig5: registry/profiler occupancy mismatch (%.12f vs "
                 "%.12f)\n",
                 reg_mean, prof_mean);
    return 1;
  }
  std::printf("telemetry snapshots: %zu, trace events: %zu (%zu dropped)\n",
              report.samples(), obs::Tracer::instance().event_count(),
              obs::Tracer::instance().dropped());
  std::printf("\nspan summary (wall time of coordination work):\n%s",
              obs::Tracer::instance().summary().c_str());

  std::filesystem::create_directories("bench_outputs");
  if (!report.write_json("bench_outputs/telemetry.json")) {
    std::fprintf(stderr, "cannot write bench_outputs/telemetry.json\n");
    return 1;
  }
  if (!obs::Tracer::instance().write_chrome_trace(
          "bench_outputs/trace_fig5.json")) {
    std::fprintf(stderr, "cannot write bench_outputs/trace_fig5.json\n");
    return 1;
  }
  std::printf("\nwrote bench_outputs/telemetry.json and "
              "bench_outputs/trace_fig5.json\n");
  return 0;
}
