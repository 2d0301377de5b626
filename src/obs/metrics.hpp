// Process-wide metrics registry: named counters, gauges and histograms.
//
// The paper's operational story (Sec. 5.2, Figs. 5-8) rests on observing the
// campaign — occupancy every 10 min, ramp-up curves, KV query-mix rates. The
// registry is the one place those numbers accumulate: any layer grabs a
// handle by name (`obs::counter("sched.submitted")`) and updates it with
// relaxed atomics; snapshots serialize the whole registry for the
// TelemetryReport sink and the figure benches.
//
// Cost model:
//   - runtime-disabled (obs::set_enabled(false)): one relaxed atomic load
//     per update through a cached handle. The name-lookup shorthands below
//     (obs::counter("...")) also take the registry mutex and build a
//     std::string on every call, enabled or not;
//   - enabled: a relaxed fetch_add (counters/gauges) or a short mutex-guarded
//     histogram insert. Nothing here belongs in a per-element inner loop;
//     the instrumented sites are per-job / per-KV-op, not per-point.
//
// Handles returned by the registry are stable for the life of the process:
// metrics are never destroyed, only reset() to zero, so cached pointers in
// hot objects (Scheduler, KvCluster) stay valid across test cases.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/histogram.hpp"

namespace mummi::obs {

/// One registry snapshot, timestamped by the caller. Rows are sorted by name
/// so serialized output is deterministic.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    double value = 0;
  };
  struct HistogramRow {
    std::string name;
    std::size_t count = 0;
    double sum = 0, min = 0, max = 0;
    double lo = 0, hi = 0;
    std::vector<double> bins;
    [[nodiscard]] double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };

  double time = 0;  // seconds, caller-defined epoch (virtual or wall)
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  /// JSON object (counters/gauges as maps, histograms with bin arrays).
  /// `indent` spaces of leading indentation on every line.
  [[nodiscard]] std::string json(int indent = 0) const;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime master switch (default on). Updates are dropped while disabled;
/// reads (value(), snapshot()) always work.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value (occupancy fraction, queue depth, ...).
class Gauge {
 public:
  void set(double v) {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  void add(double dv) {
    if (!enabled()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + dv,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Distribution metric: fixed uniform bins (util::Histogram) plus exact
/// sum/count/min/max, so mean() carries no binning error — the property the
/// Fig. 5 acceptance check (registry mean == Profiler mean) relies on.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t nbins)
      : hist_(lo, hi, nbins) {}

  void observe(double x, double weight = 1.0) {
    if (!enabled()) return;
    std::lock_guard lock(mutex_);
    hist_.add(x, weight);
    sum_ += x * weight;
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const {
    std::lock_guard lock(mutex_);
    return n_;
  }
  [[nodiscard]] double sum() const {
    std::lock_guard lock(mutex_);
    return sum_;
  }
  [[nodiscard]] double mean() const {
    std::lock_guard lock(mutex_);
    return n_ > 0 ? sum_ / static_cast<double>(n_) : 0.0;
  }
  /// Copy of the underlying binned histogram (for ascii / fraction queries).
  [[nodiscard]] util::Histogram histogram() const {
    std::lock_guard lock(mutex_);
    return hist_;
  }

  [[nodiscard]] MetricsSnapshot::HistogramRow row(std::string name) const;
  void reset();

 private:
  mutable std::mutex mutex_;
  util::Histogram hist_;
  double sum_ = 0;
  std::size_t n_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Returns the named metric, creating it on first use. Handles are stable
  /// for the life of the process. For histograms, the first registration
  /// fixes the bin layout; later calls ignore their lo/hi/nbins.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t nbins);

  /// Point-in-time copy of every metric, rows sorted by name. `time` is left
  /// 0 — the caller stamps it (virtual campaign seconds or wall time).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every value; handles stay valid (nothing is destroyed).
  void reset();

  [[nodiscard]] std::size_t size() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<HistogramMetric>> hists_;
};

/// Shorthands for instrumentation sites.
inline Counter& counter(const std::string& name) {
  return MetricsRegistry::instance().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return MetricsRegistry::instance().gauge(name);
}
inline HistogramMetric& histogram(const std::string& name, double lo,
                                  double hi, std::size_t nbins) {
  return MetricsRegistry::instance().histogram(name, lo, hi, nbins);
}

}  // namespace mummi::obs
