// Span tracer: RAII spans emitting Chrome trace-event JSON.
//
// Coordination work (maintain passes, selector picks, checkpoint saves, KV
// query phases) is timed on the wall clock and recorded as complete ('X')
// events; fault injections land as instant ('i') markers. The resulting file
// loads directly in chrome://tracing or Perfetto (ui.perfetto.dev): spans
// nest visually per thread because nesting is plain stack discipline —
// a Span opened inside another Span's lifetime is contained in its ts/dur
// window, which is all the trace viewers need.
//
// The tracer shares the runtime switch with the metrics registry: while it
// is off, a Span does one relaxed atomic load and never reads the clock. The
// event buffer is bounded (default 1M events); overflow increments dropped()
// instead of growing without limit.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mummi::obs {

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';       // 'X' complete, 'i' instant
  double ts_us = 0;    // microseconds since tracer epoch
  double dur_us = 0;   // 'X' only
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Microseconds since the tracer epoch (process start / last clear()).
  [[nodiscard]] double now_us() const;

  /// Small dense id for the calling thread (stable per thread).
  [[nodiscard]] static std::uint32_t thread_id();

  void complete(std::string name, std::string cat, double ts_us,
                double dur_us);
  void instant(std::string name, std::string cat);

  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::size_t dropped() const;

  /// Drops all recorded events and re-anchors the epoch at now.
  void clear();

  /// Maximum buffered events; further events are counted in dropped().
  void set_capacity(std::size_t max_events);

  /// The full trace as a Chrome trace-event JSON object
  /// ({"traceEvents": [...], "displayTimeUnit": "ms"}).
  [[nodiscard]] std::string chrome_json() const;

  /// Writes chrome_json() to `path`. Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Compact per-span-name text table: count, total/mean/max duration.
  [[nodiscard]] std::string summary() const;

 private:
  Tracer();
  void push(TraceEvent ev);

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 1u << 20;
  std::size_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span. Measures wall time from construction to destruction (or an
/// explicit end()) and records one complete event. Cheap when telemetry is
/// disabled: a single relaxed load, no clock read.
class Span {
 public:
  explicit Span(std::string name, std::string cat = "span")
      : name_(std::move(name)), cat_(std::move(cat)), armed_(enabled()) {
    if (armed_) start_us_ = Tracer::instance().now_us();
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent).
  void end() {
    if (!armed_) return;
    armed_ = false;
    Tracer& tracer = Tracer::instance();
    tracer.complete(std::move(name_), std::move(cat_), start_us_,
                    tracer.now_us() - start_us_);
  }

  /// Wall microseconds since construction (0 once ended or when disabled).
  [[nodiscard]] double elapsed_us() const {
    return armed_ ? Tracer::instance().now_us() - start_us_ : 0.0;
  }

 private:
  std::string name_, cat_;
  double start_us_ = 0;
  bool armed_ = false;
};

}  // namespace mummi::obs
