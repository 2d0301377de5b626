#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "util/crashpoint.hpp"

namespace mummi::obs {

namespace {

// util cannot link obs, so persistence code down in util reports durability
// events (ckpt.generations, ckpt.recovered_from, ...) through a hook seam.
// Installing the mirror from a static initializer in this TU means any
// binary that uses obs at all gets the counters for free.
[[maybe_unused]] const bool g_persist_mirror = [] {
  util::set_persist_event_hook([](const char* name) { counter(name).inc(); });
  return true;
}();

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::json(int indent) const {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  const std::string pad1 = pad + "  ";
  const std::string pad2 = pad1 + "  ";
  std::string out = pad + "{\n";
  out += pad1 + "\"time\": " + fmt_double(time) + ",\n";

  out += pad1 + "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += pad2 + "\"";
    append_escaped(out, counters[i].name);
    out += "\": " + std::to_string(counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n" + pad1 + "},\n";

  out += pad1 + "\"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += pad2 + "\"";
    append_escaped(out, gauges[i].name);
    out += "\": " + fmt_double(gauges[i].value);
  }
  out += gauges.empty() ? "},\n" : "\n" + pad1 + "},\n";

  out += pad1 + "\"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    out += i ? ",\n" : "\n";
    out += pad2 + "\"";
    append_escaped(out, h.name);
    out += "\": {\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + fmt_double(h.sum);
    out += ", \"mean\": " + fmt_double(h.mean());
    if (h.count > 0) {
      out += ", \"min\": " + fmt_double(h.min);
      out += ", \"max\": " + fmt_double(h.max);
    }
    out += ", \"lo\": " + fmt_double(h.lo) + ", \"hi\": " + fmt_double(h.hi);
    out += ", \"bins\": [";
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      if (b) out += ", ";
      out += fmt_double(h.bins[b]);
    }
    out += "]}";
  }
  out += histograms.empty() ? "}\n" : "\n" + pad1 + "}\n";
  out += pad + "}";
  return out;
}

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

MetricsSnapshot::HistogramRow HistogramMetric::row(std::string name) const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot::HistogramRow r;
  r.name = std::move(name);
  r.count = n_;
  r.sum = sum_;
  r.min = n_ > 0 ? min_ : 0.0;
  r.max = n_ > 0 ? max_ : 0.0;
  r.lo = hist_.lo();
  r.hi = hist_.hi();
  r.bins.reserve(hist_.nbins());
  for (std::size_t b = 0; b < hist_.nbins(); ++b)
    r.bins.push_back(hist_.count(b));
  return r;
}

void HistogramMetric::reset() {
  std::lock_guard lock(mutex_);
  hist_ = util::Histogram(hist_.lo(), hist_.hi(), hist_.nbins());
  sum_ = 0;
  n_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed:
  return *registry;  // handles must outlive every static destructor
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t nbins) {
  std::lock_guard lock(mutex_);
  auto& slot = hists_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>(lo, hi, nbins);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_)
      snap.counters.push_back({name, c->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_)
      snap.gauges.push_back({name, g->value()});
    snap.histograms.reserve(hists_.size());
    for (const auto& [name, h] : hists_) snap.histograms.push_back(h->row(name));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : hists_) h->reset();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return counters_.size() + gauges_.size() + hists_.size();
}

}  // namespace mummi::obs
