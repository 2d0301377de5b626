#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace mummi::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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

bool write_text_file(const std::string& path, const std::string& text) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), out);
  const bool ok = written == text.size() && std::fclose(out) == 0;
  if (!ok && written != text.size()) std::fclose(out);
  return ok;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // leaked: outlives static dtors
  return *tracer;
}

double Tracer::now_us() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(dt).count();
}

std::uint32_t Tracer::thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::push(TraceEvent ev) {
  std::lock_guard lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

void Tracer::complete(std::string name, std::string cat, double ts_us,
                      double dur_us) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.ph = 'X';
  ev.ts_us = ts_us;
  ev.dur_us = std::max(0.0, dur_us);
  ev.tid = thread_id();
  push(std::move(ev));
}

void Tracer::instant(std::string name, std::string cat) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.ph = 'i';
  ev.ts_us = now_us();
  ev.tid = thread_id();
  push(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::size_t Tracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

void Tracer::set_capacity(std::size_t max_events) {
  std::lock_guard lock(mutex_);
  capacity_ = std::max<std::size_t>(1, max_events);
}

std::string Tracer::chrome_json() const {
  // Trace-event JSON array format: each event is one object; "X" events
  // carry dur, "i" events carry scope "t" (thread). ts/dur in microseconds.
  const auto evs = events();
  std::string out = "{\"traceEvents\": [";
  char buf[96];
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& ev = evs[i];
    out += i ? ",\n  " : "\n  ";
    out += "{\"name\": \"";
    append_escaped(out, ev.name);
    out += "\", \"cat\": \"";
    append_escaped(out, ev.cat);
    out += "\", \"ph\": \"";
    out += ev.ph;
    out += "\", \"pid\": 1, ";
    std::snprintf(buf, sizeof buf, "\"tid\": %u, \"ts\": %.3f", ev.tid,
                  ev.ts_us);
    out += buf;
    if (ev.ph == 'X') {
      std::snprintf(buf, sizeof buf, ", \"dur\": %.3f", ev.dur_us);
      out += buf;
    } else if (ev.ph == 'i') {
      out += ", \"s\": \"t\"";
    }
    out += "}";
  }
  out += evs.empty() ? "], " : "\n], ";
  out += "\"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  return write_text_file(path, chrome_json());
}

std::string Tracer::summary() const {
  struct Agg {
    std::size_t count = 0;
    double total_us = 0, max_us = 0;
  };
  std::map<std::string, Agg> by_name;  // ordered: deterministic output
  for (const auto& ev : events()) {
    if (ev.ph != 'X') continue;
    Agg& agg = by_name[ev.name];
    ++agg.count;
    agg.total_us += ev.dur_us;
    agg.max_us = std::max(agg.max_us, ev.dur_us);
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-32s %10s %12s %12s %12s\n", "span",
                "count", "total ms", "mean us", "max us");
  out += line;
  for (const auto& [name, agg] : by_name) {
    std::snprintf(line, sizeof line, "%-32s %10zu %12.3f %12.1f %12.1f\n",
                  name.c_str(), agg.count, agg.total_us / 1000.0,
                  agg.total_us / static_cast<double>(agg.count), agg.max_us);
    out += line;
  }
  return out;
}

}  // namespace mummi::obs
