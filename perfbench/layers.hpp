// Per-layer attribution of one traced pass.
//
// The pass is wrapped in a root span recorded by the benchmark; the program's
// own spans (wm.tick, wm.maintain, wm.select.*, wm.checkpoint) and the
// benchmark's spans around public calls (continuum.step, mdengine.cg, ...)
// nest inside it on the calling thread. A layer's self time is its span's
// duration minus the time covered by its nearest attributed descendants, so
// the self times of every attributed span, root included, add up to the
// root's duration: the root's own self time is the unattributed remainder.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Self time (ms) and event count per attributed span name.
struct LayerTable {
  std::map<std::string, double> self_ms;
  std::map<std::string, std::size_t> count;
  double root_ms = 0;  // total duration of the root span
  /// Total durations (us) of every `wm.tick` span, for tick percentiles.
  std::vector<double> tick_us;

  [[nodiscard]] double self(const std::string& name) const;
  [[nodiscard]] std::size_t n(const std::string& name) const;
};

/// Attributes `events` (one pass, from obs::Tracer::events()). The `root`
/// span and spans named in `attributed` receive self time; other spans are
/// transparent — their time stays with the nearest attributed ancestor. Only
/// events on the thread that recorded the first root span count, so spans on
/// pool workers never double-count the caller's wall.
LayerTable attribute(const std::vector<mummi::obs::TraceEvent>& events,
                     const std::string& root,
                     const std::vector<std::string>& attributed);

/// Linear-interpolated percentile (q in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
