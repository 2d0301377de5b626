#include "layers.hpp"

#include <algorithm>
#include <set>

namespace perfbench {

double LayerTable::self(const std::string& name) const {
  const auto it = self_ms.find(name);
  return it == self_ms.end() ? 0.0 : it->second;
}

std::size_t LayerTable::n(const std::string& name) const {
  const auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}

LayerTable attribute(const std::vector<mummi::obs::TraceEvent>& events,
                     const std::string& root,
                     const std::vector<std::string>& attributed) {
  std::set<std::string> known(attributed.begin(), attributed.end());
  known.insert(root);

  std::vector<const mummi::obs::TraceEvent*> spans;
  for (const auto& ev : events)
    if (ev.ph == 'X') spans.push_back(&ev);
  // Parents before children: earlier start first, longer span first on ties.
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->dur_us > b->dur_us;
  });

  LayerTable table;
  bool have_tid = false;
  std::uint32_t tid = 0;
  for (const auto* ev : spans)
    if (ev->name == root) {
      tid = ev->tid;
      have_tid = true;
      break;
    }
  if (!have_tid) return table;

  // Stack of open attributed spans: (end time, name).
  std::vector<std::pair<double, const std::string*>> open;
  for (const auto* ev : spans) {
    if (ev->tid != tid) continue;
    if (ev->name == "wm.tick") table.tick_us.push_back(ev->dur_us);
    if (known.count(ev->name) == 0) continue;
    const double end = ev->ts_us + ev->dur_us;
    while (!open.empty() && open.back().first <= ev->ts_us) open.pop_back();
    const double dur_ms = ev->dur_us * 1e-3;
    table.self_ms[ev->name] += dur_ms;
    ++table.count[ev->name];
    if (!open.empty())
      table.self_ms[*open.back().second] -= dur_ms;
    else if (ev->name == root)
      table.root_ms += dur_ms;
    open.emplace_back(end, &ev->name);
  }
  return table;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
