// MetricsRegistry: counters, gauges, histograms, snapshots, JSON.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace mummi::obs {
namespace {

// The registry is process-wide and shared with every other test in this
// binary, so these tests use obviously-test-private metric names and never
// assert on global totals.

TEST(Metrics, CounterIncrementsAndResets) {
  Counter& c = counter("test.metrics.counter_basic");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HandlesAreStable) {
  Counter& a = counter("test.metrics.same_handle");
  Counter& b = counter("test.metrics.same_handle");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = gauge("test.metrics.same_gauge");
  Gauge& g2 = gauge("test.metrics.same_gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge& g = gauge("test.metrics.gauge_basic");
  g.reset();
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, HistogramTracksExactMoments) {
  HistogramMetric& h =
      histogram("test.metrics.hist_basic", 0.0, 10.0, 10);
  h.reset();
  h.observe(1.0);
  h.observe(2.0);
  h.observe(9.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  const auto row = h.row("test.metrics.hist_basic");
  EXPECT_DOUBLE_EQ(row.min, 1.0);
  EXPECT_DOUBLE_EQ(row.max, 9.0);
  EXPECT_EQ(row.bins.size(), 10u);
  EXPECT_DOUBLE_EQ(row.bins[1], 1.0);
  EXPECT_DOUBLE_EQ(row.bins[2], 1.0);
  EXPECT_DOUBLE_EQ(row.bins[9], 1.0);
}

TEST(Metrics, HistogramFirstRegistrationFixesBins) {
  HistogramMetric& a =
      histogram("test.metrics.hist_layout", 0.0, 1.0, 4);
  HistogramMetric& b =
      histogram("test.metrics.hist_layout", -5.0, 5.0, 99);  // ignored
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.histogram().nbins(), 4u);
  EXPECT_DOUBLE_EQ(a.histogram().hi(), 1.0);
}

TEST(Metrics, SnapshotIsSortedByName) {
  counter("test.metrics.zz_last").inc();
  counter("test.metrics.aa_first").inc();
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  EXPECT_TRUE(std::is_sorted(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

TEST(Metrics, RuntimeDisableDropsUpdates) {
  Counter& c = counter("test.metrics.disabled_counter");
  c.reset();
  HistogramMetric& h =
      histogram("test.metrics.disabled_hist", 0.0, 1.0, 2);
  h.reset();
  set_enabled(false);
  c.inc();
  h.observe(0.5);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  Counter& c = counter("test.metrics.concurrent");
  c.reset();
  HistogramMetric& h =
      histogram("test.metrics.concurrent_hist", 0.0, 1.0, 4);
  h.reset();
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(0.5);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(Metrics, SnapshotJsonHasSections) {
  counter("test.metrics.json_counter").inc(7);
  gauge("test.metrics.json_gauge").set(1.25);
  histogram("test.metrics.json_hist", 0.0, 1.0, 2).observe(0.25);
  MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  snap.time = 123.5;
  const std::string json = snap.json();
  EXPECT_NE(json.find("\"time\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.metrics.json_counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("test.metrics.json_hist"), std::string::npos);
}

TEST(Metrics, RegistryResetZeroesButKeepsHandles) {
  Counter& c = counter("test.metrics.reset_keeps");
  c.inc(5);
  MetricsRegistry::instance().reset();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(&c, &counter("test.metrics.reset_keeps"));
}

TEST(Metrics, RuntimeSwitchDefaultsOn) {
  // Every test that turns the switch off turns it back on, so it still holds
  // its process-start value here whatever the test order.
  EXPECT_TRUE(enabled());
  Counter& c = counter("test.metrics.defaults_on");
  c.reset();
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

}  // namespace
}  // namespace mummi::obs
