// Reproduces Figure 7: Redis-backed feedback query performance on a
// 20-server cluster — time for the three query types of the CG-to-continuum
// feedback (retrieve keys / retrieve values / delete pairs) as a function of
// the number of pending CG frames.
//
// Paper rates at 4000-node scale: ~10,000 key-retrievals+deletions/s and
// ~2000 value-reads/s; one outlier iteration with ~70k accumulated frames.
//
// Each query phase runs inside an obs::Span, and every iteration appends a
// registry snapshot to a TelemetryReport, so the per-op KV counters and cost
// histograms land in bench_outputs/telemetry_kv.json alongside the table.
//
// A second section compares the per-key collect+tag loop against the
// pipelined batch path (MGET + MRENAME): same records, byte-identical
// results, one round trip per shard instead of one per record. The rows land
// in bench_outputs/fig7_batched.json.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "datastore/kv_cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

using namespace mummi;

int main() {
  obs::MetricsRegistry::instance().reset();
  obs::Tracer::instance().clear();
  obs::TelemetryReport report("fig7_kv_feedback");

  std::printf("=== Figure 7: in-memory KV cluster feedback queries "
              "(20 servers) ===\n\n");
  std::printf("%10s %14s %16s %14s | %12s %12s\n", "#frames",
              "retrieve keys", "retrieve values", "delete pairs",
              "wall keys", "wall values");
  std::printf("%10s %14s %16s %14s | %12s %12s\n", "", "(model s)",
              "(model s)", "(model s)", "(measured s)", "(measured s)");

  util::Rng rng(4);
  double virtual_now = 0.0;
  for (int frames : {5000, 10000, 20000, 30000, 40000, 50000, 60000, 70000}) {
    ds::KvCluster kv(20);
    // Each pending frame: an RDF record of a few KB under "rdf:<id>".
    util::Bytes payload(3500);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    {
      obs::Span span("fig7.populate", "kv");
      for (int i = 0; i < frames; ++i)
        kv.set("rdf:" + std::to_string(i), payload);
    }
    kv.reset_sim_time();

    util::Stopwatch wall;
    std::vector<std::string> keys;
    {
      obs::Span span("fig7.retrieve_keys", "kv");
      keys = kv.keys("rdf:*");
    }
    const double wall_keys = wall.elapsed();

    wall.reset();
    {
      obs::Span span("fig7.retrieve_values", "kv");
      for (const auto& key : keys) (void)kv.get(key);
    }
    const double wall_values = wall.elapsed();

    {
      obs::Span span("fig7.delete_pairs", "kv");
      for (const auto& key : keys) kv.del(key);
    }

    std::printf("%10d %14.2f %16.2f %14.2f | %12.4f %12.4f\n", frames,
                kv.sim_seconds_keys(), kv.sim_seconds_reads(),
                kv.sim_seconds_deletes(), wall_keys, wall_values);

    // Snapshot after each iteration, stamped with accumulated model time —
    // the same timeline the table's model columns report.
    virtual_now += kv.sim_seconds_keys() + kv.sim_seconds_reads() +
                   kv.sim_seconds_deletes() + kv.sim_seconds_writes();
    report.sample(virtual_now);
  }

  std::printf("\nregistry KV op counts: set=%llu get=%llu del=%llu "
              "keys=%llu\n",
              static_cast<unsigned long long>(
                  obs::counter("kv.ops.set").value()),
              static_cast<unsigned long long>(
                  obs::counter("kv.ops.get").value()),
              static_cast<unsigned long long>(
                  obs::counter("kv.ops.del").value()),
              static_cast<unsigned long long>(
                  obs::counter("kv.ops.keys").value()));
  std::printf("\nspan summary:\n%s",
              obs::Tracer::instance().summary().c_str());

  std::filesystem::create_directories("bench_outputs");
  if (!report.write_json("bench_outputs/telemetry_kv.json")) {
    std::fprintf(stderr, "cannot write bench_outputs/telemetry_kv.json\n");
    return 1;
  }
  std::printf("\nwrote bench_outputs/telemetry_kv.json\n");

  // --- batched vs per-key collect+tag ------------------------------------
  // The CG-to-continuum iteration shape: list pending, fetch every record,
  // tag by renaming into the done namespace. Per-key pays one round trip per
  // record; the batch path pays one per shard touched.
  std::printf("\n=== collect+tag: per-key loop vs pipelined batch ===\n\n");
  std::printf("%10s %14s %14s %10s %10s\n", "#frames", "per-key (s)",
              "batched (s)", "speedup", "identical");

  struct BatchedRow {
    int frames;
    double per_key_s, batched_s, speedup;
    bool identical;
  };
  std::vector<BatchedRow> rows;
  bool all_ok = true;
  for (int frames : {2000, 5000, 10000, 20000}) {
    ds::KvCluster loop_kv(20), batch_kv(20);
    std::vector<std::pair<std::string, util::Bytes>> records;
    records.reserve(static_cast<std::size_t>(frames));
    for (int i = 0; i < frames; ++i) {
      util::Bytes payload(3500);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
      records.emplace_back("rdf-pending:" + std::to_string(i),
                           std::move(payload));
    }
    for (const auto& [key, value] : records) {
      loop_kv.set(key, value);
      batch_kv.set(key, value);
    }
    loop_kv.reset_sim_time();
    batch_kv.reset_sim_time();

    // Per-key loop: keys + get each + rename each into done.
    std::vector<util::Bytes> loop_values;
    {
      obs::Span span("fig7.collect_tag_loop", "kv");
      const auto keys = loop_kv.keys("rdf-pending", "*");
      loop_values.reserve(keys.size());
      for (const auto& key : keys) loop_values.push_back(*loop_kv.get(key));
      for (const auto& key : keys)
        loop_kv.rename(key, "rdf-done" + key.substr(key.find(':')));
    }
    const double per_key_s = loop_kv.total_sim_seconds();

    // Batched: keys + one MGET + one MRENAME.
    std::vector<util::Bytes> batch_values;
    {
      obs::Span span("fig7.collect_tag_batched", "kv");
      const auto keys = batch_kv.keys("rdf-pending", "*");
      const auto fetched = batch_kv.mget(keys);
      batch_values.reserve(fetched.size());
      for (const auto& v : fetched) batch_values.push_back(*v);
      std::vector<std::pair<std::string, std::string>> renames;
      renames.reserve(keys.size());
      for (const auto& key : keys)
        renames.emplace_back(key, "rdf-done" + key.substr(key.find(':')));
      batch_kv.mrename(renames);
    }
    const double batched_s = batch_kv.total_sim_seconds();

    const bool identical =
        loop_values == batch_values &&
        loop_kv.keys("rdf-done", "*") == batch_kv.keys("rdf-done", "*") &&
        loop_kv.count("rdf-pending") == 0 && batch_kv.count("rdf-pending") == 0;
    const double speedup = batched_s > 0 ? per_key_s / batched_s : 0.0;
    all_ok = all_ok && identical;
    rows.push_back({frames, per_key_s, batched_s, speedup, identical});
    std::printf("%10d %14.3f %14.3f %9.1fx %10s\n", frames, per_key_s,
                batched_s, speedup, identical ? "yes" : "NO");
  }

  {
    std::FILE* f = std::fopen("bench_outputs/fig7_batched.json", "w");
    if (!f) {
      std::fprintf(stderr, "cannot write bench_outputs/fig7_batched.json\n");
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig7_batched\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"frames\": %d, \"per_key_s\": %.6f, "
                   "\"batched_s\": %.6f, \"speedup\": %.3f, "
                   "\"identical\": %s}%s\n",
                   r.frames, r.per_key_s, r.batched_s, r.speedup,
                   r.identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  std::printf("\nwrote bench_outputs/fig7_batched.json\n");
  if (!all_ok) {
    std::fprintf(stderr, "batched results diverged from the per-key loop\n");
    return 1;
  }

  std::printf("\nshape checks (model columns, calibrated to the paper's "
              "measured rates):\n");
  std::printf("  - all three query types scale linearly in the number of "
              "frames;\n");
  std::printf("  - value retrieval is ~5x the cost of key retrieval or "
              "deletion\n    (~2k reads/s vs ~10k keys+deletes/s);\n");
  std::printf("  - even the 70k-frame outlier iteration (controlled-shutdown "
              "backlog)\n    completes in well under a 10-minute feedback "
              "budget.\n");
  return 0;
}
