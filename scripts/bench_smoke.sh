#!/usr/bin/env bash
# Bench smoke: run the JSON-emitting benchmarks at reduced scale and fail if
# any of them exits nonzero or writes malformed/incomplete JSON. This guards
# the bench binaries and their bench_outputs/*.json contract (the files the
# plotting/regression tooling consumes) without paying full-scale runtimes.
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
if [[ ! -d "$build_dir/bench" ]]; then
  echo "bench_smoke: $build_dir/bench not found (build first)" >&2
  exit 1
fi

run_bench() {
  local name="$1" json="$2"
  shift 2
  echo "--- $name $* ---"
  rm -f "bench_outputs/$json"
  "$build_dir/bench/$name" "$@"
  local path="bench_outputs/$json"
  if [[ ! -s "$path" ]]; then
    echo "bench_smoke: $name did not write $path" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if "bench" not in doc:
    sys.exit(f"{sys.argv[1]}: missing 'bench' key")
EOF
  else
    # Crude structural check when python3 is absent: non-empty, balanced
    # outermost braces, and the bench tag present.
    grep -q '"bench"' "$path"
    [[ "$(head -c 1 "$path")" == "{" ]]
    [[ "$(tail -c 2 "$path" | head -c 1)" == "}" ]]
  fi
  echo "    $path OK"
}

run_bench bench_ml_selectors ml_selectors.json --small
run_bench bench_sched_matcher sched_matcher.json --small
run_bench bench_table1_campaign table1.json --small
run_bench bench_resilience resilience.json

# Crash-recovery contract: the crash-point sweep kills the persistence layer
# at every registered boundary (21 points: checkpoint save chain, FsStore
# put/move/del, tar append/flush, campaign checkpoint ticks), recovers, and
# compares within-durability-group science fingerprints. Every armed point
# must crash, every crash must recover, and nothing may diverge.
run_bench bench_resilience crash_recovery.json --crash-sweep
check_crash_recovery() {
  local path="bench_outputs/crash_recovery.json"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("points_swept", 0) < 21:
    sys.exit(f"{sys.argv[1]}: expected >= 21 crash points swept: {doc.get('points_swept')}")
if doc.get("divergences", -1) != 0:
    sys.exit(f"{sys.argv[1]}: crash/resume divergence detected: {doc.get('divergences')}")
if doc.get("crashes", 0) != doc.get("recoveries", -1):
    sys.exit(f"{sys.argv[1]}: not every crash recovered: "
             f"{doc.get('crashes')} crashes vs {doc.get('recoveries')} recoveries")
rows = doc.get("rows")
if not isinstance(rows, list) or not rows:
    sys.exit(f"{sys.argv[1]}: 'rows' must be a non-empty list")
for r in rows:
    if not r.get("crashed") or not r.get("recovered") or r.get("divergent"):
        sys.exit(f"{sys.argv[1]}: bad sweep row: {r}")
EOF
  else
    grep -q '"divergences": 0' "$path" && ! grep -q '"recovered": false' "$path"
  fi
  echo "    $path crash-recovery contract OK"
}
check_crash_recovery

# Supervision contract: the same bench also sweeps the watchdog plane. The
# supervised run must never lose goodput to an idle supervisor (rate 0 is
# bit-identical), must recover goodput at at least one hang rate, and the
# combined hang+straggler+poison sample must show hangs caught and poison
# quarantined.
check_supervision() {
  local path="bench_outputs/resilience_supervised.json"
  if [[ ! -s "$path" ]]; then
    echo "bench_smoke: bench_resilience did not write $path" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = doc.get("samples")
if not isinstance(rows, list) or not rows:
    sys.exit(f"{sys.argv[1]}: 'samples' must be a non-empty list")
sweep = [r for r in rows if not r.get("combined")]
combined = [r for r in rows if r.get("combined")]
idle = [r for r in sweep if r["hang_rate_per_h"] == 0.0]
if not idle or idle[0]["supervised_cg_total_us"] != idle[0]["unsupervised_cg_total_us"]:
    sys.exit(f"{sys.argv[1]}: idle supervisor must not change goodput")
if not any(r["supervised_cg_total_us"] > r["unsupervised_cg_total_us"]
           for r in sweep if r["hang_rate_per_h"] > 0.0):
    sys.exit(f"{sys.argv[1]}: watchdog never recovered goodput")
if any(r["supervised_cg_total_us"] < 0.8 * r["unsupervised_cg_total_us"]
       for r in sweep):
    sys.exit(f"{sys.argv[1]}: supervision cost exceeds 20% somewhere")
if not combined:
    sys.exit(f"{sys.argv[1]}: missing combined hang+straggler+poison sample")
c = combined[0]
if c.get("hangs_detected", 0) <= 0 or c.get("quarantined", 0) <= 0:
    sys.exit(f"{sys.argv[1]}: combined sample caught no hangs or poison: {c}")
EOF
  else
    grep -q '"hangs_detected"' "$path" && grep -q '"combined"' "$path"
  fi
  echo "    $path supervision contract OK"
}
check_supervision

# Telemetry contract: fig5 writes the campaign telemetry series plus a Chrome
# trace; fig7 writes the KV telemetry series. Validate both shapes beyond the
# plain "bench" key — snapshots/final structure and trace-event required keys.
check_telemetry() {
  local path="$1"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("bench", "snapshots", "final"):
    if key not in doc:
        sys.exit(f"{sys.argv[1]}: missing '{key}' key")
if not isinstance(doc["snapshots"], list) or not doc["snapshots"]:
    sys.exit(f"{sys.argv[1]}: 'snapshots' must be a non-empty list")
for snap in doc["snapshots"] + [doc["final"]]:
    for key in ("time", "counters", "gauges", "histograms"):
        if key not in snap:
            sys.exit(f"{sys.argv[1]}: snapshot missing '{key}'")
EOF
  else
    grep -q '"snapshots"' "$path" && grep -q '"final"' "$path"
  fi
  echo "    $path telemetry OK"
}

check_chrome_trace() {
  local path="$1"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc.get("traceEvents")
if not isinstance(events, list) or not events:
    sys.exit(f"{sys.argv[1]}: 'traceEvents' must be a non-empty list")
for ev in events:
    for key in ("name", "ph", "pid", "tid", "ts"):
        if key not in ev:
            sys.exit(f"{sys.argv[1]}: event missing '{key}': {ev}")
    if ev["ph"] == "X" and "dur" not in ev:
        sys.exit(f"{sys.argv[1]}: complete event missing 'dur': {ev}")
EOF
  else
    grep -q '"traceEvents"' "$path" && grep -q '"ph"' "$path"
  fi
  echo "    $path chrome trace OK"
}

rm -f bench_outputs/trace_fig5.json
run_bench bench_fig5_occupancy telemetry.json --small
check_telemetry bench_outputs/telemetry.json
check_chrome_trace bench_outputs/trace_fig5.json
run_bench bench_fig7_kv_feedback telemetry_kv.json
check_telemetry bench_outputs/telemetry_kv.json

# Batched collect+tag contract: the pipelined path must be byte-identical to
# the per-key loop and at least 3x faster in model time on every row.
check_fig7_batched() {
  local path="bench_outputs/fig7_batched.json"
  if [[ ! -s "$path" ]]; then
    echo "bench_smoke: bench_fig7_kv_feedback did not write $path" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = doc.get("rows")
if not isinstance(rows, list) or not rows:
    sys.exit(f"{sys.argv[1]}: 'rows' must be a non-empty list")
for r in rows:
    if not r.get("identical"):
        sys.exit(f"{sys.argv[1]}: batched results diverged: {r}")
    if r.get("speedup", 0.0) < 3.0:
        sys.exit(f"{sys.argv[1]}: batched speedup below 3x: {r}")
EOF
  else
    grep -q '"identical": true' "$path" && ! grep -q '"identical": false' "$path"
  fi
  echo "    $path batched contract OK"
}
check_fig7_batched

# Concurrency sweep: the deterministic shared-lock model must show read
# throughput monotone in the thread count through 4 threads on every shard
# configuration (wall numbers are host-dependent and only checked positive).
run_bench bench_kv_concurrency kv_concurrency.json --small
check_kv_concurrency() {
  local path="bench_outputs/kv_concurrency.json"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = doc.get("rows")
if not isinstance(rows, list) or not rows:
    sys.exit(f"{sys.argv[1]}: 'rows' must be a non-empty list")
by_shards = {}
for r in rows:
    if r.get("wall_ops_per_s", 0.0) <= 0.0:
        sys.exit(f"{sys.argv[1]}: non-positive wall throughput: {r}")
    by_shards.setdefault(r["shards"], []).append(r)
for shards, group in by_shards.items():
    group.sort(key=lambda r: r["threads"])
    upto4 = [r for r in group if r["threads"] <= 4]
    shared = [r["virtual_shared_ops_per_s"] for r in upto4]
    if shared != sorted(shared) or len(set(shared)) != len(shared):
        sys.exit(f"{sys.argv[1]}: shared-lock ops/s not strictly "
                 f"increasing through 4 threads at {shards} shards: {shared}")
EOF
  else
    grep -q '"virtual_shared_ops_per_s"' "$path"
  fi
  echo "    $path concurrency contract OK"
}
check_kv_concurrency

# MD force-engine contract: the thread sweep must produce bit-identical
# forces/energy at every pool size (rows carry an "identical" flag computed
# against the serial reference) and wall throughput must be positive. Rows
# carry the measured speedup against the 1-thread row; at --small it swings
# between about 1x and 3x from run to run on a shared 4-CPU host, so no floor
# is checked.
run_bench bench_micro_kernels md_kernels.json --md-kernels --small
check_md_kernels() {
  local path="bench_outputs/md_kernels.json"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = doc.get("rows")
if not isinstance(rows, list) or not rows:
    sys.exit(f"{sys.argv[1]}: 'rows' must be a non-empty list")
threads = sorted(r["threads"] for r in rows)
if threads != [1, 2, 4, 8]:
    sys.exit(f"{sys.argv[1]}: expected a 1/2/4/8 thread sweep, got {threads}")
for r in rows:
    if not r.get("identical"):
        sys.exit(f"{sys.argv[1]}: forces diverged from serial: {r}")
    if r.get("wall_pairs_per_s", 0.0) <= 0.0:
        sys.exit(f"{sys.argv[1]}: non-positive wall throughput: {r}")
EOF
  else
    grep -q '"identical": true' "$path" && ! grep -q '"identical": false' "$path"
  fi
  echo "    $path md kernel contract OK"
}
check_md_kernels

# Continuum engine contract: the DDFT thread sweep must produce serialized
# frames byte-identical at every pool size (rows carry the frame fingerprint;
# EnginePins.ContinuumBenchSmallFrame pins the --small frame) and wall
# throughput must be positive. Rows carry the measured speedup against the
# 1-thread row; at --small it swings between about 1x and 2.5x from run to
# run on a shared 4-CPU host, so no floor is checked.
run_bench bench_continuum continuum_kernels.json --small
check_continuum_kernels() {
  local path="bench_outputs/continuum_kernels.json"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = doc.get("rows")
if not isinstance(rows, list) or not rows:
    sys.exit(f"{sys.argv[1]}: 'rows' must be a non-empty list")
threads = sorted(r["threads"] for r in rows)
if threads != [1, 2, 4, 8]:
    sys.exit(f"{sys.argv[1]}: expected a 1/2/4/8 thread sweep, got {threads}")
serial_fp = [r for r in rows if r["threads"] == 1][0].get("fingerprint")
if not serial_fp:
    sys.exit(f"{sys.argv[1]}: 1-thread row has no fingerprint")
for r in rows:
    if not r.get("identical"):
        sys.exit(f"{sys.argv[1]}: frame diverged from 1 thread: {r}")
    if r.get("fingerprint") != serial_fp:
        sys.exit(f"{sys.argv[1]}: fingerprint differs from 1 thread: {r}")
    if r.get("wall_cells_per_s", 0.0) <= 0.0:
        sys.exit(f"{sys.argv[1]}: non-positive wall throughput: {r}")
EOF
  else
    grep -q '"identical": true' "$path" && ! grep -q '"identical": false' "$path"
  fi
  echo "    $path continuum kernel contract OK"
}
check_continuum_kernels

# Campaign maintain-tick contract: the in-situ thread sweep must produce a
# byte-identical science fingerprint at every pool size (rows carry the
# fingerprint and an "identical" flag against the serial run). Rows carry the
# measured speedup (fastest of 5 reps) against the 1-thread row; at --small
# its 4-thread value swings between about 1.3x and 1.8x from run to run on a
# shared 4-CPU host, so no floor is checked.
run_bench bench_campaign_parallel campaign_parallel.json --small
check_campaign_parallel() {
  local path="bench_outputs/campaign_parallel.json"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$path" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = doc.get("rows")
if not isinstance(rows, list) or not rows:
    sys.exit(f"{sys.argv[1]}: 'rows' must be a non-empty list")
threads = sorted(r["threads"] for r in rows)
if threads != [1, 2, 4, 8]:
    sys.exit(f"{sys.argv[1]}: expected a 1/2/4/8 thread sweep, got {threads}")
fingerprints = {r.get("fingerprint") for r in rows}
if len(fingerprints) != 1 or not fingerprints.pop():
    sys.exit(f"{sys.argv[1]}: fingerprints not identical across pool sizes")
for r in rows:
    if not r.get("identical"):
        sys.exit(f"{sys.argv[1]}: fingerprint diverged from serial: {r}")
if doc.get("analysis_frames", 0) <= 0:
    sys.exit(f"{sys.argv[1]}: no frames analyzed")
EOF
  else
    grep -q '"identical": true' "$path" && ! grep -q '"identical": false' "$path"
  fi
  echo "    $path campaign tick contract OK"
}
check_campaign_parallel

echo "=== bench smoke: PASS ==="
