#!/usr/bin/env bash
# Program reach: which src/ functions does no program run?
#
# Builds src/, bench/ and examples/ with gcov instrumentation in Debug
# (--coverage -O1 -fno-inline), and perfbench/ with --coverage in Release
# (perfbench refuses any other build type). Then it runs every program once:
# each bench as scripts/bench_smoke.sh runs it (the rest with --small), the
# crash-point sweep, the google-benchmark kernels briefly, every example, and
# each perfbench workload for 3 s at seed 1 untraced. Finally it merges the
# `gcov -j` records of both trees and lists every src/ function that no run
# entered, as "<file>:<line> <function>".
#
# The tests are not programs: a function only tests call is listed. This is
# an on-demand check, not part of tier-1; a full run takes several minutes.
#
# Usage: scripts/program_reach.sh <build-dir>     (e.g. build-reach)
# Writes <build-dir>/main (Debug tree), <build-dir>/perfbench (Release tree),
# <build-dir>/run (program outputs) and <build-dir>/unreached.txt.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/program_reach.sh <build-dir>" >&2
  exit 2
fi
out="$(realpath -m "$1")"
main="$out/main"
perf="$out/perfbench"
run="$out/run"
jobs="$(nproc)"

benches=()
for f in bench/bench_*.cpp; do benches+=("$(basename "$f" .cpp)"); done
examples=()
for f in examples/*.cpp; do examples+=("$(basename "$f" .cpp)"); done

echo "--- build: Debug coverage tree $main ---"
cmake -S . -B "$main" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O1 -fno-inline" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$main" -j "$jobs" --target "${benches[@]}" "${examples[@]}" \
  >/dev/null
echo "--- build: Release coverage tree $perf ---"
cmake -S perfbench -B "$perf" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$perf" -j "$jobs" --target perfbench >/dev/null

# Counters accumulate across runs; start from zero.
find "$main" "$perf" -name '*.gcda' -delete
mkdir -p "$run"

# Programs write bench_outputs/ and scratch files relative to their working
# directory: run them under $run, not the source tree.
step() {
  echo "--- $* ---"
  (cd "$run" && "$@" >/dev/null)
}
for b in "${benches[@]}"; do
  case "$b" in
    bench_micro_kernels)
      step "$main/bench/$b" --md-kernels --small
      step "$main/bench/$b" --benchmark_min_time=0.01 ;;
    bench_resilience | bench_fig7_kv_feedback)
      step "$main/bench/$b" ;;
    *)
      step "$main/bench/$b" --small ;;
  esac
done
step "$main/bench/bench_resilience" --crash-sweep
for e in "${examples[@]}"; do step "$main/examples/$e"; done
for w in campaign_insitu campaign_resilient three_scale; do
  step "$perf/perfbench" --workload "$w" --seed 1 --seconds 3 --trace 0 \
    --out-dir "$run/perfbench" --pins "$root/perfbench/fingerprints.txt" \
    --rev reach
done

echo "--- merge gcov records ---"
records="$out/gcov"
rm -rf "$records"
mkdir -p "$records"
n=0
while IFS= read -r gcda; do
  n=$((n + 1))
  gcov -j -t -o "$(dirname "$gcda")" "$gcda" 2>/dev/null \
    >"$records/$n.json" || true
done < <(find "$main" "$perf" -name '*.gcda')

python3 - "$root/src" "$records" "$out/unreached.txt" <<'EOF'
import json, os, sys
src, records, report = sys.argv[1:4]
src = os.path.realpath(src) + os.sep
# (file, line) -> executions summed over every object and instantiation:
# a template counts as run when any of its instantiations ran.
counts = {}
names = {}
for name in os.listdir(records):
    with open(os.path.join(records, name)) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            cwd = doc.get("current_working_directory", "")
            for rec in doc.get("files", []):
                path = os.path.realpath(os.path.join(cwd, rec["file"]))
                if not path.startswith(src):
                    continue
                rel = "src/" + path[len(src):]
                for fn in rec.get("functions", []):
                    key = (rel, fn["start_line"])
                    counts[key] = counts.get(key, 0) + fn["execution_count"]
                    name = fn["demangled_name"]
                    if len(name) < len(names.get(key, name + " ")):
                        names[key] = name
unreached = sorted(k for k, c in counts.items() if c == 0)
with open(report, "w") as f:
    for rel, line in unreached:
        f.write(f"{rel}:{line} {names[(rel, line)]}\n")
print(f"{len(unreached)} of {len(counts)} src/ functions unreached; "
      f"list in {report}")
EOF
