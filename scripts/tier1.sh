#!/usr/bin/env bash
# Tier-1 gate: a check that every src/ header is reached by a program, the
# full build + test cycle, the floating-point contract tests on a
# -march=native build, then the whole suite again under ASan+UBSan, and the
# concurrent KV / feedback / pool fan-out paths under TSan.
#
# Usage: scripts/tier1.sh [--no-sanitize] [--bench] [-L <label>]
#   --bench additionally runs scripts/bench_smoke.sh (reduced-scale JSON
#   benches with output validation) after the test stage.
#   -L <label> restricts the ctest stage to one taxonomy stage (unit,
#   property, integration, contract — see TESTING.md); repeatable.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
no_sanitize=0
bench=0
label_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --no-sanitize) no_sanitize=1; shift ;;
    --bench) bench=1; shift ;;
    -L)
      [[ $# -ge 2 ]] || { echo "-L requires a label" >&2; exit 2; }
      label_args+=(-L "$2"); shift 2 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

echo "=== tier 1: every src/ header is reached by a program ==="
# src/ holds only what a program runs. A header counts as reached when a file
# in src/ (other than its own .cpp), bench/, perfbench/ or examples/ includes
# it; code reached only from tests/ belongs in tests/.
unreached=()
while IFS= read -r header; do
  rel=${header#src/}
  # No `grep -q` here: it would close the pipe early, and pipefail would
  # turn the first grep's SIGPIPE into a false "unreached".
  users=$(grep -rl --include='*.cpp' --include='*.hpp' -F "\"$rel\"" \
            src bench perfbench examples |
          grep -vxF "src/${rel%.hpp}.cpp" || true)
  [[ -z "$users" ]] && unreached+=("$rel")
done < <(find src -name '*.hpp' | sort)
if [[ ${#unreached[@]} -gt 0 ]]; then
  printf 'UNREACHED %s\n' "${unreached[@]}" >&2
  echo "tier 1: FAIL (headers no program includes; delete them or move them to tests/)" >&2
  exit 1
fi

echo "=== tier 1: regular build + ctest ${label_args[*]:-(all stages)} ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest_log=$(mktemp)
ctest --test-dir build --output-on-failure -j "$jobs" \
  ${label_args[@]+"${label_args[@]}"} | tee "$ctest_log"

echo "=== tier 1: slowest 10 tests ==="
# The last stage reads all of sort's output: `head` would exit early and,
# under pipefail, sort's SIGPIPE would fail the gate at random.
awk '/ Test +#[0-9]+:/ && / sec$/ {
       for (i = 1; i <= NF; i++) if ($i == "sec") t = $(i - 1);
       print t, $4
     }' "$ctest_log" | sort -rn | awk 'NR <= 10'
rm -f "$ctest_log"

if [[ "$bench" == 1 ]]; then
  echo "=== tier 1: bench smoke (reduced scale, JSON validated) ==="
  scripts/bench_smoke.sh build
fi

echo "=== tier 1: -march=native build, floating-point contract tests ==="
# The determinism contracts compare bytes, so they must survive an ISA level
# with FMA: mummi_util pins -ffp-contract=off for everything built on src/,
# and this stage proves it by running the golden corpus, the engine byte pins
# and the exact-reproduction tests on the host's full ISA. The FPS
# equivalence suite holds the sampler's vectorized rank fold to the scalar
# reference's dist2 bit for bit. Box::min_image computes
# length * round_away(d / length), a product FMA could contract into the
# subtraction: the round_away and RDF suites and the in-situ sweeps (exact
# block RDF sums) run here too.
cmake -B build-native -S . -DCMAKE_CXX_FLAGS=-march=native >/dev/null
cmake --build build-native -j "$jobs" --target mummi_tests
./build-native/tests/mummi_tests \
  --gtest_filter='GoldenFingerprintContract.*:EnginePins.*:*EngineFrameMatchesPin*:*NanFieldsFreezeProteinsInsideBox*:*FpsEquivalence*:*InSitu*:RoundAway.*:Rdf.*'

if [[ "$no_sanitize" == 1 ]]; then
  echo "=== tier 1: PASS (sanitizer stage skipped) ==="
  exit 0
fi

echo "=== tier 1: ASan+UBSan build, whole suite ==="
# UBSan is built with -fno-sanitize-recover=all: the first report fails the
# run. The whole suite takes seconds here; the fault, crash-point sweep and
# hostile-input tests (SimulatedCrash thrown through half-finished I/O
# stacks, forged snapshot bytes) are where use-after-scope and UB hide.
cmake -B build-asan -S . -DMUMMI_SANITIZE="address;undefined" >/dev/null
cmake --build build-asan -j "$jobs" --target mummi_tests
./build-asan/tests/mummi_tests

echo "=== tier 1: TSan build, concurrent KV + feedback tests ==="
# Concurrent clients read the shards under shared locks (scans and mgets
# walk the shards serially on the caller) and write under exclusive ones:
# the code that races if anything does; run it under ThreadSanitizer.
cmake -B build-tsan -S . -DMUMMI_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs" --target mummi_tests
./build-tsan/tests/mummi_tests \
  --gtest_filter='*KvCluster*:*KvBatch*:*SharedLock*:*Aa2Cg*:*Cg2Cont*'

echo "=== tier 1: TSan build, supervision plane tests ==="
# The supervision plane (watchdog ticks, quarantine ledger, node health,
# campaign-level supervision) mutates scheduler state from timer callbacks;
# reuse the TSan build to prove those paths are race-free too.
./build-tsan/tests/mummi_tests \
  --gtest_filter='*Watchdog*:*Specul*:*Quarantine*:*NodeHealth*:*Supervis*'

echo "=== tier 1: TSan build, threaded MD engine tests ==="
# The MD force engine scatters into per-block buffers from pool workers and
# folds them on the caller; the neighbor build fills CSR rows the same way.
# The determinism suite drives those paths at 2 and 8 workers — any cross-
# block write or unsynchronized scratch access shows up here.
./build-tsan/tests/mummi_tests \
  --gtest_filter='*ParallelMd*:*NveDrift*'

echo "=== tier 1: TSan build, threaded continuum engine tests ==="
# The continuum engine runs the same scatter-into-block-buffers / fold-on-
# caller discipline over DDFT stencil rows and protein blocks; its
# determinism suite drives 2- and 8-worker pools against the serial
# reference, so any cross-block write or racy scratch reuse trips here.
./build-tsan/tests/mummi_tests \
  --gtest_filter='*ParallelContinuum*'

echo "=== tier 1: TSan build, blocked-parallel primitive + campaign tick ==="
# util::for_blocks(_ordered) and util::BlockScratch are the one layer every
# engine fans out through; their own suites (block handoff, exception
# wait-out, scratch fold, block-size rule, null pool stays serial) run here
# first, then the farthest-point rank refresh on 2- and 4-worker pools
# against the serial reference. The campaign maintain tick then
# steps and analyzes each block of sims on the pool into per-block scratch
# systems, per-sim result slots and per-block RDF partials, while the caller
# folds finished blocks in order; the determinism suites drive 2/3/4/8-worker
# pools against the serial reference, so a racy block handoff or early fold
# trips here. Snapshot synthesis draws each block on the
# caller (prepare) while workers transform the blocks before it; the
# ForBlocksOrdered.Prepare* and ParallelCampaign.SnapshotSynthesis* cases
# drive that handoff.
./build-tsan/tests/mummi_tests \
  --gtest_filter='*ForBlocks*:*BlockScratch*:*BlockSize*:*EnvSharedPool*:*FpsPool*:*InSitu*:*ParallelCampaign*'

echo "=== tier 1: PASS ==="
