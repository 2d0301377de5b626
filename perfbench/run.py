#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Builds the program and the benchmark
runner from source in Release (perfbench/CMakeLists.txt, build tree under
.bench_build/), then runs one workload and relays the runner's output; the
last stdout line is the JSON result. Build output goes to stderr. Exits
non-zero without a result when the sources are missing or the build fails.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign_insitu", "campaign_resilient", "three_scale")
RUN_TIMEOUT_S = 170


def source_rev():
    """Git revision when run from a clone, else a hash of the program sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def build(build_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one tree
        if not (build_dir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return None
        cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
               "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no program sources next to perfbench/", file=sys.stderr)
        return 1
    bench_root = ROOT / ".bench_build"
    binary = build(bench_root / "perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(bench_root / "out"),
           "--pins", str(HERE / "fingerprints.txt"), "--rev", source_rev()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
