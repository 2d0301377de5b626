#!/usr/bin/env python3
"""Regenerates perfbench/fingerprints.txt: the science fingerprint of one pass
of every workload for seeds 0..N-1 (default 64).

    python3 perfbench/pin.py [--seeds N]

Run from the root of the source tree after a change that is meant to alter
results, and commit the new file with that change.
"""
import argparse
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, build


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=64)
    args = ap.parse_args()
    binary = build(ROOT / ".bench_build" / "perfbench")
    if binary is None:
        return 1
    lines = ["# workload seed fnv1a(science fingerprint); "
             "regenerate with python3 perfbench/pin.py"]
    for workload in WORKLOADS:
        for seed in range(args.seeds):
            out = subprocess.run(
                [str(binary), "--workload", workload, "--seed", str(seed),
                 "--pin", "1", "--out-dir", str(ROOT / ".bench_build" / "out")],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines.append(out.stdout.strip().splitlines()[-1])
            print(lines[-1], file=sys.stderr)
    (HERE / "fingerprints.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
