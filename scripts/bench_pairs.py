#!/usr/bin/env python3
"""Before/after benchmark pairs: a parent revision against the working tree.

    python3 scripts/bench_pairs.py --parent <rev> --workload <name> [--pairs N]
        [--seed S] [--seconds T] [--trace 0|1] [--out pairs.json]

Run from the root of the source tree. Exports <rev> with `git archive` into
.bench_build/parent-<sha>/ (once; perfbench builds its own Release tree inside
it), then runs `perfbench/run.py` on the parent copy and on the working tree,
one after the other, for N pairs. The side that runs first alternates from
pair to pair, so drift on a shared host does not favour either side. Prints
each run's --claim metric (default wall_s) and, per metric, the median and
quartiles of each side plus in how many pairs the working tree read better on
--claim, in the direction BENCHMARK.json declares for it. A run that does not
report --claim (traced runs report no wall_s) stops the series at once. With
--out, writes every run's result and meta lines as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_ROOT = ROOT / ".bench_build"


def export_parent(rev):
    """Extracts `rev` under .bench_build/ and returns (directory, full sha)."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    tree = BENCH_ROOT / ("parent-" + sha[:12])
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryFile() as archive:
            subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                           check=True, stdout=archive)
            archive.seek(0)
            with tarfile.open(fileobj=archive) as tar:
                tar.extractall(tree)
    return tree, sha


def better_direction(name):
    """`better` ("lower" or "higher") for a metric declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["better"]
    raise SystemExit(f"bench_pairs: --claim {name} is not a metric declared "
                     "in BENCHMARK.json")


def value(result, name):
    """A metric's value from a perfbench result line, or None if absent."""
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def run_once(tree, args):
    """One perfbench run in `tree`; returns (result dict, meta dict or None)."""
    env = dict(os.environ)
    # The exported parent has no .git of its own; stop git from reporting the
    # enclosing checkout's revision as the parent's.
    env["GIT_CEILING_DIRECTORIES"] = str(BENCH_ROOT)
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: perfbench failed in {tree}")
    meta = None
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
    return json.loads(lines[-1]), meta


def quartiles(values):
    if not values:
        return None, None
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--claim", default="wall_s",
                    help="metric whose pair wins are counted")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    better = better_direction(args.claim)

    parent_tree, parent_sha = export_parent(args.parent)
    sides = {"parent": parent_tree, "change": ROOT}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, meta = run_once(sides[side], args)
            runs[side].append({"pair": i, "first": side == order[0],
                               "result": result, "meta": meta})
            claimed = value(result, args.claim)
            if claimed is None:
                raise SystemExit(
                    f"bench_pairs: the {side} run reports no {args.claim}; "
                    "it reports " + ", ".join(sorted(result["metrics"])))
            print(f"pair {i} {side:6s} {args.claim}={claimed} "
                  f"correct={result['correct']} failed={result['failed']}",
                  flush=True)

    metrics = sorted(set().union(*(r["result"]["metrics"]
                                   for side in runs.values() for r in side)))
    summary = {}
    print(f"\n{'metric':28s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s}")
    for name in metrics:
        row = {}
        for side in ("parent", "change"):
            values = [value(r["result"], name) for r in runs[side]
                      if name in r["result"]["metrics"]]
            q1, q3 = quartiles(values)
            row[side] = {"median": statistics.median(values) if values
                         else None, "q1": q1, "q3": q3}
        summary[name] = row
        # A metric only one side reports reads "-" on the other.
        cells = [f"{row[s]['median']:.6g} [{row[s]['q1']:.6g}, "
                 f"{row[s]['q3']:.6g}]" if row[s]["median"] is not None
                 else "-" for s in ("parent", "change")]
        print(f"{name:28s} {cells[0]:>32s} {cells[1]:>32s}")
    claim = args.claim
    pairs = [(value(p["result"], claim), value(c["result"], claim))
             for p, c in zip(runs["parent"], runs["change"])]
    wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
    print(f"\n{claim}: change {better} in {wins} of {len(pairs)} pairs")

    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "parent": parent_sha, "claim": claim, "better": better,
            "wins": wins,
            "pairs": len(pairs), "summary": summary, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
