"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_pairs.py --parent DIR [--change DIR] --workload W
                              [--seed N] [--pairs P]

Each pair runs the command that BENCHMARK.json names, `benchmarks/run.py
--workload W` (with `--seed N` only when given, so run.py's default seed
and frozen answers otherwise), under this interpreter, once in the parent
checkout and once in the change (the current directory by default; either
may be a `git worktree` or an unpacked `git archive`), the side that goes
first alternating from pair to pair so that a drift of the host's speed
favours neither.  Each checkout runs its own benchmarks/ and src/; the
metrics are BENCHMARK.json's end-to-end ones, read from run.py's last line.

Every run is printed, then per metric each side's median, the parent's
interquartile range and the number of pairs the change won (lower is
better for every metric), and two verdicts:
- gain: a gain is claimed only over at least ten pairs, when the change
  wins at least nine pairs in ten and the gap between the medians exceeds
  the parent's IQR, so a short smoke run never claims one;
- regression, against the metric's end-to-end bound in BENCHMARK.json
  (a share of the parent's median): "worse" when the change's median
  exceeds the parent's by more than the bound; else "unresolved" when the
  parent's IQR exceeds the bound, unless every run of the change reads
  better than every run of the parent; else "ok".
Exits 1 when a query failed on either side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, *SPEC["command"][1:]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = tuple(m["name"] for m in SPEC["end_to_end"])


def measure(root: Path, workload: str, seed: int | None) -> dict:
    """One run of the benchmark on a checkout: its end-to-end metrics, and
    the number of failed queries as "failed"."""
    cmd = [*COMMAND, "--workload", workload, *([] if seed is None else ["--seed", str(seed)])]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode in (0, 1):  # 1: a query failed, and run.py still prints its metrics
        try:
            res = json.loads(proc.stdout.splitlines()[-1])
            return {**{name: res["metrics"][name]["value"] for name in METRICS},
                    "failed": res["failed"]}
        except (ValueError, LookupError):
            pass
    raise SystemExit(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode} without "
                     f"a readable last line:\n{proc.stderr[-2000:]}")


def iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def bounds() -> dict:
    """Each end-to-end metric's bound in BENCHMARK.json, a share of the parent's median."""
    return {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def summary(parent: list, change: list, bound: dict) -> list:
    """Per metric: (name, parent median, change median, parent IQR, wins,
    whether the change's gain holds, the regression verdict against
    bound[name]: "ok", "worse" or "unresolved")."""
    rows = []
    for name in METRICS:
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        wins = sum(y < x for x, y in zip(a, b))
        med_a, med_b, spread = statistics.median(a), statistics.median(b), iqr(a)
        if med_b - med_a > bound[name] * med_a:
            verdict = "worse"
        elif spread > bound[name] * med_a and max(b) >= min(a):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append((name, med_a, med_b, spread, wins,
                     len(a) >= 10 and wins * 10 >= 9 * len(a) and med_a - med_b > spread,
                     verdict))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=Path.cwd(), help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="default: run.py's own, that of its frozen answers")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    bound = bounds()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / COMMAND[1]).is_file():
            ap.error(f"{root} has no {COMMAND[1]}")

    runs = {"parent": [], "change": []}
    seed = "run.py's default" if args.seed is None else args.seed
    print(f"workload {args.workload}, seed {seed}, {args.pairs} pairs")
    print("pair side    " + " ".join(f"{name:>13s}" for name in METRICS) + "  failed")
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = measure(sides[side], args.workload, args.seed)
            runs[side].append(run)
            print(f"{i:4d} {side:7s} " + " ".join(f"{run[m]:13.6g}" for m in METRICS)
                  + f"  {run['failed']}", flush=True)

    print(f"\n{'metric':14s} {'parent':>11s} {'change':>11s} {'change':>8s} "
          f"{'parent IQR':>11s} {'wins':>6s}  gain holds  {'bound':>6s}  regression")
    for name, a, b, spread, wins, holds, verdict in summary(runs["parent"], runs["change"],
                                                            bound):
        print(f"{name:14s} {a:11.6g} {b:11.6g} {100 * (b - a) / a:+7.1f}% {spread:11.6g} "
              f"{wins:3d}/{args.pairs:<2d}  {'yes' if holds else 'no':10s}  "
              f"{100 * bound[name]:5.0f}%  {verdict}")
    return 1 if any(run["failed"] for side in runs.values() for run in side) else 0


if __name__ == "__main__":
    sys.exit(main())
