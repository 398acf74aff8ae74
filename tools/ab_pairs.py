"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/ab_pairs.py --parent DIR [--change DIR] --workload W
                              [--seed N] [--pairs P]

Each pair runs `benchmarks/child.py setup` and `benchmarks/child.py run`
once on the parent checkout and once on the change (the current directory
by default; either may be a `git worktree` or an unpacked `git archive`),
in fresh processes, the side that goes first alternating from pair to pair
so that a drift of the host's speed favours neither.  Each checkout runs
its own benchmarks/ and src/.  Metrics are those of benchmarks/run.py, on
the reference host: wall_s, query_p50_ms, query_p90_ms and peak_rss_mb of
the run, and setup_s of one set-up (run.py takes the median of five).

Every run is printed, then per metric each side's median, the parent's
interquartile range and the number of pairs the change won (lower is
better for every metric), and two verdicts:
- gain: a gain is claimed only when the change wins at least nine pairs
  in ten and the gap between the medians exceeds the parent's IQR;
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
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_SEED = 20260823  # the seed of the frozen references (benchmarks/run.py)
METRICS = ("wall_s", "query_p50_ms", "query_p90_ms", "setup_s", "peak_rss_mb")


def _child(root: Path, role: str, workload: str, seed: int, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "child.py"), role, "--workload", workload,
         "--seed", str(seed), *extra],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: child.py {role} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, workload: str, seed: int, refs: str, work: Path) -> dict:
    """One set-up and one run of the batch on a checkout: its metrics, and
    the number of failed queries as "failed"."""
    setup = _child(root, "setup", workload, seed, "--workdir", str(work / "setup"))
    res = _child(root, "run", workload, seed, "--workdir", str(work / "run"), "--refs", refs)
    ms = sorted(x * 1000 for x in res["ref_latencies"])
    return {
        "wall_s": res["ref_wall_s"],
        "query_p50_ms": statistics.median(ms),
        "query_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "setup_s": setup["ref_setup_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "failed": len(res["failures"]),
    }


def iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def bounds() -> dict:
    """The end-to-end bound of each metric in BENCHMARK.json, a share of the
    parent's median."""
    text = (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    return {m["name"]: m["bound"] for m in json.loads(text)["end_to_end"]}


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
                     wins * 10 >= 9 * len(a) and med_a - med_b > spread, verdict))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=Path.cwd(), help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=["lattice", "wide", "cli"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    bound = bounds()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "benchmarks" / "child.py").is_file():
            ap.error(f"{root} has no benchmarks/child.py")

    work = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    runs = {"parent": [], "change": []}
    try:
        refs = {}
        for side, root in sides.items():
            if args.seed == DEFAULT_SEED:
                refs[side] = "frozen"
            else:
                refs[side] = str(work / f"refs-{side}.json")
                _child(root, "refs", args.workload, args.seed, "--out", refs[side])
        print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
        print("pair side    " + " ".join(f"{name:>13s}" for name in METRICS) + "  failed")
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = measure(sides[side], args.workload, args.seed, refs[side],
                              work / f"{side}-{i}")
                runs[side].append(run)
                print(f"{i:4d} {side:7s} " + " ".join(f"{run[m]:13.6g}" for m in METRICS)
                      + f"  {run['failed']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

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
