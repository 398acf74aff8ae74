"""Benchmark of multipoint against the checked-out src/ tree.

Run from the repository root:

    python3 benchmarks/run.py --workload lattice|wide|cli [--seed N]
                              [--seconds S] [--trace 0|1]
    python3 benchmarks/run.py --self-check
    python3 benchmarks/run.py --freeze

Workloads are described in workloads.py.  Every query's answer is checked
against an independent reference (reference.py): frozen for the default
seed, computed before timing for any other seed.  The command prints every
metric with its unit, then one JSON line, and exits 1 when a query failed.

--trace 0 reports the end-to-end metrics:
    wall_s        wall time of the workload's fixed query batch
    query_p50_ms  median query latency
    query_p90_ms  90th percentile query latency (>= 100 queries per run)
    setup_s       median over 5 fresh processes of import plus set-up
    peak_rss_mb   ru_maxrss of the measuring process (for cli: of the
                  largest CLI subprocess)
The four times are given on the reference host: each stretch of about
0.05 s of queries, and each set-up, is timed and divided by the host's
slowness measured just before and after it by a fixed calibration loop
(hostspeed.py).  The machines this runs on share their cores, and their
speed drifts by up to a half within a minute; the calibration takes most
of that drift out.  The raw times follow on a line of their own.
The error rate, failed / attempted, is printed and carried by the JSON
fields "failed" and "attempted".

--trace 1 reports the per-layer metrics.  It runs the batch untraced and
then traced, each in a fresh process; the traced one wraps each layer's
public functions from outside (tracing.py), and its totals cover its
set-up, batch and CLI sample.  The untraced process gives the base of
bench.trace_overhead_share (on the reference host) and cli.main_s.
cli.interp_s and cli.import_s time a bare interpreter and `import
multipoint.cli` in fresh processes; cli.main_s is the median in-process
cli.main time over the CLI form of the workload's queries (all of them
for cli, a sample of 12 otherwise).  The per-layer times are raw, as
timed on the host.

The batch is fixed per workload and seed; --seconds is the time it is
sized for, and a run whose batch takes more than twice that says so.

Each query batch runs in fresh processes, so the library's lazy caches
start empty as they do for a user.  Inputs go to .bench_work/ under the
current directory, which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 20260823  # the seed of the frozen references (workloads.DEFAULT_SEED)
SETUP_REPEATS = 5
PROBE_REPEATS = 5
DEADLINE_S = 170


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + DEADLINE_S

    def _python(self, args, **kwargs) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=remaining, **kwargs)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {args[:3]}") from None
        if proc.returncode != 0:
            raise BenchError(f"{args[:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc

    def child(self, role: str, *extra: str) -> dict:
        proc = self._python([str(HERE / "child.py"), role, "--workload", self.workload,
                             "--seed", str(self.seed), *extra])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def references(self) -> str:
        if self.seed == DEFAULT_SEED:
            return "frozen"
        path = self.work / "refs.json"
        self.child("refs", "--out", str(path))
        return str(path)

    def setup_s(self) -> tuple:
        """Median set-up time over fresh processes: on the reference host, raw."""
        runs = [self.child("setup", "--workdir", str(self.work / f"setup{i}"))
                for i in range(SETUP_REPEATS)]
        return (statistics.median(r["ref_setup_s"] for r in runs),
                statistics.median(r["setup_s"] for r in runs))

    def run(self, refs: str, *extra: str) -> dict:
        return self.child("run", "--workdir", str(self.work / "run"), "--refs", refs, *extra)

    def probe(self, code: str, timed_inside: bool) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            proc = self._python(["-c", code])
            elapsed = time.perf_counter() - t0
            times.append(float(proc.stdout) if timed_inside else elapsed)
        return statistics.median(times)


def _p50_p90_ms(latencies) -> tuple:
    ms = sorted(x * 1000 for x in latencies)
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def end_to_end(runner: Runner, refs: str) -> tuple:
    res = runner.run(refs)
    p50, p90 = _p50_p90_ms(res["ref_latencies"])
    setup, raw_setup = runner.setup_s()
    metrics = {
        "wall_s": res["ref_wall_s"],
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "setup_s": setup,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw_p50, raw_p90 = _p50_p90_ms(res["latencies"])
    raw = (f"raw, as timed on this host: wall_s {res['wall_s']:.6g}, "
           f"query_p50_ms {raw_p50:.6g}, query_p90_ms {raw_p90:.6g}, setup_s {raw_setup:.6g}")
    return metrics, res["attempted"], res["failures"], res["wall_s"], raw


def per_layer(runner: Runner, refs: str) -> tuple:
    plain = runner.run(refs, "--cli-sample")
    traced = runner.run(refs, "--traced", str(runner.work / "trace.json"))
    metrics = traced["layers"]
    metrics["cli.interp_s"] = runner.probe("pass", timed_inside=False)
    metrics["cli.import_s"] = runner.probe(
        "import time; t = time.perf_counter(); import multipoint.cli; "
        "print(time.perf_counter() - t)", timed_inside=True)
    metrics["cli.main_s"] = plain["cli_main_s"]
    # on the reference host, so that host drift between the two processes cancels
    base = plain["cli_sample_ref_wall_s"] if runner.workload == "cli" else plain["ref_wall_s"]
    metrics["bench.trace_overhead_share"] = traced["ref_wall_s"] / base - 1
    attempted = plain["attempted"] + traced["attempted"]
    return metrics, attempted, plain["failures"] + traced["failures"], plain["wall_s"], None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="regenerate the frozen references and compare")
    ap.add_argument("--freeze", action="store_true",
                    help="rewrite the frozen references for the default seed")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "multipoint" / "__init__.py").is_file():
        print("error: run from the repository root; src/multipoint is missing", file=sys.stderr)
        return 2
    if args.self_check or args.freeze:
        sys.path[:0] = [str(root / "src"), str(HERE)]
        import reference
        if args.freeze:
            reference.write_frozen()
        problems = reference.self_check()
        for p in problems:
            print(f"FAIL: {p}")
        print("self-check ok" if not problems else f"self-check: {len(problems)} problems")
        return 1 if problems else 0
    if args.workload is None:
        ap.error("--workload is required")

    runner = Runner(root, args.workload, args.seed)
    try:
        refs = runner.references()
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures, wall, raw = measure(runner, refs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    if wall > 2 * args.seconds:
        print(f"note: the batch took {wall:.1f} s, over twice --seconds {args.seconds}",
              file=sys.stderr)
    section = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'error_rate':32s} {len(failures) / attempted:.6g} share "
          f"({len(failures)} of {attempted})")
    if raw:
        print(f"  ({raw})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
