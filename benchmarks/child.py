"""One fresh process of a benchmark run; run.py starts these.

    child.py setup --workload W --seed N --workdir DIR
        import plus set-up, timed from this process's first statement,
        raw and on the reference host (hostspeed.py).
    child.py refs --workload W --seed N --out FILE
        reference answers for a non-default seed (reference.py).
    child.py run --workload W --seed N --workdir DIR --refs FILE|frozen
                 [--traced FILE] [--cli-sample]
        set-up, then the query batch; answers are checked after timing.
        Times are reported raw and on the reference host (hostspeed.py).
        --cli-sample also runs a sample of the batch through cli.main in
        this process; --traced installs the layer wrappers (tracing.py) first and dumps
        the trace to FILE.

Each prints one JSON object as its last line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import slowness  # noqa: E402

CALIBRATE_EVERY_S = 0.05


def _batch(queries, answer, wrap=None):
    """Run the queries in order.  Returns the raw wall time, the answers,
    the raw latencies, and the wall time and latencies on the reference
    host (hostspeed.py): the queries are cut into stretches of about
    CALIBRATE_EVERY_S, each bracketed by calibrations, and a stretch's
    times are divided by the mean slowness of its two brackets.  The
    calibrations themselves are not counted in any time."""
    answers, latencies, ref_latencies = [], [], []
    wall = ref_wall = 0.0
    before = slowness()
    stretch, stretch_start = [], time.perf_counter()
    for i, q in enumerate(queries):
        t0 = time.perf_counter()
        try:
            out = wrap(answer, q) if wrap else answer(q)
        except Exception as exc:  # a failed query is counted, not fatal
            out = exc
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        answers.append(out)
        stretch.append(t1 - t0)
        if t1 - stretch_start >= CALIBRATE_EVERY_S or i == len(queries) - 1:
            after = slowness()
            factor = (before + after) / 2
            wall += t1 - stretch_start
            ref_wall += (t1 - stretch_start) / factor
            ref_latencies += [x / factor for x in stretch]
            before, stretch, stretch_start = after, [], time.perf_counter()
    return wall, answers, latencies, ref_wall, ref_latencies


def _failures(queries, answers, refs):
    bad = []
    for q, out in zip(queries, answers):
        if out != refs.get(q.qid):
            bad.append(f"{q.qid}: got {out!r:.120}, expected {refs.get(q.qid)!r:.120}")
    return bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=["setup", "refs", "run"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--refs")
    ap.add_argument("--traced", type=Path)
    ap.add_argument("--cli-sample", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()

    if args.role == "refs":
        from reference import compute_references
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(compute_references(args.workload, args.seed)))
        print(json.dumps({"ok": True}))
        return 0

    # set-up is bracketed by calibrations too; the first is not counted in it
    t = time.perf_counter()
    before = slowness()
    calibration_s = time.perf_counter() - t
    tracer = None
    if args.traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    inputs = workloads.setup(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - T0 - calibration_s
    if args.role == "setup":
        factor = (before + slowness()) / 2
        print(json.dumps({"setup_s": setup_s, "ref_setup_s": setup_s / factor}))
        return 0

    if args.refs == "frozen":
        from reference import load_frozen
        refs = load_frozen(args.workload)
    else:
        refs = json.loads(Path(args.refs).read_text())
    result = {"attempted": 0, "failures": []}

    def run_query(q):
        return workloads.run_query(inputs, q, root)

    def in_process(q):
        return workloads.run_cli_in_process(inputs, q)

    def record(name, queries, answers):
        result["attempted"] += len(queries)
        result["failures"] += [f"{name}: {b}" for b in _failures(queries, answers, refs)]

    wrap = tracer.span("bench.query", lambda fn, q: fn(q)) if tracer else None
    if tracer and args.workload == "cli":
        # subprocesses cannot be traced from here: the traced batch is the
        # same commands through cli.main in this process
        batch = _batch(inputs.queries, in_process, wrap)
    else:
        batch = _batch(inputs.queries, run_query, wrap)
    wall, answers, lat, ref_wall, ref_lat = batch
    record("batch", inputs.queries, answers)
    result.update(wall_s=wall, latencies=lat, ref_wall_s=ref_wall, ref_latencies=ref_lat)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Linux reports ru_maxrss in KiB; for cli the queries run in children
    rss = children.ru_maxrss if args.workload == "cli" else usage.ru_maxrss
    result["peak_rss_mb"] = rss / 1024

    if args.cli_sample or (tracer and args.workload != "cli"):
        sample = workloads.cli_sample(inputs)
        _, answers, lat, sample_ref_wall, _ = _batch(sample, in_process, wrap)
        record("cli.main", sample, answers)
        result.update(cli_main_s=statistics.median(lat), cli_sample_ref_wall_s=sample_ref_wall)

    if tracer:
        from tracing import layer_metrics
        tracer.dump(args.traced)
        result["layers"] = layer_metrics(json.loads(args.traced.read_text()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
