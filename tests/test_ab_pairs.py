import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", PATH)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

BOUND = {name: 0.25 for name in ab_pairs.METRICS}
STEADY = list(range(100, 110))  # median 104.5, IQR 4.5
SPREAD = [50, 150] * 5  # median 100, IQR 100: wider than the bound


def _runs(values):
    return [{name: v for name in ab_pairs.METRICS} for v in values]


def test_iqr_uses_inclusive_quartiles():
    assert ab_pairs.iqr([1, 2, 3, 4, 5]) == 2
    assert ab_pairs.iqr(STEADY) == 4.5 and ab_pairs.iqr(SPREAD) == 100


def test_every_end_to_end_metric_has_a_bound():
    assert set(ab_pairs.METRICS) <= set(ab_pairs.bounds())


@pytest.mark.parametrize("parent, change, holds, verdict", [
    (STEADY, [v - 10 for v in STEADY], True, "ok"),  # 10/10 wins, gap 10 > IQR
    (STEADY, [v + 20 for v in STEADY], False, "ok"),  # +19 %, within the bound
    (STEADY, [v + 30 for v in STEADY], False, "worse"),  # +29 %
    (SPREAD, SPREAD, False, "unresolved"),  # the parent's IQR exceeds the bound
    (SPREAD, [40] * 10, False, "ok"),  # every change run below every parent run
    (SPREAD, [40] * 9 + [60], False, "unresolved"),  # one run does not
    ([100, 101], [80, 81], False, "ok"),  # 2/2 wins, but under ten pairs
])
def test_summary_verdicts(parent, change, holds, verdict):
    rows = ab_pairs.summary(_runs(parent), _runs(change), BOUND)
    assert [row[0] for row in rows] == list(ab_pairs.METRICS)
    for name, med_a, med_b, spread, wins, row_holds, row_verdict in rows:
        assert (med_a, med_b, spread) == (statistics.median(parent), statistics.median(change),
                                          ab_pairs.iqr(parent)), name
        assert wins == sum(y < x for x, y in zip(parent, change)), name
        assert (row_holds, row_verdict) == (holds, verdict), name


def _fake_run(calls, returncode=0, failed=0):
    def run(cmd, **kwargs):
        calls.append((cmd, kwargs))
        last = {"correct": not failed, "attempted": 10, "failed": failed,
                "metrics": {name: {"value": n + 1.5, "unit": "s"}
                            for n, name in enumerate(ab_pairs.METRICS)}}
        out = "workload wide\n  wall_s 1.5 s\n" + json.dumps(last) + "\n"
        # the JSON line even on exit 2, so that only the exit status can stop the tool
        return subprocess.CompletedProcess(cmd, returncode, out, "error: time budget exhausted\n")
    return run


@pytest.mark.parametrize("seed, extra", [(None, []), (7, ["--seed", "7"])])
def test_measure_runs_the_benchmark_command_in_the_checkout(monkeypatch, tmp_path, seed, extra):
    calls = []
    monkeypatch.setattr(subprocess, "run", _fake_run(calls))
    run = ab_pairs.measure(tmp_path, "wide", seed)
    [(cmd, kwargs)] = calls
    assert cmd == [sys.executable, "benchmarks/run.py", "--workload", "wide", *extra]
    assert kwargs["cwd"] == tmp_path
    assert run == {**{name: n + 1.5 for n, name in enumerate(ab_pairs.METRICS)}, "failed": 0}


def test_a_failed_query_is_recorded_and_any_other_exit_stops(monkeypatch, tmp_path):
    monkeypatch.setattr(subprocess, "run", _fake_run([], returncode=1, failed=2))
    run = ab_pairs.measure(tmp_path, "lattice", None)
    assert run["failed"] == 2 and run["wall_s"] == 1.5
    monkeypatch.setattr(subprocess, "run", _fake_run([], returncode=2))
    with pytest.raises(SystemExit, match="time budget exhausted") as exc:
        ab_pairs.measure(tmp_path, "lattice", None)
    assert str(tmp_path) in str(exc.value)


def test_workload_choices_are_those_of_benchmark_json(monkeypatch, tmp_path, capsys):
    spec = json.loads((PATH.parent.parent / "BENCHMARK.json").read_text())
    for side in ("parent", "change"):
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").touch()
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--pairs", "2", "--workload"]
    for w in spec["workloads"]:
        calls = []
        monkeypatch.setattr(subprocess, "run", _fake_run(calls))
        assert ab_pairs.main([*argv, w["name"]]) == 0
        assert [cmd[3] for cmd, _ in calls] == [w["name"]] * 4
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main([*argv, "deep"])
    assert exc.value.code == 2 and "invalid choice: 'deep'" in capsys.readouterr().err
