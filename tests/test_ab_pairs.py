import importlib.util
import statistics
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
])
def test_summary_verdicts(parent, change, holds, verdict):
    rows = ab_pairs.summary(_runs(parent), _runs(change), BOUND)
    assert [row[0] for row in rows] == list(ab_pairs.METRICS)
    for name, med_a, med_b, spread, wins, row_holds, row_verdict in rows:
        assert (med_a, med_b, spread) == (statistics.median(parent), statistics.median(change),
                                          ab_pairs.iqr(parent)), name
        assert wins == sum(y < x for x, y in zip(parent, change)), name
        assert (row_holds, row_verdict) == (holds, verdict), name


def test_measure_takes_the_median_of_five_set_ups(monkeypatch, tmp_path):
    setups = iter([0.5, 0.1, 0.9, 0.3, 0.2])
    calls = []

    def child(root, role, workload, seed, *extra):
        calls.append(role)
        if role == "setup":
            return {"ref_setup_s": next(setups)}
        return {"ref_wall_s": 1.0, "ref_latencies": [0.001] * 10, "peak_rss_mb": 50.0,
                "failures": []}

    monkeypatch.setattr(ab_pairs, "_child", child)
    run = ab_pairs.measure(tmp_path, "wide", 1, "frozen", tmp_path)
    assert calls == ["setup"] * ab_pairs.SETUP_REPEATS + ["run"]
    assert run["setup_s"] == 0.3 and run["failed"] == 0
