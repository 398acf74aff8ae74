"""Reference answers, computed by code independent of the routes under test.

- signature (k <= 6): oracle.signature_enumerated;
- signature of a wide model at k = 1: Hirzebruch's theorem (wide.py);
- signature with --route collected at k = 9, beyond the oracle's cap: the
  collected-source route, a different formula from the one the CLI runs;
- bk: oracle.virtual_class_enumerated;
- pontrjagin=J and chern=J: oracle.transfer_to_source_enumerated;
- validate, examples and identities: the library's own report, model
  notes and success line, as the CLI must print them.

The answers for the default seed are frozen in frozen_20260823.json; the
self-check regenerates them and asserts equality.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Dict

from multipoint import cli, formulas, oracle
from multipoint import model as model_mod
from multipoint.graded import cross
from wide import expected_k1_signature, wide_model
from workloads import DEFAULT_SEED, WORKLOADS, Query, Spec, build_spec, class_text, index_sequence

FROZEN = Path(__file__).with_name(f"frozen_{DEFAULT_SEED}.json")


def _transfer_number(m, k: int, total, normal_total, J) -> Fraction:
    inv = normal_total.invert_unital()
    x = cross([total] + [inv] * (k - 1)).select_degrees(J)
    return oracle.transfer_to_source_enumerated(m, k, x).value.integrate() / factorial(k)


def expected(spec: Spec, q: Query) -> str:
    if q.quantity == "examples":
        return "\n".join(f"{name:28s} {cli.MODEL_NOTES.get(name, '')}"
                         for name in sorted(cli.MODEL_NOTES))
    if q.quantity == "examples-json":
        return json.dumps({name: cli.MODEL_NOTES[name] for name in sorted(cli.MODEL_NOTES)},
                          indent=2)
    if q.quantity == "identities":
        return "all identities hold"
    m = spec.models[q.model]
    if q.quantity == "validate":
        report = model_mod.validate(m)
        if not report.ok:
            raise RuntimeError(f"reference model {q.model} fails validation")
        return str(report)
    if q.quantity == "signature":
        if q.route == "collected" and q.k > oracle.DEFAULT_CAP:
            return str(formulas.signature(m, q.k, route="collected-source"))
        if q.model in spec.wide and q.k == 1:
            return str(expected_k1_signature(*spec.wide[q.model]))
        return str(oracle.signature_enumerated(m, q.k).value)
    if q.quantity == "bk":
        return class_text(oracle.virtual_class_enumerated(m, q.k).value)
    J = index_sequence(q.quantity)
    if q.quantity.startswith("pontrjagin="):
        return str(_transfer_number(m, q.k, m.pontrjagin_source, m.normal_pontrjagin, J))
    return str(_transfer_number(m, q.k, m.chern_source, m.normal_chern, J))


def compute_references(workload: str, seed: int) -> Dict[str, str]:
    spec = build_spec(workload, seed)
    return {q.qid: expected(spec, q) for q in spec.queries}


def load_frozen(workload: str) -> Dict[str, str]:
    return json.loads(FROZEN.read_text())[workload]


def write_frozen() -> None:
    data = {"seed": DEFAULT_SEED}
    data.update({w: compute_references(w, DEFAULT_SEED) for w in WORKLOADS})
    FROZEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def self_check() -> list:
    """Problems found; empty when the frozen answers and the generators hold."""
    problems = []
    for (a, b, d), want in (((3, 2, 3), -5), ((3, 2, 4), -16), ((5, 0, 2), 2)):
        if expected_k1_signature(a, b, d, 1) != want:
            problems.append(f"Hirzebruch V{d} in CP{a} x CP{b}: "
                            f"{expected_k1_signature(a, b, d, 1)} != {want}")
        m = wide_model(a, b, d, 1)
        if not model_mod.validate(m).ok or formulas.signature(m, 1) != want:
            problems.append(f"wide model V{d} in CP{a} x CP{b} does not give {want}")
    frozen = json.loads(FROZEN.read_text())
    for w in WORKLOADS:
        spec = build_spec(w, DEFAULT_SEED)
        for p in spec.wide.values():
            if not model_mod.validate(wide_model(*p)).ok:
                problems.append(f"{w}: wide model {p} fails validation")
        fresh = {q.qid: expected(spec, q) for q in spec.queries}
        if fresh != frozen[w]:
            bad = sorted(set(fresh.items()) ^ set(frozen[w].items()))
            problems.append(f"{w}: {len(bad)} frozen answers differ, e.g. {bad[:2]}")
    return problems
