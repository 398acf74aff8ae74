"""Exact costs of canonical queries, and which kernels a default call runs.

The cost of a query is counted as (ring products, map calls): the calls of
GradedRing.mul_coords and LinearMap.apply_coords it makes, after validate.
The counts repeat exactly between processes, so they are pinned: a change
that moves one states the old and the new count.  A subset route costs
about 3^(k-1)/2 products, the collected chain and Herbert's closed form
about k each, so the pins tell the kernels apart at a glance.
"""

import random
import time
import weakref
from math import factorial

import pytest

from multipoint import graded, modelfile, signatures
from multipoint import model as model_mod
from multipoint.formulas import pontrjagin_number
from multipoint.model import validate
from multipoint.models import truncated_model, truncated_polynomial_ring
from multipoint.random_models import _random_unital, random_union_components
from multipoint.signatures import RouteDisagreement, signature, virtual_signature_class
from multipoint.union import disjoint_union


def _codim_2_model():
    # source t^0..t^40 with integral mu = 3, target h^0..h^41, lambda = 2:
    # k-tuple manifolds of dimension 82 - 2k, nonempty to k = 41
    rng = random.Random(1)
    M = truncated_polynomial_ring("t", 40, integral_value=3)
    N = truncated_polynomial_ring("h", 41)
    return truncated_model("codim-2", M, N, 3, 2, _random_unital(rng, M, 4),
                           _random_unital(rng, N, 4))


def _codim_4_model():
    # source t^0..t^24 with integral mu = 2, target h^0..h^26, lambda = 1:
    # the first of the codim-4 models, 25 and 27 classes
    rng = random.Random(1)
    M = truncated_polynomial_ring("t", 24, integral_value=2)
    N = truncated_polynomial_ring("h", 26)
    return truncated_model("codim-4", M, N, 2, 1, _random_unital(rng, M, 4),
                           _random_unital(rng, N, 4))


def _validated(build):
    m = build()
    assert validate(m).ok
    return m


@pytest.fixture
def cost(monkeypatch):
    """cost(fn): the (ring products, map calls) that fn() makes."""
    counts = [0, 0]
    mul, apply = graded.GradedRing.mul_coords, model_mod.LinearMap.apply_coords

    def counted_mul(self, a, b):
        counts[0] += 1
        return mul(self, a, b)

    def counted_apply(self, coords):
        counts[1] += 1
        return apply(self, coords)

    monkeypatch.setattr(graded.GradedRing, "mul_coords", counted_mul)
    monkeypatch.setattr(model_mod.LinearMap, "apply_coords", counted_apply)

    def measure(fn):
        counts[:] = [0, 0]
        fn()
        return tuple(counts)
    return measure


# (k, signature(auto), virtual_signature_class) on a fresh validated
# codim-2 model each; the subset kernel made them 167/71 and 90/36 at k = 5
# and 1,024/267 and 525/134 at k = 7
CODIM_2_PINS = [(5, (36, 13), (30, 9)), (7, (57, 17), (49, 11)), (13, (144, 29), (130, 17))]


@pytest.mark.parametrize("k, auto, bk", CODIM_2_PINS, ids=lambda v: str(v))
def test_signature_and_virtual_class_on_the_codim_2_model(cost, k, auto, bk):
    m = _validated(_codim_2_model)
    assert cost(lambda: signature(m, k)) == auto
    m = _validated(_codim_2_model)
    assert cost(lambda: virtual_signature_class(m, k)) == bk


@pytest.mark.parametrize("k, J, pin", [
    (3, (8, 32), (673, 396)),  # the tensor expansion: a subset transfer per term
    (4, (36,), (1020, 120)),  # genera at 30 points, a chain each
])
def test_a_pontrjagin_number_on_a_codim_4_model(cost, k, J, pin):
    m = _validated(_codim_4_model)
    assert cost(lambda: pontrjagin_number(m, k, J)) == pin


def test_loading_and_validating_a_wide_sized_file(cost, monkeypatch, tmp_path):
    # a cold read: no model of the text and no ring held
    path = tmp_path / "codim-4.json"
    modelfile.save_model(_codim_4_model(), path)
    monkeypatch.setattr(modelfile, "_loaded", {})
    monkeypatch.setattr(modelfile, "_rings", weakref.WeakValueDictionary())
    assert cost(lambda: validate(modelfile.load_model(path))) == (239, 5)


# ---------------------------------------------------------------------------
# Which kernels a default call runs
# ---------------------------------------------------------------------------


def _spied(monkeypatch, names):
    """The list of the names of signatures' kernels in names, as they run."""
    ran = []
    for name in names:
        real = getattr(signatures, name)
        monkeypatch.setattr(signatures, name, lambda *args, real=real, name=name, **kwargs:
                            ran.append(name) or real(*args, **kwargs))
    return ran


def test_a_default_call_at_k13_runs_the_chain_and_the_closed_form_only(monkeypatch):
    # the subset kernel would take about 265,000 products per route here
    ran = _spied(monkeypatch, ("_extend", "_closed_form", "_transfer"))
    m = _validated(_codim_2_model)
    start = time.perf_counter()
    value = signature(m, 13)
    cls = virtual_signature_class(m, 13)
    assert time.perf_counter() - start < 2
    assert {"_extend", "_closed_form"} <= set(ran) and "_transfer" not in ran, ran
    assert value != 0 and (m.l_target * cls).integrate() / factorial(13) == value


def test_the_closed_form_catches_a_flipped_sign_in_the_chain(monkeypatch):
    def mutant(model, chain, k):
        # signatures._extend with the sign of the block b_2 flipped
        blocks, coeffs = chain.blocks, chain.coeffs
        push, mul = model.pushforward.apply_coords, model.target.mul_coords
        for n in range(len(coeffs), k + 1):
            if n > 1 and chain.last:
                chain.last = model.source.mul_coords(chain.last, chain.eu)
            blocks.append(chain.last and push(chain.last))
            acc = signatures._sum_coords(
                (1 if i % 2 or i == 2 else -1, mul(blocks[i - 1], coeffs[n - i]))
                for i in range(1, n + 1) if blocks[i - 1] and coeffs[n - i])
            coeffs.append({i: graded._divide(v, n) for i, v in acc.items()})

    monkeypatch.setattr(signatures, "_extend", mutant)
    start = time.perf_counter()
    with pytest.raises(RouteDisagreement, match="signature routes disagree for k=13"):
        signature(_validated(_codim_2_model), 13)
    with pytest.raises(RouteDisagreement, match="virtual signature class mismatch for k=13"):
        virtual_signature_class(_validated(_codim_2_model), 13)
    assert time.perf_counter() - start < 2


def test_where_herbert_fails_auto_runs_the_subset_kernel(monkeypatch):
    u = disjoint_union(random_union_components(random.Random(6), 2))
    assert validate(u).ok and signatures._herbert_refusal(u) is not None
    routes = []
    for name, route in signatures.SIGNATURE_ROUTES.items():
        monkeypatch.setitem(signatures.SIGNATURE_ROUTES, name, lambda m, k, name=name,
                            route=route: routes.append(name) or route(m, k))
    ran = _spied(monkeypatch, ("_closed_form", "_transfer"))
    assert signature(u, 2) == signature(u, 2, route="collected") == 3
    assert routes[:4] == ["general", "via-N", "collected", "collected-source"]
    assert "_transfer" in ran and "_closed_form" not in ran
    ran.clear()
    virtual_signature_class(u, 3)
    assert ran == ["_transfer"]
