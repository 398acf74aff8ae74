"""The exact-coordinate normal form: an int when the value is integral, a
Fraction only when its denominator exceeds 1, never a float; public scalar
results are Fractions."""

import random
from fractions import Fraction

import pytest

from multipoint import formulas, signatures
from multipoint.model import _solve_linear
from multipoint.graded import (GradedAlgebraError, GradedClass, TensorClass, cross, exact,
                               signature_genus_log_coeffs)
from multipoint.model import validate
from multipoint.models import (
    BUNDLED,
    bundled_model,
    truncated_polynomial_ring,
)
from multipoint.random_models import random_truncated_model, random_union_components
from multipoint.union import disjoint_union


def _normal(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _models():
    rng = random.Random(606)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, with_chern=True) for _ in range(6)]
    models += [disjoint_union(random_union_components(rng, 2), name=f"union{n}")
               for n in range(2)]
    return models


@pytest.fixture
def built_coordinates(monkeypatch):
    """The coordinates of every GradedClass built while the test runs."""
    seen = []
    init = GradedClass.__init__

    def recording(self, ring, coords):
        init(self, ring, coords)
        seen.extend(self.coords.values())

    monkeypatch.setattr(GradedClass, "__init__", recording)
    return seen


@pytest.mark.parametrize("m", _models(), ids=lambda m: m.name)
def test_coordinates_are_ints_or_proper_fractions(m, built_coordinates):
    for ring in (m.source, m.target):
        data = [c for row in ring.rows for coords in row.values() for c in coords.values()]
        data += list(ring.integral.values()) + list(ring.unit_coords.values())
        assert all(_normal(c) for c in data), ring
    assert validate(m).ok
    # the herbert route runs where its hypothesis holds (not on every union)
    routes = [route for route in signatures.SIGNATURE_ROUTES
              if route != "herbert" or signatures._herbert_refusal(m) is None]
    for k in (1, 2, 3):
        for route in routes:
            assert type(signatures.signature(m, k, route=route)) is Fraction
        signatures.virtual_signature_class(m, k)
        dim = max(signatures.multiple_point_dimension(m, k))
        if dim >= 0:
            J = (4,) * (dim // 4)
            assert type(formulas.pontrjagin_number(m, k, J).value) is Fraction
            if m.chern_source is not None:
                J = (2,) * (dim // 2)
                assert type(formulas.chern_number(m, k, J).value) is Fraction
    assert built_coordinates
    bad = [c for c in built_coordinates if not _normal(c)]
    assert not bad, bad[:5]


def test_integral_fractions_become_ints():
    ring = truncated_polynomial_ring("h", 2)
    cls = ring.element({0: Fraction(4, 2), 1: Fraction(1, 2), 2: "6/3"})
    assert cls.coords == {0: 2, 1: Fraction(1, 2), 2: 2}
    assert [type(c) for c in cls.coords.values()] == [int, Fraction, int]
    assert type((cls * Fraction(2)).coords[1]) is int
    assert type(exact(Fraction(-3, 1))) is int


@pytest.mark.parametrize("build", [
    lambda ring: ring.element({1: 0.1}),
    lambda ring: ring.element({1: 2.0}),
    lambda ring: ring.unit() * 0.5,
    lambda ring: TensorClass(ring, 1, {(1,): 0.25}),
    lambda ring: cross([ring.unit()]) * 1.5,
], ids=["element", "integral-float", "scalar", "tensor", "tensor-scalar"])
def test_float_coordinates_rejected(build):
    ring = truncated_polynomial_ring("h", 2)
    with pytest.raises(GradedAlgebraError, match="float"):
        build(ring)


@pytest.mark.parametrize("build", [
    lambda ring: ring.element({0: True}),
    lambda ring: ring.unit() * True,
    lambda ring: formulas.genus(bundled_model("hypersurface-d3"), 1, (0, True)),
], ids=["element", "scalar", "genus-log-coefficient"])
def test_bool_coordinates_rejected(build):
    # True is an int to Python, but exact refuses it as the entry check of k does
    ring = truncated_polynomial_ring("h", 2)
    with pytest.raises(GradedAlgebraError, match="bool"):
        build(ring)


@pytest.mark.parametrize("value", [None, [1], "x", "1/0", {1: 2}, 1j], ids=repr)
@pytest.mark.parametrize("build", [
    lambda ring, v: exact(v),
    lambda ring, v: ring.element({0: v}),
    lambda ring, v: ring.unit() * v,
    lambda ring, v: cross([ring.unit()]) * v,
    lambda ring, v: formulas.genus(bundled_model("hypersurface-d3"), 1, (0, v)),
], ids=["exact", "element", "scalar", "tensor-scalar", "genus-log-coefficient"])
def test_non_rational_coordinates_rejected(build, value):
    # Fraction raises TypeError, ValueError or ZeroDivisionError on these;
    # each must end as the documented GradedAlgebraError
    ring = truncated_polynomial_ring("h", 2)
    with pytest.raises(GradedAlgebraError, match="not an exact rational"):
        build(ring, value)


def test_solve_linear_on_integer_columns_is_exact():
    sol = _solve_linear([{0: 2}], {0: 1})
    assert sol == [Fraction(1, 2)]
    assert all(type(v) is Fraction for v in sol)
    sol = _solve_linear([{0: 3, 1: 1}, {1: 2}], {0: 1, 1: 1})
    assert sol == [Fraction(1, 3), Fraction(1, 3)]
    assert all(type(v) is Fraction for v in sol)


def test_signature_log_coefficients_are_computed_once():
    first = signature_genus_log_coeffs(5)
    assert isinstance(first, tuple)
    assert signature_genus_log_coeffs(5) is first
