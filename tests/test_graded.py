import json
import random
from fractions import Fraction
from math import factorial
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipoint import graded
from multipoint.graded import (
    GradedAlgebraError,
    GradedClass,
    GradedRing,
    NonUnitalClassError,
    RingComponent,
    TensorClass,
    cross,
    genus_class,
    nilpotency_order,
    power_sum_coords,
    signature_class,
    signature_genus_log_coeffs,
)
from multipoint.model import LinearMap, validate
from multipoint.modelfile import ring_from_dict, ring_to_dict
from multipoint.models import (
    BUNDLED,
    bundled_model,
    truncated_model,
    truncated_polynomial_ring,
)
from multipoint.oracle import diagonal_pullback
from multipoint.partitions import SetPartition
from multipoint.random_models import (
    _random_unital,
    random_truncated_model,
    random_union_components,
)
from multipoint.union import disjoint_union, product_ring
from series_reference import eval_series, exp_coeffs, reference_genus_class


@pytest.fixture
def cp2():
    return truncated_polynomial_ring("h", 2, name="CP2")


@pytest.fixture
def cp4():
    return truncated_polynomial_ring("h", 4, name="CP4")


def test_ring_axioms_hold(cp2, cp4):
    assert cp2.check_axioms() == []
    assert cp4.check_axioms() == []


def test_ring_axioms_catch_bad_degree():
    ring = GradedRing(["1", "x"], [0, 2], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {1: 1}},
                      {1: 1})
    issues = ring.check_axioms()
    assert any("degree" in msg for msg in issues)


def test_ring_axioms_catch_non_associative_table():
    # commutative, degree-correct, but (a*a)*b = p*b = t while a*(a*b) = a*q = 0
    labels = ["1", "a", "b", "p", "q", "t"]
    products = {(0, i): {i: 1} for i in range(6)}
    products.update({(1, 1): {3: 1}, (1, 2): {4: 1}, (2, 3): {5: 1}})
    ring = GradedRing(labels, [0, 2, 2, 4, 4, 6], products, {5: 1})
    assert ring.check_axioms() == ["associativity fails on (a,a,b)",
                                   "associativity fails on (b,a,a)"]
    assert reference_check_axioms(ring) == ring.check_axioms()


def test_a_ring_checks_its_axioms_once_and_hands_out_a_new_list(monkeypatch):
    labels = ["1", "a", "b", "p", "q", "t"]
    products = {(0, i): {i: 1} for i in range(6)}
    products.update({(1, 1): {3: 1}, (1, 2): {4: 1}, (2, 3): {5: 1}})
    ring = GradedRing(labels, [0, 2, 2, 4, 4, 6], products, {5: 1})
    calls, issues = [], GradedRing._axiom_issues
    monkeypatch.setattr(GradedRing, "_axiom_issues", lambda r: calls.append(r) or issues(r))
    first = ring.check_axioms()
    first.clear()
    assert ring.check_axioms() == reference_check_axioms(ring) != []
    assert ring.check_axioms() is not ring.check_axioms() and calls == [ring]


def test_power_sums_and_genus_classes_are_computed_once_per_ring(monkeypatch):
    newton, kernel = [], []
    sums, genus = graded._newton_power_sums, graded.genus_coords
    monkeypatch.setattr(graded, "_newton_power_sums", lambda P, step: newton.append(step)
                        or sums(P, step))
    monkeypatch.setattr(graded, "genus_coords", lambda ring, terms: kernel.append(ring)
                        or genus(ring, terms))
    P = bundled_model("hypersurface-d3").pontrjagin_source
    equal = P.ring.element(dict(P.coords))
    assert power_sum_coords(P) is power_sum_coords(equal)
    # every spelling of the coefficients the class reads is one entry
    c = signature_genus_log_coeffs(4)
    spellings = (lambda n: c, lambda n: [str(x) for x in c], lambda n: (*c, 0, 0))
    assert {genus_class(equal, f) for f in spellings} == {signature_class(P)}
    assert (newton, kernel) == ([4], [P.ring])
    # another step, or another coefficient read, is another entry
    power_sum_coords(P, 2)
    genus_class(P, lambda n: (0, 1))
    assert (newton, kernel) == ([4, 2], [P.ring] * 2)


def reference_check_axioms(ring: GradedRing) -> List[str]:
    """The axiom check by class products on every basis pair and triple,
    kept as the reference for the structure-constant check."""
    issues: List[str] = []
    n = len(ring.labels)
    component_of = {i: comp for comp in ring.components for i in comp.indices}
    unit = ring.unit()
    for i in range(n):
        b = ring.basis_class(i)
        if unit * b != b:
            issues.append(f"unit law fails on basis element {ring.labels[i]}")
    for i in range(n):
        for j in range(i, n):
            d = ring.degrees[i] + ring.degrees[j]
            comp_i, comp_j = component_of[i], component_of[j]
            for idx, c in ring.basis_product(i, j).items():
                if ring.degrees[idx] != d:
                    issues.append(
                        f"product {ring.labels[i]}*{ring.labels[j]} has a term "
                        f"in degree {ring.degrees[idx]}, expected {d}")
                if component_of[idx] is not comp_i:
                    issues.append(
                        f"product {ring.labels[i]}*{ring.labels[j]} leaves its component")
            if comp_i is not comp_j and ring.basis_product(i, j):
                issues.append(
                    f"cross-component product {ring.labels[i]}*{ring.labels[j]} is nonzero")
            if d > comp_i.top_degree and ring.basis_product(i, j):
                issues.append(
                    f"product {ring.labels[i]}*{ring.labels[j]} exceeds the top degree")
    for i in range(n):
        for j in range(n):
            for l in range(n):
                lhs = (ring.basis_class(i) * ring.basis_class(j)) * ring.basis_class(l)
                rhs = ring.basis_class(i) * (ring.basis_class(j) * ring.basis_class(l))
                if lhs != rhs:
                    issues.append(
                        f"associativity fails on "
                        f"({ring.labels[i]},{ring.labels[j]},{ring.labels[l]})")
    for idx in ring.integral:
        comp = component_of[idx]
        if ring.degrees[idx] != comp.top_degree:
            issues.append(
                f"integral supported on {ring.labels[idx]} of degree "
                f"{ring.degrees[idx]}, component top is {comp.top_degree}")
    for idx, c in ring.unit_coords.items():
        if ring.degrees[idx] != 0:
            issues.append("unit has a positive-degree term")
    return issues


@st.composite
def perturbed_rings(draw):
    """An associative ring of at most 10 classes (a truncated polynomial ring
    or a product of up to three), with some structure constants, integral
    values and unit coordinates overwritten at random: integers and
    fractions, zeros that delete an entry, and entries between two
    components of a product.  With no overwrite it stays associative."""
    powers = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)
                  .filter(lambda ps: sum(p + 1 for p in ps) <= 10))
    factors = [truncated_polynomial_ring(f"x{f}", p, gen_degree=draw(st.sampled_from([2, 4])))
               for f, p in enumerate(powers)]
    base = factors[0] if len(factors) == 1 else product_ring(factors)
    n = len(base.labels)
    index = st.integers(0, n - 1)
    value = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    overwrites = draw(st.lists(st.tuples(index, index, index, value), max_size=4))
    comps = [c.indices for c in base.components]
    for _ in range(draw(st.integers(0, 2)) if len(comps) > 1 else 0):
        a, b = draw(st.permutations(comps))[:2]
        overwrites.append((draw(st.sampled_from(a)), draw(st.sampled_from(b)), draw(index),
                           draw(value)))
    products = {key: dict(coords) for key, coords in base.products.items()}
    for i, j, idx, v in overwrites:
        products.setdefault((min(i, j), max(i, j)), {})[idx] = v
    integral = dict(base.integral)
    for idx, v in draw(st.lists(st.tuples(index, value), max_size=1)):
        integral[idx] = v
    # the unit of a product already has a term per factor; an overwrite
    # rescales a term, adds one in any degree or deletes one
    unit = dict(base.unit_coords)
    for idx, v in draw(st.lists(st.tuples(index, value), max_size=2)):
        unit[idx] = v
    return GradedRing(base.labels, base.degrees, products, integral, top_degree=base.top_degree,
                      unit=unit, components=base.components)


@settings(max_examples=150, deadline=None)
@given(perturbed_rings())
def test_check_axioms_matches_class_product_reference(ring):
    assert ring.check_axioms() == reference_check_axioms(ring)


@settings(max_examples=100, deadline=None)
@given(perturbed_rings())
def test_rings_round_trip_through_the_model_file_format(ring):
    assert ring_from_dict(json.loads(json.dumps(ring_to_dict(ring)))) == ring


def test_check_axioms_makes_no_ring_product(monkeypatch):
    # the unit law is read from the unit's own product row, and
    # associativity from the structure constants
    rings = [r for m in map(bundled_model, BUNDLED) for r in (m.source, m.target)]

    def refuse(*args):
        raise AssertionError("check_axioms multiplied two classes")

    monkeypatch.setattr(GradedRing, "mul_coords", refuse)
    for ring in rings:
        assert ring.check_axioms() == []


def test_ring_rejects_odd_degree():
    with pytest.raises(GradedAlgebraError):
        GradedRing(["1", "x"], [0, 3], {(0, 0): {0: 1}}, {})
    # a degree is an int as given, never truncated: int() read 2.9 as 2 and True as 1
    for degree in (2.9, 2.0, "2", True, None, -2, 10 ** 5000 + 1):
        with pytest.raises(GradedAlgebraError, match="not a nonnegative even integer"):
            GradedRing(["1", "x"], [0, degree], {(0, 0): {0: 1}}, {})
    for top in (2.0, "2", True):
        with pytest.raises(GradedAlgebraError, match=f"component top degree {top!r} is not an int"):
            GradedRing(["1", "x"], [0, 2], {(0, 0): {0: 1}}, {},
                       components=[RingComponent("all", (0, 1), top)])


@pytest.mark.parametrize("top", [2, 0, -2, 4.5, 6.0, "6"])
def test_ring_rejects_top_degree_below_basis(top):
    # a top degree that is not an int is refused in the same words
    with pytest.raises(GradedAlgebraError, match="below the largest basis degree 4"):
        GradedRing(["1", "h", "h2"], [0, 2, 4], {}, {2: 1}, top_degree=top)
    assert GradedRing(["1", "h", "h2"], [0, 2, 4], {}, {2: 1}, top_degree=6).top_degree == 6


def test_truncation(cp2):
    h = cp2.basis_class(1)
    assert (h * h * h).is_zero()
    assert h ** 2 == cp2.basis_class(2)


def test_unit_and_scalars(cp2):
    h = cp2.basis_class(1)
    assert cp2.unit() * h == h
    assert 2 * h == h + h
    assert (h - h).is_zero()
    assert Fraction(1, 2) * (h + h) == h


def test_degree_parts(cp2):
    x = cp2.unit() + 3 * cp2.basis_class(1) + 5 * cp2.basis_class(2)
    assert x.degree_part(2) == 3 * cp2.basis_class(1)
    assert x.select_degrees([2, 2]) == 9 * cp2.basis_class(2)


@pytest.mark.parametrize("call", [
    lambda x: x.select_degrees(["4"]),
    lambda x: x.select_degrees([4.0]),
    lambda x: x.select_degrees([-2]),
    lambda x: cross([x, x]).select_degrees(["4"]),
    lambda x: cross([x, x]).select_degrees([2, 2.0]),
    lambda x: x ** 2.0,
    lambda x: x ** "2",
    lambda x: x ** True,
    lambda x: x ** -1,
], ids=["select-str", "select-float", "select-negative", "tensor-select-str",
        "tensor-select-float", "power-float", "power-str", "power-bool", "power-negative"])
def test_degree_selection_and_powers_refuse_junk(cp2, call):
    # a string degree or power raised TypeError, a float degree was read as
    # an int, a negative degree as an empty part and a bool power as 1, and a
    # negative power raised ValueError
    with pytest.raises(GradedAlgebraError):
        call(cp2.unit() + cp2.basis_class(1))


def test_invert_unital(cp4):
    h = cp4.basis_class(1)
    x = cp4.unit() + h
    inv = x.invert_unital()
    assert x * inv == cp4.unit()
    # geometric series with alternating signs
    assert inv == cp4.unit() - h + h ** 2 - h ** 3 + h ** 4


def test_invert_requires_unital(cp2):
    with pytest.raises(NonUnitalClassError):
        (2 * cp2.unit()).invert_unital()
    with pytest.raises(NonUnitalClassError):
        cp2.basis_class(1).invert_unital()


def test_eval_series_requires_nilpotent(cp2):
    with pytest.raises(GradedAlgebraError):
        eval_series(cp2.unit(), [Fraction(1), Fraction(1)])


def test_integration(cp2):
    x = cp2.unit() + 7 * cp2.basis_class(2)
    assert x.integrate() == 7
    assert cp2.basis_class(1).integrate() == 0


def test_signature_class_projective_plane(cp2):
    # P = 1 + 3h^2 gives L = 1 + h^2 and signature 1
    P = cp2.element({0: 1, 2: 3})
    L = signature_class(P)
    assert L == cp2.unit() + cp2.basis_class(2)
    assert L.integrate() == 1


def test_signature_class_degree_eight():
    ring = truncated_polynomial_ring("t", 4)
    t2 = ring.basis_class(2)
    t4 = ring.basis_class(4)
    p1, p2 = 3, 5
    P = ring.unit() + p1 * t2 + p2 * t4
    L = signature_class(P)
    # multiplicative sequence values in low degrees
    assert L.degree_part(4) == Fraction(p1, 3) * t2
    assert L.degree_part(8) == Fraction(7 * p2 - p1 * p1, 45) * t4


def test_signature_class_multiplicative():
    ring = truncated_polynomial_ring("t", 4)
    t2 = ring.basis_class(2)
    A = ring.unit() + 2 * t2
    B = ring.unit() + 5 * t2
    assert signature_class(A * B) == signature_class(A) * signature_class(B)


def reference_signature_class(P):
    """The L-class with Newton's identities over every j up to a quarter of
    the largest basis degree, and the series cut at half that degree."""
    ring = P.ring
    w = ring.max_degree // 4
    if w == 0:
        return ring.unit()
    elem = [ring.zero()] + [P.degree_part(4 * j) for j in range(1, w + 1)]
    power_sums = [ring.zero()] * (w + 1)
    for j in range(1, w + 1):
        acc = (-1) ** (j - 1) * j * elem[j]
        for i in range(1, j):
            acc = acc + (-1) ** (i - 1) * (elem[i] * power_sums[j - i])
        power_sums[j] = acc
    c = signature_genus_log_coeffs(w)
    log_l = ring.zero()
    for j in range(1, w + 1):
        log_l = log_l + c[j] * power_sums[j]
    return eval_series(log_l, exp_coeffs(ring.max_degree // 2 + 2))


def test_signature_class_matches_the_degree_sized_reference():
    rng = random.Random(61)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=rng.randint(1, 12)) for _ in range(40)]
    models += [disjoint_union(random_union_components(rng, 3)) for _ in range(3)]
    for m in models:
        for P in (m.pontrjagin_source, m.pontrjagin_target, m.normal_pontrjagin):
            assert signature_class(P) == reference_signature_class(P), m.name


def test_nilpotency_order_counts_distinct_degrees(cp4):
    assert nilpotency_order(cp4) == 5
    h = cp4.basis_class(1) + cp4.basis_class(3)
    assert not (h ** 4).is_zero() and (h ** 5).is_zero()
    huge = GradedRing(["1", "a", "b", "c"], [0, 4, 4, 10 ** 30],
                      {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1}},
                      {3: 1})
    assert nilpotency_order(huge) == 3


def test_signature_class_with_a_huge_basis_degree():
    # one basis element of degree 10^30: the work follows the three distinct
    # positive degrees, not the quarter of 10^30 degree slots below the top
    ring = GradedRing(["1", "a", "a2", "z"], [0, 4, 8, 10 ** 30],
                      {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
                       (1, 1): {2: 1}}, {3: 1})
    P = ring.element({0: 1, 1: 3})
    L = signature_class(P)
    assert L == ring.element({0: 1, 1: 1, 2: Fraction(-1, 5)})
    assert L.invert_unital() * L == ring.unit()


def test_signature_class_rejects_bad_input(cp2):
    with pytest.raises(NonUnitalClassError):
        signature_class(cp2.basis_class(1))
    with pytest.raises(GradedAlgebraError):
        signature_class(cp2.unit() + cp2.basis_class(1))  # degree-2 part


def _random_total(rng, ring, step):
    return ring.element({0: 1, **{i: rng.randint(-3, 3) for i, d in enumerate(ring.degrees)
                                  if d and d % step == 0}})


def test_genus_class_of_log_one_plus_x_is_the_total_class():
    # K(x) = 1 + x has log coefficients (-1)^(j-1) / j, so K of a total
    # class (of squared roots for step 4) is that class itself
    log1p = [0] + [Fraction((-1) ** (j - 1), j) for j in range(1, 9)]
    rng = random.Random(31)
    ring = truncated_polynomial_ring("t", 8)
    for step in (2, 4):
        for _ in range(5):
            P = _random_total(rng, ring, step)
            assert genus_class(P, lambda n: log1p, step) == P


def test_genus_class_is_multiplicative_for_any_log_coefficients():
    rng = random.Random(32)
    ring = truncated_polynomial_ring("t", 6)
    for step in (2, 4):
        for _ in range(5):
            c = [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
            A, B = _random_total(rng, ring, step), _random_total(rng, ring, step)
            K = lambda P: genus_class(P, lambda n: c, step)  # noqa: E731
            assert K(A * B) == K(A) * K(B)


def test_genus_class_reads_a_finite_sequence_as_a_polynomial_log():
    ring = truncated_polynomial_ring("t", 4)
    P = ring.element({0: 1, 2: 3, 4: 5})
    assert genus_class(P, lambda n: (0,)) == ring.unit()
    # the L-class series and its first two coefficients agree up to degree 8
    L = genus_class(P, lambda n: signature_genus_log_coeffs(2))
    assert L == signature_class(P) and genus_class(P, signature_genus_log_coeffs) == L
    assert genus_class(P, lambda n: signature_genus_log_coeffs(1)).degree_part(8) != \
        L.degree_part(8)
    with pytest.raises(GradedAlgebraError, match="multiple of 4"):
        genus_class(ring.element({0: 1, 1: 1}), lambda n: (0, 1))
    assert genus_class(ring.element({0: 1, 1: 1}), lambda n: (0, 1), step=2) == ring.element(
        {i: Fraction(1, factorial(i)) for i in range(5)})


def _rescaled_polynomial_ring(powers: int, gen_degree: int, scales) -> GradedRing:
    """Q[x]/(x^(powers+1)) on the basis f_i = scales[i] * x^i, scales[0] = 1:
    f_i f_j = scales[i] scales[j] / scales[i+j] f_(i+j), structure constants
    with denominators."""
    products = {(i, j): {i + j: Fraction(scales[i] * scales[j], scales[i + j])}
                for i in range(powers + 1) for j in range(i, powers + 1 - i)}
    return GradedRing([f"f{i}" for i in range(powers + 1)],
                      [gen_degree * i for i in range(powers + 1)], products, {powers: 1})


@st.composite
def genus_cases(draw):
    """A unital total class with int and Fraction coordinates on a truncated
    ring (its structure constants rescaled or not) or a two-component
    product of such rings, a degree step and rational log coefficients,
    some with large denominators."""
    step = draw(st.sampled_from([2, 4]))

    def factor():
        powers = draw(st.integers(1, 6))
        gen_degree = draw(st.sampled_from([2, 4]))
        if draw(st.booleans()):
            return truncated_polynomial_ring("x", powers, gen_degree)
        scale = st.fractions(Fraction(1, 4), 4, max_denominator=4)
        scales = [1] + [draw(scale) for _ in range(powers)]
        return _rescaled_polynomial_ring(powers, gen_degree, scales)

    rings = [factor() for _ in range(draw(st.integers(1, 2)))]
    ring = rings[0] if len(rings) == 1 else product_ring(rings)
    value = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))
    coords = dict(ring.unit_coords)
    for i, d in enumerate(ring.degrees):
        if d and d % step == 0:
            coords[i] = draw(value)
    log_coefficient = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6),
                                st.fractions(-3, 3, max_denominator=10 ** 12))
    c = draw(st.lists(log_coefficient, max_size=8))
    return ring.element(coords), c, step


@settings(max_examples=150, deadline=None)
@given(genus_cases())
def test_integer_genus_kernel_matches_the_fraction_reference(case):
    P, c, step = case
    assert genus_class(P, lambda n: c, step) == reference_genus_class(P, c, step)


def test_signature_class_on_the_codim_2_model_matches_the_reference():
    # source t^0..t^40, target h^0..h^41: 40 distinct positive degrees, so
    # y^m runs up to m = 40 and the one division is by D^M * M!
    rng = random.Random(1)
    M = truncated_polynomial_ring("t", 40, integral_value=3)
    N = truncated_polynomial_ring("h", 41)
    m = truncated_model("codim-2", M, N, 3, 2, _random_unital(rng, M, 4), _random_unital(rng, N, 4))
    assert validate(m).ok
    classes = (m.pontrjagin_source, m.pontrjagin_target, m.normal_pontrjagin,
               m.pullback(m.pontrjagin_target))
    for P in classes:
        L = signature_class(P)
        assert L == reference_signature_class(P)
        assert L.degree_part(4) == Fraction(1, 3) * P.degree_part(4)
    assert signature_class(classes[2]) * m.l_source == signature_class(classes[3])


def test_genus_kernel_runs_in_ints_and_divides_once(monkeypatch):
    # integral data and integer log coefficients: every product of the
    # kernel (Newton's identities and the powers y^m) takes and gives ints,
    # and the sum it divides at the end is int; no class product runs
    def unavailable(*args):
        raise AssertionError("the genus kernel multiplies no GradedClass")

    def all_int(coords):
        return all(type(v) is int for v in coords.values())

    mul_coords, divide = graded.GradedRing.mul_coords, graded._divide
    seen = {"products": 0, "divisions": 0}

    def int_product(ring, a, b):
        out = mul_coords(ring, a, b)
        assert all_int(a) and all_int(b) and all_int(out)
        seen["products"] += 1
        return out

    def int_division(v, n):
        assert type(v) is int and type(n) is int
        seen["divisions"] += 1
        return divide(v, n)

    rng = random.Random(16)
    models = [random_truncated_model(rng, max_powers=8, with_chern=True) for _ in range(5)]
    expected = {}
    for m in models:
        for P, step in ((m.pontrjagin_target, 4), (m.normal_chern, 2)):
            for c in ((0, 1), (0, 2, -3, 1), (0, -1, 0, 5, 7)):
                expected[m.name, step, c] = (P, step, c, reference_genus_class(P, c, step))
    monkeypatch.setattr(graded.GradedClass, "__mul__", unavailable)
    monkeypatch.setattr(graded.GradedRing, "mul_coords", int_product)
    monkeypatch.setattr(graded, "_divide", int_division)
    assert not hasattr(graded.GradedClass, "eval_series")
    for key, (P, step, c, want) in expected.items():
        divisions = seen["divisions"]
        P.ring._memo.clear()  # so that the kernel runs for every key
        K = genus_class(P, lambda n: c, step)
        assert K.coords == want.coords, key
        assert seen["divisions"] - divisions == len(K.coords), key  # one per coordinate
    assert seen["products"] > len(expected)


def test_power_sums_of_a_total_class():
    # 1 + x + 2x^2 by Newton: s_1 = x, s_2 = x^2 - 4x^2, s_3 = -3x^3 - 2x^3, s_4 = -5x^4 + 6x^4
    ring = truncated_polynomial_ring("t", 4)
    P = ring.element({0: 1, 1: 1, 2: 2})
    assert power_sum_coords(P, 2) == {1: {1: 1}, 2: {2: -3}, 3: {3: -5}, 4: {4: 1}}
    assert power_sum_coords(ring.unit()) == {}
    with pytest.raises(NonUnitalClassError):
        power_sum_coords(2 * P, 2)


def test_cross_and_tensor_product(cp2):
    h = cp2.basis_class(1)
    x = cross([cp2.unit() + h, h])
    assert x.terms == {(0, 1): Fraction(1), (1, 1): Fraction(1)}
    y = cross([h, cp2.unit()])
    assert (x * y).terms == {(1, 1): Fraction(1), (2, 1): Fraction(1)}


def test_tensor_degree_part(cp2):
    h = cp2.basis_class(1)
    x = cross([cp2.unit() + h, cp2.unit() + h])
    assert x.degree_part(2).terms == {(0, 1): Fraction(1), (1, 0): Fraction(1)}
    assert x.select_degrees([2, 2]).terms == {
        (2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}


def test_scale_slot(cp2):
    h = cp2.basis_class(1)
    x = cross([h, cp2.unit()])
    assert x.scale_slot(0, h).terms == {(2, 0): Fraction(1)}
    assert x.scale_slot(1, h).terms == {(1, 1): Fraction(1)}


def test_diagonal_pullback_multiplies_blocks(cp2):
    h = cp2.basis_class(1)
    x = cross([h, h, cp2.unit()])
    alpha = SetPartition(3, ((1, 2), (3,)))
    y = diagonal_pullback(alpha, x)
    assert y.terms == {(2, 0): Fraction(1)}
    # collapsing everything multiplies all slots
    full = diagonal_pullback(SetPartition(3, ((1, 2, 3),)), x)
    assert full.terms == {(2,): Fraction(1)}


def test_diagonal_pullback_of_trivial_partition_is_identity(cp2):
    h = cp2.basis_class(1)
    x = cross([h, cp2.unit() + h])
    from multipoint.partitions import trivial_partition
    assert diagonal_pullback(trivial_partition(2), x) == x


def test_tensor_arity_mismatch(cp2):
    x = cross([cp2.unit(), cp2.unit()])
    with pytest.raises(GradedAlgebraError):
        diagonal_pullback(SetPartition(3, ((1, 2, 3),)), x)


def test_product_ring_components():
    a = truncated_polynomial_ring("s", 1)
    b = truncated_polynomial_ring("t", 2)
    prod = product_ring([a, b])
    assert prod.check_axioms() == []
    # cross-factor products vanish
    assert (prod.basis_class(1) * prod.basis_class(3)).is_zero()
    # integral adds up
    top = prod.element({1: 1, 4: 1})
    assert top.integrate() == 2
    assert prod.unit().coords == {0: Fraction(1), 2: Fraction(1)}


def test_equal_classes_on_equal_rings_hash_equal():
    a = truncated_polynomial_ring("h", 2, name="CP2")
    b = truncated_polynomial_ring("h", 2, name="CP2")
    assert a is not b and a == b
    x = a.element({1: Fraction(3, 2), 2: 5})
    y = b.element({1: Fraction(3, 2), 2: 5})
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


def _ring(products=None, integral=None, unit=None, components=None):
    return GradedRing(["1", "h", "h2"], [0, 2, 4], {} if products is None else products,
                      {2: 1} if integral is None else integral,
                      unit={0: 1} if unit is None else unit, components=components)


def _cp2():
    return truncated_polynomial_ring("h", 2)


# every basis index, in a ring, a class, a tensor class or a map, is an int
# below the basis size as given: a float, bool or string is not read as one
@pytest.mark.parametrize("build", [
    lambda: _ring(products={(0, 9): {1: 1}}),
    lambda: _ring(products={(0, 1): {7: 1}}),
    lambda: _ring(integral={9: 1}),
    lambda: _ring(unit={5: 1}),
    lambda: _ring(products={(0, 1.5): {1: 1}}),
    lambda: _ring(products={1.5: {1: 1}}),
    lambda: _ring(products={(True, 1): {1: 1}}),
    lambda: _ring(products={"01": {1: 1}}),
    lambda: _ring(products={(0, 1): {1.0: 1}}),
    lambda: _ring(integral={2.0: 1}),
    lambda: _ring(unit={True: 1}),
    lambda: _ring(unit={"0": 1}),
    lambda: _ring(components=[RingComponent("all", (0, 1, 2.0), 4)]),
    lambda: _ring(components=[RingComponent("all", (0, 1, 2, 3), 4)]),
    lambda: _ring(components=[RingComponent("all", 3, 4)]),
    lambda: GradedClass(_cp2(), {1.7: 3}),
    lambda: GradedClass(_cp2(), {True: 3}),
    lambda: GradedClass(_cp2(), {"1": 3}),
    lambda: GradedClass(_cp2(), {-1: 3}),
    lambda: GradedClass(_cp2(), {10 ** 5000: 3}),
    lambda: TensorClass(_cp2(), 2, {(5, 99): 1}),
    lambda: TensorClass(_cp2(), 1, {(1.0,): 1}),
    lambda: TensorClass(_cp2(), 1, {1: 1}),
    lambda: LinearMap.from_coords(_cp2(), _cp2(), {99: {0: 1}}),
    lambda: LinearMap.from_coords(_cp2(), _cp2(), {"0": {0: 1}}),
    lambda: LinearMap.from_coords(_cp2(), _cp2(), {0: {3: 1}}),
], ids=["product-key", "product-value", "integral-key", "unit-key", "product-key-float-slot",
        "product-key-float", "product-key-bool-slot", "product-key-str", "product-value-float",
        "integral-key-float", "unit-key-bool", "unit-key-str", "component-index-float",
        "component-index-past", "component-indices-int", "class-key-float", "class-key-bool",
        "class-key-str", "class-key-negative", "class-key-huge", "tensor-slots-past",
        "tensor-slot-float", "tensor-key-int", "map-domain-key-past", "map-domain-key-str",
        "map-image-key-past"])
def test_ring_rejects_indices_outside_basis(build):
    with pytest.raises(GradedAlgebraError, match="outside the basis"):
        build()


# each raised AttributeError on .items() of the container
@pytest.mark.parametrize("build, container", [
    (lambda m: m.source.element([1]), "coordinate index -> rational, got list"),
    (lambda m: m.source.element(5), "coordinate index -> rational, got int"),
    (lambda m: LinearMap(m.target, m.source, [0]), "map domain index -> image, got list"),
    (lambda m: GradedRing(["1"], [0], {}, [1]), "integral index -> rational, got list"),
    (lambda m: GradedRing(["1"], [0], [1], {}), "product key -> coordinates, got list"),
    (lambda m: TensorClass(m.source, 1, [1]), "tensor term -> rational, got list"),
], ids=["class-list", "class-int", "map-images-list", "ring-integral-list",
        "ring-products-list", "tensor-terms-list"])
def test_a_container_that_is_not_a_mapping_is_refused_by_name(build, container):
    with pytest.raises(GradedAlgebraError, match=f"^expected a mapping of {container}$"):
        build(bundled_model("line-in-plane"))
