import gc
import inspect
import random
import weakref
import tempfile
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as iproduct
from pathlib import Path
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipoint.graded import (GradedAlgebraError, GradedRing, RingComponent, genus_class,
                               signature_class, signature_genus_log_coeffs)
from multipoint.model import (
    Check,
    ImmersionModel,
    LinearMap,
    ModelError,
    _preimage_under,
    _solve_linear,
    embedding_consistent,
    validate,
)
from multipoint.modelfile import load_model, model_to_dict, save_model
from multipoint.models import BUNDLED, bundled_model, truncated_model, truncated_polynomial_ring
from multipoint.random_models import random_truncated_model, random_union_components
from multipoint.signatures import (herbert, signature, transfer_of_unit, virtual_signature_class,
                                   zero_warning)
from multipoint.union import disjoint_union


def test_all_bundled_models_validate():
    for name in BUNDLED:
        report = validate(bundled_model(name))
        assert report.ok, f"{name}:\n{report}"


def test_random_models_validate():
    rng = random.Random(0)
    for _ in range(10):
        model = random_truncated_model(rng, with_chern=True)
        report = validate(model)
        assert report.ok, f"{model.name}:\n{report}"


def test_odd_codimension_rejected():
    m = bundled_model("line-in-plane")
    with pytest.raises(ModelError):
        ImmersionModel(m.source, m.target, m.pullback, m.pushforward, 3,
                       m.euler, m.pontrjagin_source, m.pontrjagin_target)
    # a codimension is an int as given: "2" raised TypeError and 2.0 was kept
    for codim in ("2", 2.0, True, None, -(10 ** 5000)):
        with pytest.raises(ModelError, match="codimension must be a positive even integer"):
            ImmersionModel(m.source, m.target, m.pullback, m.pushforward, codim,
                           m.euler, m.pontrjagin_source, m.pontrjagin_target)


def test_a_model_refuses_field_assignment():
    # a model is a value: the classes memoised for it, and the one model
    # load_model shares between the loaders of a file, stay true of it
    m = bundled_model("hypersurface-d3")
    fields = [*inspect.signature(ImmersionModel).parameters, "_cache"]
    for field in fields:
        before = getattr(m, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(m, field, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(m, field)
        assert getattr(m, field) is before
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        m.extra = 1
    assert len(fields) == 12 and validate(m).ok


def _swapped(m, **changes):
    """The constructor arguments of m with some replaced."""
    args = dict(source=m.source, target=m.target, pullback=m.pullback,
                pushforward=m.pushforward, codim=m.codim, euler=m.euler,
                pontrjagin_source=m.pontrjagin_source, pontrjagin_target=m.pontrjagin_target,
                chern_source=m.chern_source, chern_target=m.chern_target)
    return ImmersionModel(**{**args, **changes})


# the constructors refuse each map, image and class off its ring, the model
# with the error the first map call or class product on it would raise;
# validate raised IndexError on a target-ring Euler class, or reported nothing
@pytest.mark.parametrize("change, error, match", [
    (lambda m, o: dict(euler=m.target.element({2: 1})), GradedAlgebraError, "different rings"),
    (lambda m, o: dict(pontrjagin_source=o.source.unit()), GradedAlgebraError, "different rings"),
    (lambda m, o: dict(chern_source=m.target.unit()), GradedAlgebraError, "different rings"),
    (lambda m, o: dict(pontrjagin_target=m.source.unit()), ModelError, "not in the domain"),
    (lambda m, o: dict(chern_target=o.target.unit()), ModelError, "not in the domain"),
    (lambda m, o: dict(pullback=o.pullback), ModelError, "not in the domain"),
    (lambda m, o: dict(pushforward=o.pushforward), ModelError, "not in the domain"),
    (lambda m, o: dict(target=o.target), ModelError, "not in the domain"),
    (lambda m, o: dict(pullback=LinearMap(m.target, o.source, {})), GradedAlgebraError,
     "different rings"),
    (lambda m, o: dict(pushforward=LinearMap(m.source, o.target, {})), GradedAlgebraError,
     "different rings"),
    (lambda m, o: dict(pullback=LinearMap(m.target, m.source, {0: m.source.unit()})),
     GradedAlgebraError, "image of basis index 0 is a GradedClass, not a mapping"),
], ids=["euler-on-target", "source-pontrjagin-elsewhere", "source-chern-on-target",
        "target-pontrjagin-on-source", "target-chern-elsewhere", "pullback-elsewhere",
        "pushforward-elsewhere", "target-swapped", "pullback-codomain", "pushforward-codomain",
        "pullback-image"])
def test_maps_and_classes_off_their_ring_are_refused(change, error, match):
    m, other = bundled_model("line-in-plane"), bundled_model("hypersurface-d3")
    with pytest.raises(error, match=match):
        _swapped(m, **change(m, other))


def test_validation_catches_broken_projection_formula():
    m = bundled_model("line-in-plane")
    # pushforward sending t to 0 breaks the projection formula on (1, h)
    bad_push = LinearMap.from_coords(m.source, m.target, {0: {1: 1}, 1: {}})
    broken = ImmersionModel(m.source, m.target, m.pullback, bad_push, 2,
                            m.euler, m.pontrjagin_source, m.pontrjagin_target)
    report = validate(broken)
    assert not report.ok
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("projection formula", "on (1, h): 0 != 1*h^2"),
        ("integration compatibility", "on t: 0 != 1"),
    ]
    assert "zero facts" not in broken._cache


def test_degree_checks_name_each_term_off_its_degree():
    # the pullback keeps degrees and the pushforward raises them by the
    # model's codimension: no map carries a shift of its own
    m = bundled_model("line-in-plane")
    pull = LinearMap(m.target, m.source, {0: {0: 1, 1: 2}, 1: {1: 1}, 2: {}})
    push = LinearMap(m.source, m.target, {0: {0: 1, 1: 1}, 1: {2: 1}})
    broken = ImmersionModel(m.source, m.target, pull, push, 2,
                            m.euler, m.pontrjagin_source, m.pontrjagin_target)
    failures = {c.name: c.detail for c in validate(broken).failures()}
    assert failures["pullback preserves degrees"] == "image of 1 has a term of degree 2, expected 0"
    assert failures["pushforward raises degree by codimension"] == \
        "shift=2; image of 1 has a term of degree 0, expected 2"


def test_integration_compatibility_is_checked_below_the_top_degree():
    # t^2 lies below its component's declared top degree 8, so it has no
    # source integral, but f_!(t^2) = h^3 has target integral 1: passed
    # unchecked, the signature routes disagreed at k = 1
    M = GradedRing(["1", "t", "t^2"], [0, 2, 4],
                   {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {2: 1}}, {},
                   top_degree=8)
    N = truncated_polynomial_ring("h", 3)
    m = truncated_model("low-class", M, N, 1, 1, M.element({0: 1, 2: 3}), N.element({0: 1, 2: 3}))
    assert [(c.name, c.detail) for c in validate(m).failures()] == [
        ("integration compatibility", "on t^2: 1 != 0")]


def test_validation_catches_bad_euler_degree():
    m = bundled_model("line-in-plane")
    broken = ImmersionModel(m.source, m.target, m.pullback, m.pushforward, 2,
                            m.source.unit(), m.pontrjagin_source, m.pontrjagin_target)
    report = validate(broken)
    assert any(c.name == "euler class degree equals codimension" for c in report.failures())


def test_validate_reports_a_coefficient_past_the_digit_limit():
    # the euler check's detail shows the class; a coefficient that str()
    # refuses is shown by its digit count, alone or in a Fraction, and a
    # failed check's detail reaches the report's text
    m = bundled_model("line-in-plane")
    for coords, shown, ok in (({1: 10 ** 5000}, "<5001-digit integer>*t", True),
                              ({0: Fraction(-(10 ** 5000), 3)}, "-<5001-digit integer>/3", False)):
        bad = ImmersionModel(m.source, m.target, m.pullback, m.pushforward, m.codim,
                             m.source.element(coords), m.pontrjagin_source, m.pontrjagin_target)
        report = validate(bad)
        check = next(c for c in report.checks if c.name == "euler class degree equals codimension")
        assert (check.ok, check.detail) == (ok, f"euler={shown}")
        assert (f"euler={shown}" in str(report)) is not ok and shown in repr(report)


def test_validation_catches_nonmultiplicative_pullback():
    m = bundled_model("hypersurface-d2")
    bad_pull = LinearMap.from_coords(m.target, m.source,
                                     {0: {0: 1}, 1: {1: 2}, 2: {2: 2}, 3: {}})
    broken = ImmersionModel(m.source, m.target, bad_pull, m.pushforward, 2,
                            m.euler, m.pontrjagin_source, m.pontrjagin_target)
    report = validate(broken)
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("pullback is multiplicative", "on (h, h): 2*t^2 != 4*t^2"),
        ("projection formula", "on (1, h): 4*h^2 != 2*h^2"),
    ]


def reference_map_checks(m: ImmersionModel) -> List[Check]:
    """The multiplicativity and projection-formula checks by the generic
    product on every basis pair, kept as the reference for validate's
    row-table checks."""
    source, target = m.source, m.target
    pull, push = m.pullback, m.pushforward
    pulled = [pull.apply_coords({j: 1}) for j in range(len(target.labels))]
    pushed = [push.apply_coords({i: 1}) for i in range(len(source.labels))]
    mult = ""
    for i, j in combinations_with_replacement(range(len(target.labels)), 2):
        lhs = pull.apply_coords(target.rows[i].get(j, {}))
        rhs = source.mul_coords(pulled[i], pulled[j])
        if lhs != rhs:
            mult = (f"on ({target.labels[i]}, {target.labels[j]}): "
                    f"{source.element(lhs)} != {source.element(rhs)}")
            break
    proj = ""
    for i, j in iproduct(range(len(source.labels)), range(len(target.labels))):
        lhs = push.apply_coords(source.mul_coords({i: 1}, pulled[j]))
        rhs = target.mul_coords(pushed[i], {j: 1})
        if lhs != rhs:
            proj = (f"on ({source.labels[i]}, {target.labels[j]}): "
                    f"{target.element(lhs)} != {target.element(rhs)}")
            break
    return [Check("pullback is multiplicative", not mult, mult),
            Check("projection formula", not proj, proj)]


def _rebased_ring(ring: GradedRing, basis: List[Dict[int, Fraction]]):
    """The ring on the basis e'_i = sum_k basis[i][k] e_k, for a basis change
    that keeps degrees and is triangular with a nonzero diagonal, as one
    component (every ring rebased here has one top degree), and the map
    from old coordinates to new ones."""
    n = len(ring.labels)

    def new(coords):
        return {i: v for i, v in enumerate(_solve_linear(basis, coords)) if v}

    products = {(i, j): new(ring.mul_coords(basis[i], basis[j]))
                for i in range(n) for j in range(i, n)}
    integral = {i: sum(c * ring.integral.get(k, 0) for k, c in basis[i].items()) for i in range(n)}
    return GradedRing(ring.labels, ring.degrees, products, integral, top_degree=ring.top_degree,
                      unit=new(ring.unit_coords),
                      components=[RingComponent("all", tuple(range(n)), ring.top_degree)]), new


def _rebased(m: ImmersionModel, draw) -> ImmersionModel:
    """m on new bases of both rings: each basis element rescaled, and a
    multiple of an earlier one of the same degree added to it, so that
    products and basis images have several terms and coefficients other
    than 1.  The model is isomorphic to m, so it validates as m does."""
    def basis(ring):
        out = []
        for i, d in enumerate(ring.degrees):
            b = {i: draw(st.sampled_from([1, 1, 2, -1, 3, Fraction(1, 2)]))}
            same = [k for k in range(i) if ring.degrees[k] == d]
            if same:
                b[draw(st.sampled_from(same))] = draw(st.sampled_from([1, -1, 2, Fraction(2, 3)]))
            out.append(b)
        return out

    S, T = basis(m.source), basis(m.target)
    source, on_source = _rebased_ring(m.source, S)
    target, on_target = _rebased_ring(m.target, T)
    pullback = LinearMap.from_coords(
        target, source, {j: on_source(m.pullback.apply_coords(t)) for j, t in enumerate(T)})
    pushforward = LinearMap.from_coords(
        source, target, {i: on_target(m.pushforward.apply_coords(b)) for i, b in enumerate(S)})
    return ImmersionModel(source, target, pullback, pushforward, m.codim,
                          source.element(on_source(m.euler.coords)),
                          source.element(on_source(m.pontrjagin_source.coords)),
                          target.element(on_target(m.pontrjagin_target.coords)), name=m.name)


def _base_model(draw) -> ImmersionModel:
    """A bundled, random or union model."""
    kind = draw(st.sampled_from(["bundled", "random", "union"]))
    if kind == "bundled":
        m = bundled_model(draw(st.sampled_from(sorted(BUNDLED))))
    elif kind == "random":
        m = random_truncated_model(random.Random(draw(st.integers(0, 99))), max_powers=6)
    else:
        rng = random.Random(draw(st.integers(0, 99)))
        m = disjoint_union(random_union_components(rng, rng.randint(2, 3)))
    return m


@st.composite
def rebased_models(draw):
    return _rebased(_base_model(draw), draw)


@settings(max_examples=60, deadline=None)
@given(rebased_models())
def test_rebased_models_validate(m):
    # a check of the rebasing, and of validate on products and basis
    # images with several terms and coefficients other than 1
    report = validate(m)
    assert report.ok, f"{m.name}:\n{report}"


@st.composite
def perturbed_maps(draw):
    """A bundled, random or union model, rebased or not, with some pullback
    and pushforward image coordinates overwritten by integers or fractions
    (a zero deletes the coordinate)."""
    m = _base_model(draw)
    if draw(st.booleans()):
        m = _rebased(m, draw)
    source, target = m.source, m.target
    value = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))

    def overwritten(linmap, domain, codomain):
        images = {i: dict(linmap.images.get(i, {})) for i in range(len(domain.labels))}
        for i, idx, v in draw(st.lists(st.tuples(st.integers(0, len(domain.labels) - 1),
                                                 st.integers(0, len(codomain.labels) - 1),
                                                 value), max_size=3)):
            images[i][idx] = v
        return LinearMap.from_coords(domain, codomain, images)

    return ImmersionModel(source, target, overwritten(m.pullback, target, source),
                          overwritten(m.pushforward, source, target), m.codim, m.euler,
                          m.pontrjagin_source, m.pontrjagin_target, name=m.name)


@settings(max_examples=150, deadline=None)
@given(perturbed_maps())
def test_map_checks_match_generic_product_reference(m):
    reference = reference_map_checks(m)
    names = {c.name for c in reference}
    assert [c for c in validate(m).checks if c.name in names] == reference


@settings(max_examples=100, deadline=None)
@given(perturbed_maps())
def test_models_round_trip_through_a_file(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(m, path)
        back = load_model(path)
    assert ((back.source, back.target, back.codim, back.name)
            == (m.source, m.target, m.codim, m.name))
    for a, b in ((back.pullback, m.pullback), (back.pushforward, m.pushforward)):
        assert dict(a.images) == dict(b.images)
    assert ((back.euler, back.pontrjagin_source, back.pontrjagin_target)
            == (m.euler, m.pontrjagin_source, m.pontrjagin_target))


def test_validate_multiplies_only_for_the_derived_relations(monkeypatch):
    # the map checks and the ring axioms read product tables; the ring
    # products left are those of the two derived-class relations
    calls = []
    mul = GradedRing.mul_coords

    def counted(ring, a, b):
        calls.append(ring)
        return mul(ring, a, b)

    monkeypatch.setattr(GradedRing, "mul_coords", counted)
    m = bundled_model("hypersurface-d3")
    assert m.normal_pontrjagin * m.pontrjagin_source == m.pullback(m.pontrjagin_target)
    assert m.l_source == m.pullback(m.l_target) * m.l_normal_inverse
    relations = len(calls)
    calls.clear()
    assert validate(bundled_model("hypersurface-d3")).ok
    assert 0 < len(calls) <= relations


def test_validate_memoises_one_frozen_report():
    # the report is memoised on the model and refuses assignment, so no
    # caller can change what a later one reads
    m = bundled_model("line-in-plane")
    report = validate(m)
    with pytest.raises(AttributeError, match="cannot assign"):
        report.checks = ()
    assert validate(m) is report and report.ok and len(report.checks) == 16


# (null_pushforward, embedding) of each bundled model, and the draws of the
# acceptance set (random_truncated_model from seed 20260823) where each holds
BUNDLED_VANISHING = {
    "hypersurface-d1": (False, True), "hypersurface-d2": (False, True),
    "hypersurface-d3": (False, True), "hypersurface-d4": (False, True),
    "line-in-plane": (False, True), "line-in-quadric": (False, True),
    "null-pushforward": (True, False), "nullhomotopic-cp2-in-s6": (False, False),
    "two-lines": (False, False),
}
DRAWS_NULL_PUSHFORWARD = [1, 3, 10, 16, 19, 28, 29, 30, 31, 36, 37, 41, 42, 43, 48]
DRAWS_EMBEDDING = [9, 12, 30, 32, 44, 45]


def _vanishing(m):
    """(null_pushforward, embedding), as validate memoised them on m."""
    embedding, null_pushforward = m._cache["zero facts"]
    return null_pushforward, embedding


def test_a_passing_report_carries_the_pinned_vanishing_facts():
    assert sorted(BUNDLED_VANISHING) == sorted(BUNDLED)
    for name, flags in BUNDLED_VANISHING.items():
        m = bundled_model(name)
        assert validate(m).ok, name
        assert _vanishing(m) == flags, name
        # k = 1 has a nonempty locus, so its one reason is f_! = 0
        assert (zero_warning(m, 1) is not None) == flags[0], name
    rng = random.Random(20260823)
    for i in range(50):
        m = random_truncated_model(rng, max_powers=3 if i % 5 else 4)
        assert validate(m).ok, (i, m.name)
        assert _vanishing(m) == (i in DRAWS_NULL_PUSHFORWARD, i in DRAWS_EMBEDDING), (i, m.name)


@settings(max_examples=80, deadline=None)
@given(perturbed_maps())
def test_the_vanishing_facts_are_set_exactly_when_every_check_passes(m):
    report = validate(m)
    if not report.ok:
        assert "zero facts" not in m._cache
        return
    basis = [m.source.basis_class(i) for i in range(len(m.source.labels))]
    assert _vanishing(m) == (
        all(m.pushforward(x).is_zero() for x in basis),
        all(m.pullback(m.pushforward(x)) == m.euler * x for x in basis))


def test_a_dropped_model_is_freed_without_a_cyclic_collection():
    # nothing a model memoises refers back to it: a model, validated or not,
    # that has answered every query reading its memos and facts dies at del,
    # and so does its target ring, with the cyclic collector off
    def answered(m):
        signature(m, 2)
        virtual_signature_class(m, 2)
        herbert(m, 2, (4,))
        transfer_of_unit(m, 2)
        return m

    def failing():
        # f_! = 0 fails integration compatibility on the top class
        m = bundled_model("hypersurface-d3")
        return ImmersionModel(m.source, m.target, m.pullback, LinearMap(m.source, m.target, {}),
                              m.codim, m.euler, m.pontrjagin_source, m.pontrjagin_target)

    draws = {
        "validated": lambda: answered(bundled_model("hypersurface-d3")),
        "validated union": lambda: answered(bundled_model("two-lines")),
        "unvalidated": lambda: answered(bundled_model("line-in-plane")),
        "failed validation": lambda: answered(failing()),
    }
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for case, build in draws.items():
            m = build()
            if case != "unvalidated":
                assert validate(m).ok == (case != "failed validation"), case
            refs = weakref.ref(m), weakref.ref(m.target)
            del m
            assert [ref() for ref in refs] == [None, None], case
    finally:
        if enabled:
            gc.enable()


def test_derived_normal_classes():
    m = bundled_model("hypersurface-d3")
    # P(nu) * P(M) = f*(P(N)) by construction
    assert m.normal_pontrjagin * m.pontrjagin_source == m.pullback(m.pontrjagin_target)
    # L(nu) inverse is a genuine inverse
    assert signature_class(m.normal_pontrjagin) * m.l_normal_inverse == m.source.unit()


def test_validate_checks_the_inverse_normal_l_class(monkeypatch):
    # the L-class relation reads L(normal)^-1, which every signature route
    # reads: an inverse built without negating the log series fails it
    monkeypatch.setattr(ImmersionModel, "l_normal_inverse", property(
        lambda m: genus_class(m.normal_pontrjagin, signature_genus_log_coeffs)))
    report = validate(bundled_model("hypersurface-d3"))
    assert [c.name for c in report.failures()] == ["normal signature-class relation"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8), st.booleans())
def test_l_classes_of_random_models(seed, max_powers, with_chern):
    # the L-classes read from the model's memoised power sums are
    # graded.signature_class of their classes, and L is multiplicative:
    # L(normal) * L(source) = L(f*P(target)), since power sums add
    m = random_truncated_model(random.Random(seed), max_powers=max_powers, with_chern=with_chern)
    assert m.l_source == signature_class(m.pontrjagin_source)
    assert m.l_target == signature_class(m.pontrjagin_target)
    assert m.l_normal_inverse == signature_class(m.normal_pontrjagin).invert_unital()
    assert signature_class(m.normal_pontrjagin) * m.l_source == signature_class(
        m.pullback(m.pontrjagin_target))


def test_embedding_consistency():
    assert embedding_consistent(bundled_model("line-in-plane"))
    assert embedding_consistent(bundled_model("hypersurface-d2"))
    assert embedding_consistent(bundled_model("line-in-quadric"))
    assert not embedding_consistent(bundled_model("nullhomotopic-cp2-in-s6"))


def test_disjoint_union_validates_and_pairs():
    u = bundled_model("two-lines")
    assert validate(u).ok
    assert len(u.source.components) == 2
    # the union integral adds component integrals
    top = u.source.element({1: 1, 3: 1})
    assert top.integrate() == 2


def test_a_one_component_union_takes_the_union_name():
    m = bundled_model("line-in-plane")
    assert disjoint_union([m]) is m and disjoint_union([m], name=m.name) is m
    solo = disjoint_union([m], name="solo")
    assert (solo.name, m.name) == ("solo", "line-in-plane")
    assert model_to_dict(solo) == {**model_to_dict(m), "name": "solo"}
    assert validate(solo).ok


def test_disjoint_union_requires_shared_target():
    a = bundled_model("line-in-plane")
    b = bundled_model("line-in-quadric")
    with pytest.raises(ModelError):
        disjoint_union([a, b])


def test_a_disjoint_union_of_zero_models_is_refused():
    with pytest.raises(ModelError, match="^disjoint union of zero models$"):
        disjoint_union([])


def test_disjoint_union_requires_shared_target_pontrjagin():
    a = bundled_model("line-in-plane")
    b = bundled_model("line-in-plane")
    skewed = ImmersionModel(
        b.source, b.target, b.pullback, b.pushforward, b.codim, b.euler,
        b.pontrjagin_source, b.target.element({0: 1, 2: 7}))
    with pytest.raises(ModelError):
        disjoint_union([a, skewed])


def _quadric_surface(chern_target):
    """The degree-2 surface in CP^3 with the given target Chern coordinates."""
    M = truncated_polynomial_ring("t", 2, integral_value=2)
    N = truncated_polynomial_ring("h", 3)
    return truncated_model("quadric", M, N, 2, 2, M.unit(), N.element({0: 1, 2: 4}),
                           M.element({0: 1, 1: 2, 2: 2}), N.element(chern_target))


def test_disjoint_union_requires_shared_target_chern():
    # the union keeps one target Chern class: with the first component's,
    # c_1 of the double-point manifold read 0 or 8 by the order of the two
    a = _quadric_surface({0: 1, 1: 4, 2: 6, 3: 4})
    b = _quadric_surface({0: 1, 1: 2, 2: 6, 3: 4})
    for pair in ([a, b], [b, a]):
        with pytest.raises(ModelError, match="^disjoint union requires one shared target "
                                             "Chern class$"):
            disjoint_union(pair)
    # a component with no Chern data leaves the union none, so nothing to share
    plain = truncated_model("quadric", a.source, a.target, 2, 2, a.source.unit(),
                            a.pontrjagin_target)
    for pair in ([a, plain], [plain, b]):
        assert disjoint_union(pair).chern_target is None
    assert disjoint_union([a, a]).chern_target == a.chern_target


def test_union_components_validate():
    rng = random.Random(6)
    for _ in range(5):
        comps = random_union_components(rng, rng.randint(2, 3))
        u = disjoint_union(comps)
        assert validate(u).ok


def test_union_of_forty_source_classes_validates():
    # the source is a product ring of ten 4-class factors
    u = disjoint_union(random_union_components(random.Random(5), 10))
    assert len(u.source.labels) == 40
    assert u.source.check_axioms() == []
    assert validate(u).ok


def test_solve_linear_consistent_and_inconsistent():
    cols = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    sol = _solve_linear(cols, {0: Fraction(2), 1: Fraction(5)})
    assert sol == [Fraction(2), Fraction(3)]
    assert _solve_linear([{0: Fraction(1)}], {1: Fraction(1)}) is None


def _rank(rows) -> int:
    """The rank of a list of equal-length rows, by dense Gaussian elimination."""
    rows, rank = [[Fraction(v) for v in row] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), consistent=st.booleans(), zeros=st.booleans())
def test_solve_linear_solves_exactly_or_finds_the_system_inconsistent(data, consistent, zeros):
    # sparse rational systems of up to 6 x 6, with rows keyed 1, 3, 5, ...:
    # consistent by construction (target = A x) or arbitrary; zero entries
    # are kept in the dicts when zeros is set
    nrows, ncols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    A = [[data.draw(_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if consistent:
        x = [data.draw(_ENTRIES) for _ in range(ncols)]
        b = [sum(a * v for a, v in zip(row, x)) for row in A]
    else:
        b = [data.draw(_ENTRIES) for _ in range(nrows)]
    columns = [{2 * r + 1: A[r][j] for r in range(nrows) if zeros or A[r][j]}
               for j in range(ncols)]
    target = {2 * r + 1: b[r] for r in range(nrows) if zeros or b[r]}
    sol = _solve_linear(columns, target)
    if sol is None:
        assert not consistent and _rank(A) < _rank([row + [v] for row, v in zip(A, b)])
    else:
        assert len(sol) == ncols and all(type(v) is Fraction for v in sol)
        assert [sum(a * v for a, v in zip(row, sol)) for row in A] == b


def test_preimage_under_pullback():
    m = bundled_model("line-in-plane")
    pre = _preimage_under(m.pullback, m.euler)
    assert pre is not None
    assert m.pullback(pre) == m.euler
    # nothing maps onto a class outside the image
    m2 = bundled_model("nullhomotopic-cp2-in-s6")
    assert _preimage_under(m2.pullback, m2.source.basis_class(1)) is None


def test_multiple_point_dimension():
    from multipoint.formulas import multiple_point_dimension
    m = bundled_model("hypersurface-d2")
    assert multiple_point_dimension(m, 1) == (4,)
    assert multiple_point_dimension(m, 2) == (2,)
    assert multiple_point_dimension(m, 3) == (0,)


def test_source_dimensions_union():
    from multipoint.formulas import multiple_point_dimension
    u = bundled_model("two-lines")
    assert multiple_point_dimension(u, 1) == (2,)
