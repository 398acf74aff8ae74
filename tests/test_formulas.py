import random
import re
import time
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHECKED_PARAMETERS
from multipoint import formulas, graded, oracle, partitions, records, signatures
from multipoint import model as model_mod
from multipoint.formulas import (
    chern_number,
    pontrjagin_number,
    transfer_to_source,
    transfer_to_target,
)
from multipoint.graded import GradedRing, cross, log_coefficient, signature_genus_log_coeffs
from multipoint.model import (ImmersionModel, LinearMap, ModelError, embedding_consistent,
                              validate)
from multipoint.modelfile import model_from_dict, model_to_dict
from multipoint.models import (
    BUNDLED,
    bundled_model,
    truncated_model,
    truncated_monomial_ring,
    truncated_polynomial_ring,
)
from multipoint.oracle import (
    DEFAULT_CAP,
    recursion_identity_holds,
    signature_enumerated,
    transfer_to_source_enumerated,
    transfer_to_target_enumerated,
    virtual_class_enumerated,
)
from multipoint.partitions import (
    all_partitions,
    marked_type_vectors,
    type_vectors,
)
from multipoint.random_models import (
    _random_unital,
    random_truncated_model,
    random_union_components,
)
from multipoint.signatures import (
    SIGNATURE_ROUTES,
    PreconditionError,
    RouteDisagreement,
    herbert,
    multiple_point_dimension,
    signature,
    signature_collected,
    signature_collected_source,
    signature_via_source,
    signature_via_target,
    transfer_of_unit,
    virtual_signature_class,
    zero_warning,
)
from multipoint.union import disjoint_union, product_ring
from series_reference import eval_series, tanh_coeffs


# the PreconditionError texts of the special cases, as patterns
L_NOT_PULLED_BACK = r"f\*f_! is not zero and L\(normal\) is not pulled back from the target"


def e_not_pulled_back(model):
    """The full-match pattern of the refusal of transfer_of_unit on model."""
    return "^" + re.escape(f"f*f_! is not zero and euler class {model.euler} "
                           "is not pulled back from the target") + "$"


def _random_tensor(rng, ring, k, nterms=2):
    n = len(ring.labels)
    x = cross([ring.basis_class(rng.randrange(n)) for _ in range(k)])
    for _ in range(nterms - 1):
        x = x + rng.choice([1, -1, 2]) * cross(
            [ring.basis_class(rng.randrange(n)) for _ in range(k)])
    return x


def _random_class(rng, ring):
    """A class with a random small coefficient on each basis element."""
    return ring.element({i: rng.randint(-3, 3) for i in range(len(ring.labels))})


# ---------------------------------------------------------------------------
# Transfer operators
# ---------------------------------------------------------------------------


def test_transfer_k1_is_identity():
    m = bundled_model("hypersurface-d2")
    for i in range(len(m.source.labels)):
        x = cross([m.source.basis_class(i)])
        assert transfer_to_source(m, 1, x) == m.source.basis_class(i)
        assert transfer_to_target(m, 1, x) == m.pushforward(m.source.basis_class(i))


def test_transfer_line_in_plane_unit_vanishes():
    # self-intersection of an embedded line: f*f_!(1) - e = t - t = 0
    m = bundled_model("line-in-plane")
    x = cross([m.source.unit(), m.source.unit()])
    assert transfer_to_source(m, 2, x).is_zero()


def test_transfer_null_pushforward_closed_form():
    # with f_! = 0 only the one-block partition survives
    m = bundled_model("null-pushforward")
    for k in range(1, 5):
        x = cross([m.source.unit()] * k)
        expected = Fraction((-1) ** (k - 1) * factorial(k - 1)) * m.euler ** (k - 1)
        assert transfer_to_source(m, k, x) == expected


def test_transfer_two_lines_target():
    m = bundled_model("two-lines")
    x = cross([m.source.unit(), m.source.unit()])
    # f_!(1)^2 - f_!(e) = (2h)^2 - 2h^2 = 2h^2
    assert transfer_to_target(m, 2, x) == 2 * m.target.basis_class(2)


def test_transfer_target_is_pushforward_of_transfer_source():
    rng = random.Random(2)
    for _ in range(6):
        m = random_truncated_model(rng)
        for k in range(1, 5):
            x = _random_tensor(rng, m.source, k)
            assert transfer_to_target(m, k, x) == m.pushforward(transfer_to_source(m, k, x))


def test_transfer_raises_degree_uniformly():
    m = bundled_model("hypersurface-d3")
    k = 3
    x = cross([m.source.basis_class(1)] * k)
    out = transfer_to_source(m, k, x)
    shift = (k - 1) * m.codim
    for i in out.coords:
        assert m.source.degrees[i] == 3 * 2 + shift


def test_transfers_match_oracle_on_general_factors():
    # factors that are neither basis classes nor all equal, and sums of crosses
    rng = random.Random(11)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng) for _ in range(4)]
    for m in models:
        L, u, e, one = m.l_source, m.l_normal_inverse, m.euler, m.source.unit()
        first = cross([L, u, e + u])
        for x in (first, first - 3 * cross([e + one, L, u]), cross([u, e + L, one, L + u])):
            k = x.arity
            assert transfer_to_source(m, k, x) == \
                transfer_to_source_enumerated(m, k, x).value, (m.name, x)
            assert transfer_to_target(m, k, x) == \
                transfer_to_target_enumerated(m, k, x).value, (m.name, x)


def reference_transfer(m, factors, to_target):
    """The transfer kernel as the explicit sum over the Bell(k) partitions:
    each block class e^(|B|-1) * prod_{i in B} c_i and its image is built
    once, and each partition costs one ring product per further block."""
    image_of = m.pushforward if to_target else m.pushpull
    blocks, images = {}, {}

    def block(b):
        if b not in blocks:
            blocks[b] = factors[b[0] - 1] if len(b) == 1 else \
                block(b[:-1]) * factors[b[-1] - 1] * m.euler
        return blocks[b]

    def image(b):
        if b not in images:
            images[b] = image_of(block(b))
        return images[b]

    out = (m.target if to_target else m.source).zero()
    for alpha in all_partitions(len(factors)):
        first, *rest = alpha.blocks
        cls = image(first) if to_target else block(first)
        weight = log_coefficient(len(first))
        for b in rest:
            cls = cls * image(b)
            weight *= log_coefficient(len(b))
        out = out + weight * cls
    return out


def test_transfer_kernel_matches_partition_sum():
    # a different random class in each slot, so no symmetry of the tensor helps
    rng = random.Random(23)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=8, allow_zero_euler=False)
               for _ in range(3)]
    models.append(disjoint_union(random_union_components(rng, 2)))
    nonzero = 0
    for m in models:
        for k in range(1, 8):
            factors = [_random_class(rng, m.source) for _ in range(k)]
            for to_target in (False, True):
                value = signatures._transfer(m, factors, to_target)
                assert value == reference_transfer(m, factors, to_target), \
                    (m.name, k, to_target)
                nonzero += k >= 5 and not value.is_zero()
    assert nonzero >= 6


def test_general_and_via_n_visit_no_partition(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("the transfer kernel must not enumerate partitions")

    # the oracle holds the one enumerating check
    assert not hasattr(signatures, "all_partitions") and not hasattr(formulas, "all_partitions")
    monkeypatch.setattr(partitions, "all_partitions", unavailable)
    models = [bundled_model("two-lines"), bundled_model("hypersurface-d3"),
              random_truncated_model(random.Random(19), max_powers=6, allow_zero_euler=False)]
    for m in models:
        for k in range(1, 7):
            collected = signature_collected(m, k)
            assert signature_via_source(m, k) == collected, (m.name, k)
            assert signature_via_target(m, k) == collected, (m.name, k)
            virtual_signature_class(m, k)


def test_general_via_n_and_collected_agree_at_k10():
    # m = 11, codim 2: Bell(10) = 115,975 partitions, (3^9 - 1)/2 recursion products
    m = random_truncated_model(random.Random(19), max_powers=12, allow_zero_euler=False)
    assert (len(m.source.labels) - 1, m.codim) == (11, 2)
    assert signature_via_source(m, 10) == signature_via_target(m, 10) \
        == signature_collected(m, 10) == 176


def test_every_route_returns_zero_on_an_empty_locus_at_k64():
    # the 2^64-entry degree table of the transfer kernel is never built
    m = random_truncated_model(random.Random(19), max_powers=12, allow_zero_euler=False)
    start = time.perf_counter()
    for route in ("auto", "general", "via-N"):
        assert signature(m, 64, route=route) == 0, route
    assert signature_via_source(m, 20) == 0
    assert signature_via_source(m, 64) == signature_via_target(m, 64) == 0
    assert time.perf_counter() - start < 2


def test_each_route_called_directly_returns_zero_on_an_empty_locus_at_k4000():
    # the collected recursions are quadratic in k: about 0.6 s each here
    # when they run to their 0
    m = bundled_model("line-in-plane")
    start = time.perf_counter()
    for name, route in SIGNATURE_ROUTES.items():
        assert route(m, 4000) == 0, name
    assert time.perf_counter() - start < 0.25


def test_signature_and_virtual_class_on_an_empty_locus_run_no_route(monkeypatch):
    # at k = 10^6 the routes, the genus and the special cases would spend
    # seconds in the collected recursion, in k-fold products and in
    # factorial(k), only to divide 0
    def unavailable(*args, **kwargs):
        raise AssertionError("an empty k-tuple manifold must run no route")

    m = bundled_model("line-in-plane")
    nullhomotopic_cp2, null_push = map(bundled_model, ("nullhomotopic-cp2-in-s6",
                                                       "null-pushforward"))
    for name in SIGNATURE_ROUTES:
        monkeypatch.setitem(SIGNATURE_ROUTES, name, unavailable)
    # the virtual class and genus read the kernels from signatures
    monkeypatch.setattr(signatures, "_transfer", unavailable)
    monkeypatch.setattr(signatures, "_exponential_coefficients", unavailable)
    start = time.perf_counter()
    for route in (*SIGNATURE_ROUTES, "auto"):
        assert signature(m, 10 ** 6, route=route) == 0, route
    assert virtual_signature_class(m, 10 ** 6) == m.target.zero()
    assert virtual_signature_class(disjoint_union([m] * 3), 10 ** 6) == m.target.zero()
    assert formulas.genus(m, 10 ** 6, (0, 1)) == formulas.genus(m, 10 ** 6, (0, 1), chern=True) == 0
    assert transfer_of_unit(m, 10 ** 6) == m.source.zero()
    for held in (m, nullhomotopic_cp2, null_push):
        assert herbert(held, 10 ** 6) == herbert(held, 10 ** 6, (4,)) == 0, held.name
    assert time.perf_counter() - start < 1
    for k in (2, 10 ** 6):
        for route in ("nonesuch", [], None, 1):
            with pytest.raises(ValueError, match="unknown signature route"):
                signature(m, k, route=route)
    for k in (1, 10 ** 6):
        for chern in ("yes", 1, None):
            with pytest.raises(ValueError, match="chern must be a bool"):
                formulas.genus(m, k, (0, 1), chern=chern)
    # the refusals still come first: the entry check, then the hypothesis
    with pytest.raises(graded.GradedAlgebraError, match="not a nonnegative even integer"):
        herbert(null_push, 10 ** 6, (3,))
    with pytest.raises(ValueError, match="multiplicity"):
        formulas.genus(m, 0, (0, 1))
    refused = disjoint_union([bundled_model("hypersurface-d1"), bundled_model("hypersurface-d2")])
    for special in (transfer_of_unit, herbert, lambda m, k: herbert(m, k, (4,))):
        with pytest.raises(PreconditionError, match=e_not_pulled_back(refused)):
            special(refused, 10 ** 6)
    with pytest.raises(ModelError, match="target"):
        virtual_signature_class(disjoint_union([m, bundled_model("hypersurface-d2")]), 10 ** 6)


def test_the_union_is_built_once_per_tuple_of_components(monkeypatch):
    # the union's blocks are the sums of the components' blocks, so its one
    # chain gives the class; at k = 6 the locus (dimension -8) is empty and
    # no chain is built, at k = 2 it is a point and one chain is built
    components = random_union_components(random.Random(8), 3)
    u = disjoint_union(components)
    chains, chain = [], signatures._Chain
    monkeypatch.setattr(signatures, "_Chain",
                        lambda model, u: chains.append(model) or chain(model, u))
    assert virtual_signature_class(u, 6).is_zero()
    assert chains == []
    virtual_signature_class(u, 2)
    assert chains == [u]
    # a union that is refused is refused again, and nothing is stored for it
    m, keys = components[0], set(components[0]._cache)
    for _ in range(2):
        with pytest.raises(ModelError, match="target"):
            virtual_signature_class(disjoint_union([m, bundled_model("hypersurface-d2")]), 2)
    assert set(m._cache) == keys


def _codim_2_model():
    # source t^0..t^40 with integral mu = 3, target h^0..h^41, mu = 3,
    # lambda = 2: k-tuple manifolds of dimension 80 - 2(k-1), nonempty to k = 41
    rng = random.Random(1)
    M = truncated_polynomial_ring("t", 40, integral_value=3)
    N = truncated_polynomial_ring("h", 41)
    return truncated_model("codim-2", M, N, 3, 2, _random_unital(rng, M, 4),
                           _random_unital(rng, N, 4))


def test_signature_is_zero_by_degrees_before_any_route(monkeypatch):
    # the signature of a manifold whose dimensions are not 0 mod 4 is 0;
    # on the codim-2 model M_8 has dimension 66, and the subset routes
    # take (3^7 - 1)/2 products to return that 0
    m = _codim_2_model()
    assert validate(m).ok and multiple_point_dimension(m, 8) == (66,)
    assert signature_collected(m, 8) == signature_collected_source(m, 8) == 0
    # called directly, every route still computes, and gives the same 0
    rng = random.Random(23)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=6) for _ in range(6)]
    dims = {(d, k): multiple_point_dimension(d, k) for d in models for k in range(1, 5)}
    cases = [(d, k) for (d, k), ns in dims.items()
             if max(ns) >= 0 and all(n < 0 or n % 4 for n in ns)]
    assert len(cases) >= 10
    for d, k in cases:
        assert all(route(d, k) == 0 for route in SIGNATURE_ROUTES.values()), (d.name, k)

    def unavailable(*args, **kwargs):
        raise AssertionError("no route runs when the degrees decide the signature")

    for name in SIGNATURE_ROUTES:
        monkeypatch.setitem(SIGNATURE_ROUTES, name, unavailable)
    monkeypatch.setattr(signatures, "_transfer", unavailable)
    start = time.perf_counter()
    for route in (*SIGNATURE_ROUTES, "auto"):
        assert signature(m, 8, route=route) == 0, route
    assert time.perf_counter() - start < 0.1
    with pytest.raises(AssertionError, match="no route runs"):
        signature(m, 7, route="collected")  # dimension 68: the route runs


def _m12_model():
    # the largest of six draws: m = 12, codim 4, source top degree 24
    rng = random.Random(58)
    draws = [random_truncated_model(rng, max_powers=12, allow_zero_euler=False)
             for _ in range(6)]
    m = max(draws, key=lambda d: len(d.source.labels))
    assert (len(m.source.labels) - 1, m.codim, m.source.max_degree) == (12, 4, 24)
    return m


def _kernel_calls(monkeypatch, models):
    """Count the ring products and map calls from here on, and fail any map
    call on a zero dict or on one whose image lies above the codomain's
    largest degree; a map is one of the models', which raises its degree by
    0 (pullback) or by the codimension (pushforward)."""
    calls = {"mul": 0, "map": 0}
    shifts = {id(m.pullback): 0 for m in models}
    shifts.update((id(m.pushforward), m.codim) for m in models)
    mul_coords, apply_coords = GradedRing.mul_coords, LinearMap.apply_coords

    def counted_mul(ring, a, b):
        calls["mul"] += 1
        return mul_coords(ring, a, b)

    def checked_map(linmap, coords):
        calls["map"] += 1
        assert coords, "a zero class was mapped"
        lowest = min(linmap.domain.degrees[i] for i in coords)
        assert lowest + shifts[id(linmap)] <= linmap.codomain.max_degree, \
            "a class was mapped whose image lies above the top degree"
        return apply_coords(linmap, coords)

    monkeypatch.setattr(GradedRing, "mul_coords", counted_mul)
    monkeypatch.setattr(LinearMap, "apply_coords", checked_map)
    return calls


def test_transfer_on_an_empty_locus_does_no_work(monkeypatch):
    # (k-1)*codim above the source's top degree and k*codim above the
    # target's: zero at once, with no ring product and no map call
    cases = []
    for m in [bundled_model(name) for name in BUNDLED] + [_m12_model()]:
        k = max(m.source.max_degree, m.target.max_degree) // m.codim + 2
        cases.append((m, k, [m.l_source] + [m.l_normal_inverse] * (k - 1)))
    calls = _kernel_calls(monkeypatch, [m for m, _, _ in cases])
    for m, k, factors in cases:
        assert all(d < 0 for d in multiple_point_dimension(m, k))
        for to_target in (False, True):
            assert signatures._transfer(m, factors, to_target).is_zero(), (m.name, k)
    assert calls == {"mul": 0, "map": 0}
    for m, k, _ in cases:
        assert signature_via_source(m, k) == signature_via_target(m, k) == 0


def test_transfer_maps_no_zero_or_vanishing_block(monkeypatch):
    rng = random.Random(29)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=8) for _ in range(4)]
    models.append(disjoint_union(random_union_components(rng, 2)))
    cases = [(m, [_random_class(rng, m.source) for _ in range(k)])
             for m in models for k in range(1, 8)]
    cases += [(m, [m.l_source] + [m.l_normal_inverse] * (k - 1))
              for m in models for k in range(1, 8)]
    calls = _kernel_calls(monkeypatch, models)
    for m, factors in cases:
        for to_target in (False, True):
            signatures._transfer(m, factors, to_target)
    assert calls["map"] > 0


def test_transfer_products_stay_within_the_subset_bound(monkeypatch):
    # m = 11, codim 2: every k up to 8 leaves room under the top degree
    m = random_truncated_model(random.Random(19), max_powers=12, allow_zero_euler=False)
    rng = random.Random(31)
    cases = [[_random_class(rng, m.source) for _ in range(k)] for k in range(1, 9)]
    cases += [[m.l_source] + [m.l_normal_inverse] * (k - 1) for k in range(1, 9)]
    calls = _kernel_calls(monkeypatch, [m])
    for factors in cases:
        k = len(factors)
        for to_target in (False, True):
            calls["mul"] = 0
            signatures._transfer(m, factors, to_target)
            assert calls["mul"] <= 2 ** k - 2 + (3 ** (k - 1) - 1) // 2, (k, to_target)
            assert k == 1 or calls["mul"] > 0


def test_general_via_n_and_collected_vanish_on_the_m12_model():
    # (k-1)*codim = 28, 36, 44 exceeds the source's top degree 24
    m = _m12_model()
    for k in (8, 10, 12):
        assert signature_via_source(m, k) == signature_via_target(m, k) \
            == signature_collected(m, k) == 0, k


def test_transfer_arity_mismatch():
    m = bundled_model("line-in-plane")
    x = cross([m.source.unit()] * 2)
    with pytest.raises(Exception):
        transfer_to_source(m, 3, x)


# ---------------------------------------------------------------------------
# Signature routes
# ---------------------------------------------------------------------------


def test_signature_k1_is_ordinary_signature():
    for name, sig in [("hypersurface-d1", 1), ("hypersurface-d2", 0),
                      ("hypersurface-d3", -5), ("hypersurface-d4", -16),
                      ("line-in-plane", 0), ("nullhomotopic-cp2-in-s6", 1)]:
        m = bundled_model(name)
        assert signature(m, 1, route="auto") == sig
        assert m.l_source.integrate() == sig


def test_signature_routes_agree_on_bundled():
    from multipoint.models import BUNDLED
    for name in BUNDLED:
        m = bundled_model(name)
        for k in range(1, 5):
            vals = {signature_via_source(m, k), signature_via_target(m, k),
                    signature_collected(m, k), signature_collected_source(m, k),
                    (m.l_target * virtual_signature_class(m, k)).integrate() / factorial(k)}
            assert len(vals) == 1, (name, k, vals)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_signature_routes_and_oracle_agree_at_high_k(k):
    for name in BUNDLED:
        m = bundled_model(name)
        values = {route: fn(m, k) for route, fn in SIGNATURE_ROUTES.items()}
        assert len(set(values.values())) == 1, (name, k, values)
        if k <= DEFAULT_CAP:
            assert signature_enumerated(m, k).value == values["general"], (name, k)
            assert virtual_signature_class(m, k) == virtual_class_enumerated(m, k).value, \
                (name, k)


def reference_signature_collected(m, k):
    """The collected target route as the explicit sum over type vectors."""
    u, e = m.l_normal_inverse, m.euler
    blocks = [m.pushforward(e ** (i - 1) * u ** i) for i in range(1, k + 1)]
    total = Fraction(0)
    for tv in type_vectors(k):
        coeff = Fraction((-1) ** (k - sum(tv)))
        cls = m.l_target
        for i, mult in enumerate(tv, start=1):
            if mult:
                coeff /= i ** mult * factorial(mult)
                cls = cls * blocks[i - 1] ** mult
        total += coeff * cls.integrate()
    return total


def reference_signature_collected_source(m, k):
    """The collected source route as the explicit sum over marked type
    vectors: the block of the first point keeps its Euler-power weight."""
    u, e = m.l_normal_inverse, m.euler
    pushed = [m.pushpull(e ** (i - 1) * u ** i) for i in range(1, k + 1)]
    total = Fraction(0)
    for first_size, tv in marked_type_vectors(k):
        coeff = Fraction((-1) ** (k - 1 - sum(tv)), k)
        cls = m.l_source * e ** (first_size - 1) * u ** (first_size - 1)
        for i, mult in enumerate(tv, start=1):
            if mult:
                coeff /= i ** mult * factorial(mult)
                cls = cls * pushed[i - 1] ** mult
        total += coeff * cls.integrate()
    return total


def test_collected_routes_match_type_vector_sums():
    # the bundled signatures vanish for degree reasons from k = 4 on; two of
    # these random models (sources of degree 20 and 22, nonzero Euler class)
    # have nonzero signatures at k = 9 and at k = 10
    rng = random.Random(58)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=12, allow_zero_euler=False)
               for _ in range(4)]
    nonzero = set()
    for m in models:
        for k in range(1, 11):
            collected = signature_collected(m, k)
            assert collected == reference_signature_collected(m, k), (m.name, k)
            assert signature_collected_source(m, k) == collected, (m.name, k)
            assert reference_signature_collected_source(m, k) == collected, (m.name, k)
            if collected:
                nonzero.add(k)
    assert {9, 10} <= nonzero


def test_collected_routes_need_no_partitions_or_transfer(monkeypatch):
    m = bundled_model("hypersurface-d3")
    expected = [signature(m, k, route="general") for k in range(1, 5)]

    def unavailable(*args, **kwargs):
        raise AssertionError("the collected routes must not enumerate partitions")

    monkeypatch.setattr(partitions, "all_partitions", unavailable)
    monkeypatch.setattr(signatures, "_transfer", unavailable)
    for k in range(1, 5):
        assert signature_collected(m, k) == expected[k - 1]
        assert signature_collected_source(m, k) == expected[k - 1]


def reference_exponential_coefficients(m, k, to_target):
    """E_0..E_k of the normal blocks as GradedClass objects, built afresh on
    every call: b_i = img(e^(i-1) * u^i), u = L(normal)^-1, img the
    pushforward or pullback(pushforward(.)), and n * E_n = sum_{i=1..n}
    (-1)^(i-1) b_i E_{n-i}."""
    image_of = m.pushforward if to_target else m.pushpull
    u = m.l_normal_inverse
    eu = m.euler * u
    classes = [u]
    for _ in range(k - 1):
        classes.append(classes[-1] * eu)
    blocks = [image_of(cls) for cls in classes[:k]]
    unit = (m.target if to_target else m.source).unit()
    coeffs = [unit]
    for n in range(1, k + 1):
        acc = unit.ring.zero()
        for i in range(1, n + 1):
            term = blocks[i - 1] * coeffs[n - i]
            acc = acc + term if i % 2 else acc - term
        coeffs.append(Fraction(1, n) * acc)
    return coeffs


def reference_collected_values(m, k):
    """The collected signature, the collected-source signature and the
    collected virtual class from the GradedClass recursion."""
    E = reference_exponential_coefficients(m, k, to_target=True)[k]
    F = reference_exponential_coefficients(m, k - 1, to_target=False)
    eu = m.euler * m.l_normal_inverse
    acc = F[0]
    for f in F[1:]:
        acc = f - eu * acc
    return ((m.l_target * E).integrate(), (m.l_source * acc).integrate() / k,
            factorial(k) * E)


def _collected_values(m, k):
    return (signature_collected(m, k), signature_collected_source(m, k),
            virtual_signature_class(m, k))


def _copy(m):
    return model_from_dict(model_to_dict(m))


def _memo_models():
    rng = random.Random(41)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=8, allow_zero_euler=False)
               for _ in range(3)]
    models += [random_truncated_model(rng) for _ in range(2)]
    models.append(disjoint_union(random_union_components(rng, 2)))
    return models


def test_collected_kernel_matches_the_graded_class_recursion():
    # queried in descending and in interleaved k order on copies of one
    # model, and at one k only on a fresh copy: the memo must not matter
    nonzero = 0
    for m in _memo_models():
        descending, interleaved = _copy(m), _copy(m)
        expected = {k: reference_collected_values(_copy(m), k) for k in range(1, 9)}
        for k in range(8, 0, -1):
            assert _collected_values(descending, k) == expected[k], (m.name, k)
        for k in (3, 8, 1, 5, 2, 7, 4, 6, 3, 8):
            assert _collected_values(interleaved, k) == expected[k], (m.name, k)
        for k in range(1, 9):
            assert _collected_values(_copy(m), k) == expected[k], (m.name, k)
            nonzero += k >= 3 and expected[k][0] != 0
    assert nonzero >= 4


def test_models_built_from_one_dict_share_no_memo():
    # load_model shares one model per file text; model_from_dict builds anew
    obj = model_to_dict(random_truncated_model(random.Random(43), max_powers=8,
                                               allow_zero_euler=False))
    a, b = model_from_dict(obj), model_from_dict(obj)
    # k = 2 is the largest k with a nonempty k-tuple manifold on this m = 1
    # model; above it the routes return 0 before building any chain
    values = _collected_values(a, 2) + (signature_via_target(a, 2),)
    assert not any(isinstance(key, tuple) for key in b._cache)
    assert _collected_values(b, 2) + (signature_via_target(b, 2),) == values
    memo_keys = sorted(key[0] for key in a._cache if isinstance(key, tuple))
    # one chain per normal class, and the pushed transfer that the virtual
    # class checks against and the via-N route pairs, one per k
    assert memo_keys == ["collected", "via-N"]
    assert sorted(key[0] for key in b._cache if isinstance(key, tuple)) == memo_keys
    for key in (key for key in a._cache if isinstance(key, tuple)):
        ma, mb = a._cache[key], b._cache[key]
        assert ma is not mb
        if key[0] == "via-N":
            assert ma == mb and ma.coords is not mb.coords
            continue
        assert ma.coeffs == mb.coeffs and ma.blocks == mb.blocks and ma.pulled == mb.pulled
        assert ma.coeffs is not mb.coeffs and ma.blocks is not mb.blocks
        assert ma.pulled is not mb.pulled
        assert all(x is not y for x, y in zip(ma.coeffs[1:], mb.coeffs[1:]))


def test_signature_keeps_one_collected_chain_per_normal_class():
    # the source route reads F_n = f*(E_n) from the target chain: no chain
    # of its own, and every F_n it read is kept on the target chain; the
    # routes are called directly, since signature returns 0 before any route
    # when no k-tuple dimension is 0 mod 4 (herbert where its hypothesis holds)
    for m in _memo_models():
        routes = [route for name, route in SIGNATURE_ROUTES.items()
                  if name != "herbert" or signatures._herbert_refusal(m) is None]
        for k in range(1, 6):
            for route in routes:
                route(m, k)
        keys = [key for key in m._cache if isinstance(key, tuple) and key[0] == "collected"]
        assert keys == [("collected", m.l_normal_inverse)], m.name
        chain = m._cache[keys[0]]
        assert len(chain.pulled) == len(chain.coeffs) - 1 >= 1, m.name
        for n, f in enumerate(chain.pulled):
            assert graded.GradedClass(m.source, f) == \
                m.pullback(graded.GradedClass(m.target, chain.coeffs[n])), (m.name, n)


def test_repeated_collected_calls_map_nothing(monkeypatch):
    models = [bundled_model("hypersurface-d3"), bundled_model("two-lines"),
              random_truncated_model(random.Random(19), max_powers=6, allow_zero_euler=False)]
    for m in models:
        m.l_target, m.l_source, m.l_normal_inverse  # derived classes map too
    calls = {"map": 0}
    apply_coords = LinearMap.apply_coords

    def counted_map(linmap, coords):
        calls["map"] += 1
        return apply_coords(linmap, coords)

    monkeypatch.setattr(LinearMap, "apply_coords", counted_map)
    for m in models:
        for k in range(1, 7):
            signature_collected(m, k), signature_collected_source(m, k)
    assert calls["map"] > 0
    calls["map"] = 0
    for m in models:
        for k in range(6, 0, -1):
            signature_collected(m, k), signature_collected_source(m, k)
    assert calls["map"] == 0


def test_signature_two_lines_double_point():
    # one transverse intersection point: sigma of a point is 1
    assert signature(bundled_model("two-lines"), 2, route="auto") == 1


def test_signature_embedding_vanishes_for_higher_k():
    for name in ("line-in-plane", "hypersurface-d2", "line-in-quadric"):
        m = bundled_model(name)
        for k in (2, 3):
            assert signature(m, k, route="auto") == 0, (name, k)


def test_signature_invalid_k():
    with pytest.raises(ValueError):
        signature(bundled_model("line-in-plane"), 0)
    with pytest.raises(ValueError):
        signature(bundled_model("line-in-plane"), 1, route="bogus")


def test_evaluate_gives_the_value_of_each_public_function_with_its_warnings():
    # every quantity on every bundled model at k = 1..6: the signature by
    # each route, bk, and each number of a J whose degree sum is a k-tuple
    # dimension; the warnings are zero_warning's reason for the signature
    # and bk, else, for the signature, that no dimension is 0 mod 4, and the
    # number's own, as compute prints them
    MultipointResult = signatures.MultipointResult
    numbers, nonzero = 0, 0
    for name in sorted(BUNDLED):
        m = bundled_model(name)
        assert validate(m).ok
        for k in range(1, 7):
            dims = multiple_point_dimension(m, k)
            dim = dims[0] if len(dims) == 1 else None
            zero = [] if (why := zero_warning(m, k)) is None else [why]
            off = [] if zero or any(d >= 0 and d % 4 == 0 for d in dims) else [
                f"no k-tuple dimension in {dims} is a nonnegative multiple of 4; "
                "the pairing vanishes"]
            for route in (*SIGNATURE_ROUTES, "auto"):
                assert signatures.evaluate(m, k, "signature", route=route) == MultipointResult(
                    k, "signature", signature(m, k, route=route), dim, zero + off), (name, k, route)
            assert signatures.evaluate(m, k, "bk") == MultipointResult(
                k, "bk", virtual_signature_class(m, k), dim, zero), (name, k)
            for d in (d for d in dims if d >= 0):
                for quantity, fn, step in (("pontrjagin", pontrjagin_number, 4),
                                           ("chern", chern_number, 2)):
                    if quantity == "chern" and m.chern_source is None:
                        continue
                    for J in {(d,), (step,) * (d // step)}:
                        result = signatures.evaluate(m, k, quantity, J)
                        assert result == fn(m, k, J), (name, k, J)
                        numbers, nonzero = numbers + 1, nonzero + (result.value != 0)
    assert numbers >= 40 and nonzero >= 10, (numbers, nonzero)


@pytest.mark.parametrize("quantity, J, route", [
    ("bk", None, "general"), ("pontrjagin", (4,), "via-N"), ("chern", (2,), "collected"),
    ("signature", (4,), "auto"), ("bk", (), "auto"), ("pontrjagin", None, "auto"),
    ("chern", None, "auto")])
def test_evaluate_refuses_a_route_or_index_sequence_its_quantity_does_not_take(quantity, J, route):
    with pytest.raises(ValueError, match=f"^{quantity} takes"):
        signatures.evaluate(bundled_model("line-in-quadric"), 1, quantity, J, route)


@pytest.mark.parametrize("quantity", ["pontrjagin=4", "Signature", "", None, ["bk"], "q" * 5000])
def test_evaluate_refuses_an_unknown_quantity_by_name(quantity):
    with pytest.raises(ValueError, match="^unknown quantity") as exc:
        signatures.evaluate(_d3(), 1, quantity)
    assert len(str(exc.value)) < 200


def test_the_public_signature_functions_build_no_record_and_no_message(monkeypatch):
    # signature and virtual_signature_class are the library's hot path: the
    # bookkeeping of evaluate (a record, a zero reason's text) stays off it
    def refuse(*args, **kwargs):
        raise AssertionError("a record or a message was built")

    monkeypatch.setattr(signatures.MultipointResult, "__init__", refuse)
    monkeypatch.setattr(signatures, "_shown", refuse)  # a zero reason's text reads it
    for name in sorted(BUNDLED):
        m = bundled_model(name)
        assert validate(m).ok
        for k in (*range(1, 7), 10 ** 6):
            for route in (*SIGNATURE_ROUTES, "auto"):
                signature(m, k, route=route)
            virtual_signature_class(m, k)


def _k_entry_points():
    """Every public function of formulas and signatures and every oracle
    entry point that runs the entry checks, as name -> (function, its valid
    arguments at k = 2 by parameter name, in parameter order).  herbert is
    there once per model that meets a different part of its hypothesis: e
    and L(normal) pulled back, f*f_! = 0 with f_! = 0, and f*f_! = 0 with
    e not pulled back; the herbert signature route is "herbert-route"."""
    d3, quadric = bundled_model("hypersurface-d3"), bundled_model("line-in-quadric")
    plane, null_push, cp2 = map(bundled_model, ("line-in-plane", "null-pushforward",
                                                "nullhomotopic-cp2-in-s6"))
    x = graded.TensorClass(d3.source, 2, {(0, 0): 1})
    coeffs = [Fraction(1, n) for n in range(1, DEFAULT_CAP + 1)]  # one per k the oracle takes
    on_d3 = {"model": d3, "k": 2}
    calls = {name: (fn, on_d3) for name, fn in SIGNATURE_ROUTES.items()}
    calls.update({
        "signature": (signature, {**on_d3, "route": "auto"}),
        "evaluate": (signatures.evaluate,
                     {**on_d3, "quantity": "signature", "J": None, "route": "auto"}),
        "multiple_point_dimension": (multiple_point_dimension, on_d3),
        "zero_warning": (zero_warning, on_d3),
        "genus": (formulas.genus, {**on_d3, "log_coeffs": (0, 1), "chern": False}),
        "pontrjagin_number": (pontrjagin_number, {**on_d3, "J": (4,)}),
        "chern_number": (chern_number, {"model": quadric, "k": 2, "J": (2,)}),
        "virtual_signature_class": (virtual_signature_class, on_d3),
        "transfer_to_source": (transfer_to_source, {**on_d3, "x": x}),
        "transfer_to_target": (transfer_to_target, {**on_d3, "x": x}),
        "transfer_of_unit": (transfer_of_unit, on_d3),
        "herbert": (herbert, {"model": plane, "k": 2, "J": None}),
        "herbert-null-pushforward": (herbert, {"model": null_push, "k": 2, "J": None}),
        "herbert-cp2-in-s6": (herbert, {"model": cp2, "k": 2, "J": None}),
        "herbert-route": (SIGNATURE_ROUTES["herbert"], on_d3),
        "signature_enumerated": (signature_enumerated, on_d3),
        "virtual_class_enumerated": (virtual_class_enumerated, on_d3),
        "transfer_to_source_enumerated": (transfer_to_source_enumerated, {**on_d3, "x": x}),
        "transfer_to_target_enumerated": (transfer_to_target_enumerated, {**on_d3, "x": x}),
        "compose_enumerated": (oracle.compose_enumerated, {
            "outer_coeffs": coeffs, "inner_coeffs": coeffs, "k": 2}),
        "double_composition_enumerated": (oracle.double_composition_enumerated, {
            "a": coeffs, "b": coeffs, "c": coeffs, "k": 2}),
        "recursion_identity_holds": (recursion_identity_holds, {**on_d3, "x": x}),
    })
    return calls


def test_every_public_function_runs_the_entry_checks():
    public = {name for module in (formulas, signatures) for name, fn in vars(module).items()
              if callable(fn) and not isinstance(fn, type) and not name.startswith("_")
              and fn.__module__ == module.__name__}
    table = {fn.__name__ for fn, _ in _k_entry_points().values()}
    assert public <= table, public - table
    for fn, args in _k_entry_points().values():
        assert fn.__code__.co_varnames[:len(args)] == tuple(args), fn.__name__


@pytest.mark.parametrize("name", sorted(_k_entry_points()))
@pytest.mark.parametrize("k", [1.5, 2.0, Fraction(2), True, "2"], ids=repr)
def test_a_multiplicity_that_is_not_an_int_is_refused(name, k):
    fn, args = _k_entry_points()[name]
    fn(*args.values())  # the entry point accepts the int k = 2
    with pytest.raises(ValueError, match="multiplicity k must be an int"):
        fn(*{**args, "k": k}.values())


# values of the kinds no entry check may let through as a stray exception
_JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=6),
    st.dictionaries(st.integers(-4, 4), st.integers(-4, 4), max_size=3),
    st.recursive(st.integers(-4, 8), lambda inner: st.lists(inner, max_size=3)
                 | st.tuples(inner, inner), max_leaves=6),
    st.integers(-2 ** 4000, 2 ** 4000).filter(lambda n: abs(n) > 2 ** 64),
)


@pytest.mark.parametrize("name", sorted(_k_entry_points()))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_checked_argument_returns_or_raises_value_error(name, data):
    # one argument at a time is replaced, the others stay valid; the
    # oracle's coefficient lists take any values with + and *, so only the
    # parameters that the entry checks name are drawn
    fn, args = _k_entry_points()[name]
    param = data.draw(st.sampled_from([p for p in args if p in CHECKED_PARAMETERS]))
    value = data.draw(_JUNK)
    call = {**args, param: value}
    start = time.perf_counter()
    try:
        if data.draw(st.booleans()):
            fn(**call)
        else:
            fn(*call.values())
    except ValueError:
        pass
    assert time.perf_counter() - start < 2, (param, value)


def _d3():
    return bundled_model("hypersurface-d3")


def _t2():
    return truncated_polynomial_ring("t", 2)


def _h3():
    return truncated_polynomial_ring("h", 3)


@pytest.mark.parametrize("call, error, match", [
    (lambda: formulas.genus(_d3(), 1, None), graded.GradedAlgebraError, "^log_coeffs must"),
    (lambda: formulas.genus(_d3(), 1, 5), graded.GradedAlgebraError, "^log_coeffs must"),
    (lambda: formulas.genus(_d3(), 1, "ab"), graded.GradedAlgebraError, "^log_coeffs must"),
    (lambda: formulas.genus(_d3(), 1, {1: 2}), graded.GradedAlgebraError, "^log_coeffs must"),
    (lambda: signature(None, 2), ModelError, "^model must"),
    (lambda: pontrjagin_number(None, 2, (4,)), ModelError, "^model must"),
    (lambda: multiple_point_dimension(None, 2), ModelError, "^model must"),
    (lambda: transfer_of_unit(None, 2), ModelError, "^model must"),
    (lambda: virtual_signature_class(None, 2), ModelError, "^model must"),
    (lambda: disjoint_union([_d3(), 5]), ModelError, "^models must"),
    (lambda: disjoint_union(_d3()), ModelError, "^models must"),
    (lambda: disjoint_union(5), ModelError, "^models must"),
    (lambda: disjoint_union("ab"), ModelError, "^models must"),
    (lambda: disjoint_union([_d3(), "x"]), ModelError, "^models must"),
    (lambda: transfer_to_source(_d3(), 2, None), graded.GradedAlgebraError, "^x must"),
    (lambda: zero_warning(_d3(), 0), ValueError, "multiplicity k must be at least 1"),
    (lambda: zero_warning(_d3(), "a"), ValueError, "multiplicity k must be an int"),
    (lambda: oracle.compose_enumerated([1, Fraction(-1, 2)], [1, Fraction(-1, 2)], 3),
     ValueError, "^outer_coeffs must be a list or tuple of at least k = 3 coefficients$"),
    (lambda: oracle.compose_enumerated([1, 2, 3], 5, 3),
     ValueError, "^inner_coeffs must be a list or tuple of at least k = 3"),
    (lambda: oracle.double_composition_enumerated([1] * 3, [1] * 3, [1, 2], 3),
     ValueError, "^c must be a list or tuple of at least k = 3"),
    (lambda: _t2().unit() + _h3().unit(), graded.GradedAlgebraError,
     "^classes live in different rings$"),
    (lambda: graded.TensorClass(_t2(), 2, {(0,): 1}), graded.GradedAlgebraError,
     r"^term \(0,\) has wrong arity$"),
    (lambda: cross([_t2().unit()] * 2) + cross([_t2().unit()] * 3), graded.GradedAlgebraError,
     "^tensor classes are not compatible$"),
    (lambda: cross([]), graded.GradedAlgebraError, "^cross product needs at least one factor$"),
    (lambda: cross([_t2().unit(), _h3().unit()]), graded.GradedAlgebraError,
     "^cross product factors live in different rings$"),
    (lambda: (m := bundled_model("hypersurface-d2")).pullback(m.source.unit()), ModelError,
     "^class is not in the domain of the map$"),
    (lambda: bundled_model("hypersurface-d2").normal_chern, ModelError,
     "^model carries no Chern data$"),
    (lambda: truncated_monomial_ring(("x",), -1), ValueError,
     "^the degree cut must be nonnegative$"),
    (lambda: bundled_model("nope"), KeyError,
     f"unknown bundled model 'nope'; choices: {', '.join(sorted(BUNDLED))}"),
], ids=["genus-None", "genus-int", "genus-str", "genus-dict", "signature-None",
        "pontrjagin-None", "dimension-None", "unit-transfer-None", "virtual-class-None",
        "union-with-an-int", "union-of-a-model", "union-of-an-int", "union-of-a-string",
        "union-with-a-string", "transfer-x-None",
        "warning-k-0", "warning-k-str", "compose-short-lists",
        "compose-int-list", "double-composition-short-list", "classes-of-two-rings",
        "tensor-term-of-wrong-arity", "tensors-of-two-arities", "cross-of-nothing",
        "cross-of-two-rings", "pullback-of-a-source-class", "chern-normal-without-chern-data",
        "negative-degree-cut", "unknown-bundled-model"])
def test_an_argument_that_escaped_before_is_refused_by_name(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_entry_checks_read_keywords_and_defaults_and_leave_a_missing_argument_to_python():
    d3, plane = _d3(), bundled_model("line-in-plane")
    with pytest.raises(ValueError, match="unknown signature route"):
        signature(model=d3, k=2, route="nonesuch")
    with pytest.raises(ModelError, match="^model must"):
        signature(None, "a", route=5)  # parameter order: model first
    with pytest.raises(ValueError, match="oracle refuses k=8"):
        signature_enumerated(d3, k=8)  # the oracle's cap, checked in its body
    # None passes only where the function's default for J is None
    assert herbert(plane, 2, None) == herbert(plane, k=2)
    with pytest.raises(graded.GradedAlgebraError, match="index sequence"):
        pontrjagin_number(d3, 2, J=None)
    with pytest.raises(TypeError, match="missing"):
        signature(d3)
    with pytest.raises(TypeError, match="missing"):
        transfer_to_source(d3, x=graded.TensorClass(d3.source, 2, {(0, 0): 1}))
    assert signature.__name__ == "signature"


def test_signature_nullhomotopic_triple_point():
    # frozen: enumeration oracle and the closed Euler-power formula agree
    m = bundled_model("nullhomotopic-cp2-in-s6")
    assert signature(m, 3, route="auto") == 3
    assert herbert(m, 3) == 3


# ---------------------------------------------------------------------------
# Virtual signature class
# ---------------------------------------------------------------------------


def test_virtual_class_k1():
    m = bundled_model("hypersurface-d3")
    assert virtual_signature_class(m, 1) == m.pushforward(m.l_normal_inverse)


def test_virtual_class_embedding_vanishes():
    m = bundled_model("line-in-plane")
    assert virtual_signature_class(m, 2).is_zero()
    assert virtual_signature_class(m, 3).is_zero()


def test_virtual_class_two_lines():
    u = bundled_model("two-lines")
    assert virtual_signature_class(u, 2) == 2 * u.target.basis_class(2)


def test_virtual_class_pairs_to_signature():
    rng = random.Random(4)
    for _ in range(5):
        m = random_truncated_model(rng)
        for k in range(1, 5):
            cls = virtual_signature_class(m, k)
            pairing = (m.l_target * cls).integrate() / factorial(k)
            assert pairing == signature(m, k, route="auto")


def test_hypersurface_virtual_class_is_tanh_of_pushed_unit():
    # codim-2 embedding: B_1 = tanh(f_!(1)) as a nilpotent series
    for d in range(1, 5):
        m = bundled_model(f"hypersurface-d{d}")
        en = m.pushforward(m.source.unit())
        coeffs = tanh_coeffs(m.target.top_degree // 2 + 1)
        assert virtual_signature_class(m, 1) == eval_series(en, coeffs)


def test_union_convolution_matches_direct():
    # the union's class from its one chain against the enumeration oracle on
    # the union, which sums every partition with no collected chain
    rng = random.Random(8)
    for _ in range(4):
        comps = random_union_components(rng, rng.randint(2, 3))
        u = disjoint_union(comps)
        for k in range(1, 6):
            assert virtual_signature_class(u, k) == virtual_class_enumerated(u, k).value


def test_union_convolution_single_component_degenerates():
    m = bundled_model("hypersurface-d2")
    for k in range(1, 4):
        assert virtual_signature_class(disjoint_union([m]), k) == virtual_signature_class(m, k)


def test_union_convolution_checks_once_on_the_union(monkeypatch):
    # source dimension 2, codim 2: the double-point manifold is a point and
    # the 6-tuple one is empty, so its class is 0 with no check at all
    u = disjoint_union(random_union_components(random.Random(8), 3))
    calls = []
    transfer = signatures._transfer
    monkeypatch.setattr(signatures, "_transfer",
                        lambda *a, **kw: calls.append(a) or transfer(*a, **kw))
    expected = virtual_class_enumerated(u, 2).value
    assert virtual_signature_class(u, 2) == expected
    assert len(calls) == 1
    assert virtual_signature_class(u, 2) == expected
    assert virtual_signature_class(u, 6).is_zero()
    assert len(calls) == 1


def test_signature_then_bk_share_one_closed_form_memo(monkeypatch):
    # the herbert route and the virtual class's check read one memo of
    # Herbert's closed form per model, which the virtual class extends by
    # one power; neither runs the subset kernel
    built, transfers = [], []
    monkeypatch.setattr(signatures, "_transfer", lambda *args: transfers.append(args))
    monkeypatch.setattr(signatures._Herbert, "__init__", lambda self, m, init=(
        signatures._Herbert.__init__): built.append(m) or init(self, m))
    for name, k in (("two-lines", 2), ("hypersurface-d3", 1)):
        m = bundled_model(name)
        built.clear()
        value = signature(m, k)
        memo = m._cache["herbert"]
        assert built == [m] and len(memo.powers) == k, name
        cls = virtual_signature_class(m, k)
        assert built == [m] and m._cache["herbert"] is memo and len(memo.powers) == k + 1, name
        assert (m.l_target * cls).integrate() / factorial(k) == value, name
    assert transfers == []


def test_union_convolution_refuses_what_the_disjoint_union_refuses():
    m = bundled_model("hypersurface-d2")
    other = ImmersionModel(m.source, m.target, m.pullback, m.pushforward, m.codim, m.euler,
                           m.pontrjagin_source, m.target.unit())
    with pytest.raises(ModelError, match="Pontrjagin"):
        virtual_signature_class(disjoint_union([m, other]), 2)
    with pytest.raises(ModelError, match="target"):
        virtual_signature_class(disjoint_union([m, bundled_model("line-in-plane")]), 2)


def test_union_k1_is_additive():
    comps = [bundled_model("line-in-plane"), bundled_model("line-in-plane")]
    total = virtual_signature_class(disjoint_union(comps), 1)
    assert total == virtual_signature_class(comps[0], 1) + virtual_signature_class(comps[1], 1)


# ---------------------------------------------------------------------------
# Characteristic numbers
# ---------------------------------------------------------------------------


def test_pontrjagin_k1_ordinary():
    m = bundled_model("hypersurface-d3")
    res = pontrjagin_number(m, 1, [4])
    assert res.value == m.pontrjagin_source.degree_part(4).integrate()
    assert res.warnings == []


def test_pontrjagin_degree_mismatch_warns_and_vanishes():
    m = bundled_model("hypersurface-d3")
    res = pontrjagin_number(m, 2, [4])  # double-point surface is 2-dimensional
    assert res.value == 0
    assert res.warnings


def test_characteristic_numbers_warn_on_an_empty_locus():
    # (k-1)*codim = 6 exceeds the source dimensions 4 and 2
    d3, lines = bundled_model("hypersurface-d3"), bundled_model("two-lines")
    for m, res in ((d3, pontrjagin_number(d3, 4, [4])), (lines, chern_number(lines, 4, [2])),
                   (lines, chern_number(lines, 4, []))):
        assert res.value == 0
        assert [w for w in res.warnings if "point manifold is empty" in w] == \
            [zero_warning(m, 4)]
        assert "(k-1)*codim = 6" in zero_warning(m, 4)
    assert zero_warning(d3, 3) is None
    assert pontrjagin_number(d3, 3, [0]).warnings == []
    # once validated, the embedding's triple points are a provable 0
    assert validate(d3).ok
    res = pontrjagin_number(d3, 3, [0])
    assert res.value == 0 and res.warnings == [zero_warning(d3, 3)]
    assert "embedding" in res.warnings[0] and "point manifold is empty" not in res.warnings[0]


HUGE = 10 ** 5000  # past the interpreter's 4,300-digit int-to-str limit


def test_a_k_past_the_digit_limit_warns_by_digit_count():
    d3 = _d3()
    warning = zero_warning(d3, HUGE)
    assert warning == ("the <5001-digit integer>-tuple point manifold is empty: (k-1)*codim = "
                       "<5001-digit integer> exceeds the source dimension(s) (4,); the value is 0")
    res = pontrjagin_number(d3, HUGE, (4,))
    assert res.value == 0
    assert res.warnings == [
        "degree sum 4 does not match the k-tuple dimension(s) (-<5001-digit integer>,); "
        "the pairing vanishes", warning]
    # any one value past the limit is shown by its digit count alone, a
    # value within it in full
    assert zero_warning(bundled_model("two-lines"), HUGE) == (
        "the <5001-digit integer>-tuple point manifold is empty: (k-1)*codim = "
        "<5001-digit integer> exceeds the source dimension(s) (2,); the value is 0")
    assert pontrjagin_number(d3, 1, (HUGE,)).warnings == [
        "degree sum <5001-digit integer> does not match the k-tuple dimension(s) (4,); "
        "the pairing vanishes"]
    k = 10 ** 4299
    assert zero_warning(d3, k) == (f"the {k}-tuple point manifold is empty: (k-1)*codim = "
                                   f"{2 * k - 2} exceeds the source dimension(s) (4,); "
                                   "the value is 0")
    with pytest.raises(ValueError, match="^oracle refuses k=<5001-digit integer> beyond its cap"):
        signature_enumerated(d3, HUGE)
    with pytest.raises(ValueError, match="at least 1, got -<5001-digit integer>$"):
        signature(d3, -HUGE)


@pytest.mark.parametrize("call, error, names", [
    (lambda: signature(HUGE, 1), ModelError, "model must"),
    (lambda: signature(_d3(), Fraction(HUGE, 3)), ValueError, "multiplicity k"),
    (lambda: signature(_d3(), [HUGE]), ValueError, "multiplicity k"),
    (lambda: pontrjagin_number(_d3(), 1, [HUGE + 1]), graded.GradedAlgebraError,
     "index sequence entry"),
    (lambda: pontrjagin_number(_d3(), 1, HUGE), graded.GradedAlgebraError, "index sequence"),
    (lambda: signature(_d3(), 1, route=HUGE), ValueError, "signature route"),
    (lambda: formulas.genus(_d3(), 1, [0, 1], chern=HUGE), ValueError, "chern"),
    (lambda: formulas.genus(_d3(), 1, HUGE), graded.GradedAlgebraError, "log_coeffs"),
    (lambda: formulas.genus(_d3(), 1, [0, (HUGE,)]), graded.GradedAlgebraError,
     "coordinate (<5001-digit integer>,)"),
    (lambda: graded.exact((HUGE,)), graded.GradedAlgebraError, "coordinate (<5001-digit integer>,)"),
    (lambda: disjoint_union(HUGE), ModelError, "models must"),
    (lambda: GradedRing(["1"], [0], {(0, 0): {0: 1}}, {},
                        components=[graded.RingComponent("c", (0,), Fraction(HUGE, 3))]),
     graded.GradedAlgebraError, "component top degree"),
], ids=["model", "k-fraction", "k-list", "J-entry", "J", "route", "chern", "log_coeffs",
        "log_coeffs-entry", "exact", "disjoint_union", "component"])
def test_a_refused_value_past_the_digit_limit_is_shown_by_its_digit_count(call, error, names):
    # the documented class, not the interpreter's own ValueError from repr()
    with pytest.raises(ValueError) as info:
        call()
    text = str(info.value)
    assert type(info.value) is error, text
    assert names in text and "<5001-digit integer>" in text
    assert "Exceeds the limit" not in text


def test_an_int_is_shown_by_str_or_by_its_digit_count():
    # an int str() can render is rendered by it, so the warnings of every
    # usable k are unchanged; past the limit, near powers of ten too, the
    # digit count is exact
    for n, shown in ((10 ** 4300 - 1, str(10 ** 4300 - 1)),
                     (10 ** 4300, "<4301-digit integer>"),
                     (1 - 10 ** 4301, "-<4301-digit integer>"),
                     (-(10 ** 4301), "-<4302-digit integer>"),
                     (-7, "-7"), ((3,), "(3,)"), ((2, -6), "(2, -6)"),
                     ((HUGE,), "(<5001-digit integer>,)"), ([HUGE, 2], "[<5001-digit integer>, 2]"),
                     ([3, [HUGE]], "[3, [<5001-digit integer>]]")):
        assert records._shown(n) == shown


def test_chern_requires_data():
    m = bundled_model("hypersurface-d3")
    with pytest.raises(Exception):
        chern_number(m, 1, [4])


def test_chern_k1_ordinary():
    m = bundled_model("line-in-quadric")
    res = chern_number(m, 1, [2])
    assert res.value == m.chern_source.degree_part(2).integrate()
    assert res.value == 2  # Euler characteristic of the 2-sphere-like line


def test_characteristic_rejects_odd_degrees():
    m = bundled_model("line-in-plane")
    with pytest.raises(Exception):
        pontrjagin_number(m, 1, [3])


@pytest.mark.parametrize("entry", [Fraction(9, 2), 4.9, "4", False])
def test_characteristic_refuses_non_integer_entries(entry):
    # int(j) would truncate each of these to 4, or read False as 0
    m = bundled_model("hypersurface-d3")
    assert pontrjagin_number(m, 1, [4]).value == -15
    with pytest.raises(graded.GradedAlgebraError, match="not a nonnegative even integer"):
        pontrjagin_number(m, 1, [entry])
    with pytest.raises(graded.GradedAlgebraError, match="not a nonnegative even integer"):
        chern_number(bundled_model("line-in-plane"), 1, [entry])


@pytest.mark.parametrize("J", [None, 4], ids=repr)
def test_characteristic_refuses_a_missing_or_non_iterable_index_sequence(J):
    # neither may reach sum(J) or tuple(J) as a stray TypeError
    with pytest.raises(graded.GradedAlgebraError, match="index sequence"):
        pontrjagin_number(bundled_model("hypersurface-d3"), 1, J)
    with pytest.raises(graded.GradedAlgebraError, match="index sequence"):
        chern_number(bundled_model("line-in-plane"), 1, J)


def reference_characteristic_number(m, k, J, chern=False, transfer=transfer_to_source):
    """The cross route, production's before the genus route: the transfer
    of the degree-J part of the expanded tensor C x C(normal)^-1 x ... x
    C(normal)^-1, C the source's total Pontrjagin (or Chern) class."""
    total, normal = ((m.chern_source, m.normal_chern) if chern
                     else (m.pontrjagin_source, m.normal_pontrjagin))
    x = cross([total] + [normal.invert_unital()] * (k - 1)).select_degrees(J)
    value = transfer(m, k, x)
    return getattr(value, "value", value).integrate() / factorial(k)


def index_sequences(total):
    """Every J of positive even entries, in descending order, summing to total."""
    if total == 0:
        return [()]
    return [(j,) + rest for j in range(total, 0, -2)
            for rest in index_sequences(total - j) if not rest or rest[0] <= j]


def juxtaposed(models):
    """The model of several immersions into disjoint targets: source and
    target are product rings and every map and class is block-diagonal.
    Sources of different dimensions give k-tuple manifolds whose
    components have different dimensions."""
    source = product_ring([m.source for m in models])
    target = product_ring([m.target for m in models])
    pull, push = {}, {}
    blocks = {"euler": {}, "pontrjagin_source": {}, "pontrjagin_target": {},
              "chern_source": {}, "chern_target": {}}
    s = t = 0
    for m in models:
        for j, img in m.pullback.images.items():
            pull[j + t] = {i + s: v for i, v in img.items()}
        for i, img in m.pushforward.images.items():
            push[i + s] = {j + t: v for j, v in img.items()}
        for name, coords in blocks.items():
            off = t if name.endswith("target") else s
            coords.update({i + off: v for i, v in getattr(m, name).coords.items()})
        s, t = s + len(m.source.labels), t + len(m.target.labels)
    ring_of = {name: target if name.endswith("target") else source for name in blocks}
    classes = {name: ring_of[name].element(coords) for name, coords in blocks.items()}
    return ImmersionModel(source, target, LinearMap.from_coords(target, source, pull),
                          LinearMap.from_coords(source, target, push),
                          models[0].codim, name="juxtaposed", **classes)


def _pin_numbers(m, ks, reference):
    """Compare every Pontrjagin (and Chern) number with sum(J) a k-tuple
    dimension against the reference, both as the cost rule computes it
    and by the genus route alone; the count of numbers compared."""
    checked = 0
    for k in ks:
        dims = multiple_point_dimension(m, k)
        for d in dims:
            for J in index_sequences(d) if d >= 0 else ():
                for chern in (False, True) if m.chern_source is not None else (False,):
                    number = chern_number if chern else pontrjagin_number
                    want = reference(m, k, J, chern)
                    assert number(m, k, J).value == want, (m.name, k, J, chern)
                    if all(j % (2 if chern else 4) == 0 for j in J):
                        plan = formulas._genus_plan(J, formulas.CHARACTERISTIC[chern], dims)
                        assert formulas._number_from_genera(m, k, plan) == want, \
                            (m.name, k, J, chern)
                    checked += 1
    return checked


def test_characteristic_numbers_match_the_cross_route():
    rng = random.Random(21)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=p, with_chern=True) for p in (4, 4, 4, 6, 6, 6)]
    checked = sum(_pin_numbers(m, range(1, 7), reference_characteristic_number) for m in models)
    assert checked >= 140


def test_characteristic_numbers_match_the_oracle():
    # two draws have m = 5 and codim 2, so their k-tuple manifolds are
    # nonempty up to k = 6
    rng = random.Random(2)
    models = [bundled_model("two-lines"), bundled_model("hypersurface-d3")]
    models += [random_truncated_model(rng, max_powers=6, with_chern=True) for _ in range(3)]

    def oracle(m, k, J, chern):
        return reference_characteristic_number(m, k, J, chern, transfer_to_source_enumerated)
    assert sum(_pin_numbers(m, range(1, DEFAULT_CAP + 1), oracle) for m in models) >= 20


def test_characteristic_numbers_on_components_of_different_dimensions():
    # the k-tuple manifold has components of dimensions 4 and 8 (or more),
    # so its genera mix weights and the L point alone does not decide them
    rng = random.Random(23)
    mixed = 0
    while mixed < 3:
        a, b = (random_truncated_model(rng, max_powers=6, with_chern=True) for _ in range(2))
        if a.codim != b.codim or a.source.top_degree == b.source.top_degree:
            continue
        m = juxtaposed([a, b])
        assert validate(m).ok
        for k in (1, 2):
            weights = {d // 4 for d in multiple_point_dimension(m, k) if d >= 0 and d % 4 == 0}
            mixed += len(weights) > 1
        _pin_numbers(m, (1, 2, 3), reference_characteristic_number)


def test_characteristic_numbers_on_the_m12_model():
    m = _m12_model()
    start = time.perf_counter()
    assert pontrjagin_number(m, 6, (4,)).value == Fraction(1155, 4)
    assert time.perf_counter() - start < 0.1
    assert pontrjagin_number(m, 5, (4, 4)).value == 2016
    assert pontrjagin_number(m, 5, (8,)).value == Fraction(11277, 8)


def _unavailable(what):
    def unavailable(*args, **kwargs):
        raise AssertionError(f"this number must not {what}")
    return unavailable


def test_characteristic_numbers_at_large_k_use_no_cross_expansion(monkeypatch):
    # at k >= 3 the tensor expansion has n^k terms and the genus route runs
    rng = random.Random(24)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=5, with_chern=True) for _ in range(4)]
    expected = {(m.name, k, J, chern): reference_characteristic_number(m, k, J, chern)
                for m in models for k in (3, 4, 5, 6) for d in multiple_point_dimension(m, k)
                for J in {0: [()], 4: [(4,)]}.get(d, [])
                for chern in ((False, True) if m.chern_source is not None else (False,))}
    assert len(expected) >= 12
    expand = _unavailable("expand a cross product")
    monkeypatch.setattr(formulas, "cross", expand)
    monkeypatch.setattr(graded.TensorClass, "select_degrees", expand)
    monkeypatch.setattr(formulas, "_transfer", expand)
    by_name = {m.name: m for m in models}
    for (name, k, J, chern), value in expected.items():
        number = chern_number if chern else pontrjagin_number
        assert number(by_name[name], k, J).value == value, (name, k, J, chern)


def _complex_dimension_20_model():
    """Source Q[t]/t^21 in degree 2 immersed with codim 2, Chern data."""
    rng = random.Random(26)
    M = truncated_polynomial_ring("t", 20, integral_value=1)
    N = truncated_polynomial_ring("h", 21, integral_value=1)
    pull = LinearMap.from_coords(N, M, {j: ({j: 1} if j <= 20 else {}) for j in range(22)})
    push = LinearMap.from_coords(M, N, {i: {i + 1: 1} for i in range(21)})

    def total(ring, step):
        return ring.element({0: 1, **{i: rng.randint(-4, 4) for i, d in enumerate(ring.degrees)
                                      if d and d % step == 0}})
    return ImmersionModel(M, N, pull, push, 2, M.element({1: 1}), total(M, 4), total(N, 4),
                          chern_source=total(M, 2), chern_target=total(N, 2), name="dim-20")


def test_characteristic_numbers_of_large_weight_at_small_k_expand(monkeypatch):
    # p(20) = 627 power-sum numbers would decide a weight-20 number from
    # genera; at k = 1 and 2 the expansion has at most n^k terms and runs
    m = _complex_dimension_20_model()
    assert validate(m).ok
    cases = [(1, (2,) * 20), (1, (40,)), (1, (22, 18)), (2, (38,)), (2, (20, 10, 8)),
             (3, (36,))]
    expected = {(k, J): reference_characteristic_number(m, k, J, chern=True) for k, J in cases}
    monkeypatch.setattr(formulas, "_number_from_genera", _unavailable("interpolate genera"))
    start = time.perf_counter()
    for (k, J), value in expected.items():
        assert chern_number(m, k, J).value == value, (k, J)
    assert time.perf_counter() - start < 1


def test_degree_known_zeros_build_no_class(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("a zero known from the degrees must build no class")

    m = random_truncated_model(random.Random(19), max_powers=12, allow_zero_euler=False)
    monkeypatch.setattr(graded.GradedClass, "invert_unital", unavailable)
    for name in ("_exponential_coefficients", "_Chain"):
        monkeypatch.setattr(signatures, name, unavailable)
    monkeypatch.setattr(formulas, "cross", unavailable)
    monkeypatch.setattr(formulas, "_genus_classes", unavailable)
    start = time.perf_counter()
    res = pontrjagin_number(m, 20, (4,))  # a cross expansion would have 12^20 terms
    assert time.perf_counter() - start < 0.5
    assert res.value == 0
    assert res.warnings == [
        "degree sum 4 does not match the k-tuple dimension(s) (-16,); the pairing vanishes",
        zero_warning(m, 20)]
    d = multiple_point_dimension(m, 3)[0]
    assert d == 18
    for J in ((d,), (d - 2, 2)):  # a Pontrjagin part has degree 0 mod 4
        res = pontrjagin_number(m, 3, J)
        assert res.value == 0 and res.warnings == []


def test_genus_classes_invert_by_negating_the_log_coefficients():
    # exp(-x) = exp(x)^-1 in a nilpotent ring: the genus route and genus
    # build K(normal)^-1 as the genus class of -c, with no inversion
    rng = random.Random(27)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=8, with_chern=True) for _ in range(10)]
    checked = 0
    for m in models:
        order = max(m.source.max_degree, m.target.max_degree) // 2
        for chern in (False, True) if m.chern_source is not None else (False,):
            kind = formulas.CHARACTERISTIC[chern]
            _, total, normal = kind.classes(m)
            for c in (signature_genus_log_coeffs(order), (0, Fraction(-1, 24)), (0, 1, 2, -3)):
                target, inverse = formulas._genus_classes(m, kind, c)
                assert target == graded.genus_class(total, lambda n: c, kind.step), (m.name, chern, c)
                assert inverse == graded.genus_class(normal, lambda n: c, kind.step).invert_unital(), \
                    (m.name, chern, c)
                checked += 1
    assert checked >= 3 * (len(BUNDLED) + 3 + 2 * 10)


def test_genus_route_computes_each_power_sum_once(monkeypatch):
    # the interpolation points of the genus route, genus and the inverse
    # normal L-class all read the power sums memoised per class and step
    calls = []
    newton = graded._newton_power_sums

    def counted(P, step):
        calls.append((P, step))
        return newton(P, step)

    monkeypatch.setattr(graded, "_newton_power_sums", counted)
    m = random_truncated_model(random.Random(23), max_powers=8, with_chern=True)
    points = 0
    for k in range(1, 4):
        dims = multiple_point_dimension(m, k)
        for chern in (False, True):
            kind = formulas.CHARACTERISTIC[chern]
            for J in index_sequences(max(dims)):
                if all(j % kind.step == 0 for j in J):
                    plan = formulas._genus_plan(J, kind, dims)
                    formulas._number_from_genera(m, k, plan)
                    points += formulas._genus_point_count(plan)
            formulas.genus(m, k, (0, 1, Fraction(-1, 7)), chern=chern)
    m.l_normal_inverse
    assert points > 20
    assert sorted(step for _, step in calls) == [2, 2, 4, 4]
    assert len({(P, step) for P, step in calls}) == 4


def test_validate_l_classes_and_signature_run_one_newton_loop_per_class(monkeypatch):
    # every L-class reads the power sums memoised per class and step, so
    # each distinct class among P(source), P(target) and P(normal) runs
    # Newton's identities once; validation's L-class relation reads the
    # routes' classes, so f*P(target) runs none
    calls = []
    newton = graded._newton_power_sums

    def counted(P, step):
        calls.append((P, step))
        return newton(P, step)

    monkeypatch.setattr(graded, "_newton_power_sums", counted)
    rng = random.Random(29)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=8, with_chern=True) for _ in range(5)]
    for m in models:
        calls.clear()
        assert validate(m).ok, m.name
        m.l_source, m.l_target, m.l_normal_inverse
        for k in range(1, 4):
            signature(m, k)
        classes = (m.pontrjagin_source, m.pontrjagin_target, m.normal_pontrjagin)
        assert len(calls) == len(set(calls)), m.name
        assert set(calls) == {(P, 4) for P in classes}, m.name


def test_validation_builds_the_l_classes_the_signature_reads(monkeypatch):
    # validation's L-class relation reads L(source), L(target) and
    # L(normal)^-1, the classes the signature routes, the virtual class and
    # the precondition that L(normal) is pulled back from the target read,
    # so no query on a valid model builds another L-class
    built = []
    genus_coords = graded.genus_coords

    def counted(ring, terms):
        built.append(ring)
        return genus_coords(ring, terms)

    monkeypatch.setattr(graded, "genus_coords", counted)
    rng = random.Random(31)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=8, with_chern=True) for _ in range(5)]
    held = []
    for m in models:
        built.clear()
        assert validate(m).ok, m.name
        for k in range(1, 4):
            signature(m, k)
            virtual_signature_class(m, k)
        try:
            held.append(herbert(m, 2))
        except PreconditionError:
            pass
        # L(source) and L(normal)^-1 of unit classes read no coefficient and
        # are one entry of the source ring's memo
        assert len(built) == 3 - (m.pontrjagin_source == m.normal_pontrjagin == m.source.unit()), \
            m.name
    assert len(held) >= 5


def test_the_precondition_on_the_inverse_gives_the_verdict_on_l_normal():
    # f* is a unital ring homomorphism, so L(normal) is pulled back from the
    # target exactly when L(normal)^-1 is
    rng = random.Random(3)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=6) for _ in range(200)]
    verdicts = [(m.l_normal_inverse_preimage is None,
                 model_mod._preimage_under(m.pullback, graded.signature_class(m.normal_pontrjagin))
                 is None) for m in models]
    assert all(inverse == direct for inverse, direct in verdicts)
    assert 0 < sum(refused for refused, _ in verdicts) < len(models)


def test_an_l_point_number_reads_the_signature(monkeypatch):
    # a Pontrjagin number of one weight w <= 1 is 3^w times the signature,
    # read from its memoised chain whatever the expansion would cost
    # (hypersurface-d3 at k = 1 with J = (4,): n^k = 3 tensor terms)
    monkeypatch.setattr(formulas, "_number_by_expansion", _unavailable("expand the tensor"))
    rng = random.Random(37)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng, max_powers=8, with_chern=True) for _ in range(5)]
    kind = formulas.CHARACTERISTIC[False]
    read = []
    for m in models:
        for k in range(1, 7):
            dims = multiple_point_dimension(m, k)
            for J in ((), (0,), (4,), (4, 0)):
                if formulas._genus_plan(J, kind, dims)[-1]:
                    result = pontrjagin_number(m, k, J)
                    if not result.warnings:
                        assert result.value == 3 ** (sum(J) // 4) * signature(m, k), (m.name, k, J)
                        read.append((m.name, k, J))
    assert len(read) >= len(models) and ("hypersurface-d3", 1, (4,)) in read


def test_a_repeated_number_on_the_genus_route_builds_nothing(monkeypatch):
    # every point's classes and collected chain are memoised on the model
    m = random_truncated_model(random.Random(40), max_powers=8, with_chern=True)
    k, J = 3, (8, 4)
    plan = formulas._genus_plan(J, formulas.CHARACTERISTIC[False], multiple_point_dimension(m, k))
    assert formulas._genus_point_count(plan) == 2
    monkeypatch.setattr(formulas, "_number_by_expansion", _unavailable("expand the tensor"))
    built = []
    chain, genus_coords = signatures._Chain, graded.genus_coords

    def counted_chain(*args):
        built.append("chain")
        return chain(*args)

    def counted_genus_coords(*args):
        built.append("genus class")
        return genus_coords(*args)

    monkeypatch.setattr(signatures, "_Chain", counted_chain)
    monkeypatch.setattr(graded, "genus_coords", counted_genus_coords)
    first = pontrjagin_number(m, k, J).value
    assert first == reference_characteristic_number(m, k, J)
    assert "chain" in built and "genus class" in built
    built.clear()
    assert pontrjagin_number(m, k, J).value == first
    assert built == []


def test_genus_reads_every_spelling_of_one_log_series_alike():
    m = bundled_model("hypersurface-d3")
    for spellings, value in (
            ([("0", "1/3"), (0, Fraction(1, 3)), [Fraction(0), Fraction(2, 6)]], signature(m, 1)),
            ([("0", "1"), (0, 1), (Fraction(0), Fraction(3, 3)), (0, "1", 0), (0, 1, 0, 0)],
             3 * signature(m, 1))):
        assert {formulas.genus(m, 1, c) for c in spellings} == {value}
    assert len([key for key in m._cache if key[0] == "genus"]) == 2
    with pytest.raises(graded.GradedAlgebraError, match="float"):
        formulas.genus(m, 1, (0, 0.5))


def test_genus_of_the_k_tuple_manifold():
    # the L-genus is the signature; the A-hat genus of the K3 surface is 2
    # and of the projective plane -1/8; the Todd genus of a line is 1
    rng = random.Random(25)
    for m in [bundled_model("hypersurface-d3")] + [random_truncated_model(rng) for _ in range(4)]:
        for k in range(1, 5):
            c = signature_genus_log_coeffs(max(0, *multiple_point_dimension(m, k)) // 4)
            assert formulas.genus(m, k, c) == signature(m, k), (m.name, k)
    a_hat = (0, Fraction(-1, 24))
    assert formulas.genus(bundled_model("hypersurface-d4"), 1, a_hat) == 2
    assert formulas.genus(bundled_model("hypersurface-d1"), 1, a_hat) == Fraction(-1, 8)
    assert formulas.genus(bundled_model("line-in-quadric"), 1, (0, Fraction(1, 2)), chern=True) == 1
    # refused at every k, never validated and validated: at k = 3 the
    # embedding's triple points, and at k = 9 the empty locus, would
    # answer 0 if a zero rule ran before the refusal
    d3 = bundled_model("hypersurface-d3")
    for _ in range(2):
        for k in (1, 3, 9):
            with pytest.raises(ModelError, match="^model carries no Chern data$"):
                formulas.genus(d3, k, a_hat, chern=True)
            with pytest.raises(ModelError, match="^model carries no Chern data$"):
                chern_number(d3, k, (2,))
        assert validate(d3).ok


# ---------------------------------------------------------------------------
# Provable zeros: an empty locus, an embedding at k >= 2 and f_! = 0
# ---------------------------------------------------------------------------

EMBEDDINGS = ("line-in-plane", "hypersurface-d1", "hypersurface-d2", "hypersurface-d3",
              "hypersurface-d4", "line-in-quadric")
GENUS_LOG = (0, 1, 2, -3, 5)


def _provable_zero_cases():
    """(model, k, whether it is an embedding case): the six embedding
    bundled models and the first 50 embedding draws at k = 2..6, then
    null-pushforward and the first 20 draws with f_! = 0 (mu = 0) at
    k = 1..6; every model built afresh and never validated."""
    embeddings = [bundled_model(name) for name in EMBEDDINGS]
    nulls = [bundled_model("null-pushforward")]
    rng = random.Random(3)
    while len(embeddings) < 56 or len(nulls) < 21:
        m = random_truncated_model(rng, max_powers=6)
        if not any(m.pushforward.images.values()):
            nulls.append(m)
        elif embedding_consistent(m):
            embeddings.append(m)
    return ([(m, k, True) for m in embeddings[:56] for k in range(2, 7)]
            + [(m, k, False) for m in nulls[:21] for k in range(1, 7)])


def _sums_to_dimension(m, k):
    """An index sequence whose degree sum is the k-tuple dimension (4s, then
    a 2 when it is 2 mod 4), or (4,) when that is negative."""
    d = multiple_point_dimension(m, k)[0]
    return (4,) * (d // 4) + (2,) * (d % 4 // 2) if d >= 0 else (4,)


EMBEDDING_ZERO = ("f*f_!(x) = e*x, as for an embedding: there are no k-tuple points for "
                  "k >= 2; the value is 0")
NULL_PUSHFORWARD_ZERO = ("f_! = 0: every pushed class is 0, and so is every integral over "
                         "the source (integration compatibility); the value is 0")


def test_the_bundled_provable_zeros():
    # the one reason zero_warning gives on each bundled model at k = 1..6
    assert [n for n in BUNDLED if embedding_consistent(bundled_model(n))] == list(EMBEDDINGS)
    given = {}
    for name in BUNDLED:
        fresh, m = bundled_model(name), bundled_model(name)
        assert validate(m).ok
        for k in range(1, 7):
            if formulas._empty_locus(m, k):
                want = (f"the {k}-tuple point manifold is empty: (k-1)*codim = "
                        f"{(k - 1) * m.codim} exceeds the source dimension(s) "
                        f"{multiple_point_dimension(m, 1)}; the value is 0")
                assert zero_warning(fresh, k) == want, (name, k)
            elif name in EMBEDDINGS and k >= 2:
                want = EMBEDDING_ZERO
            elif name == "null-pushforward":
                want = NULL_PUSHFORWARD_ZERO
            else:
                want = None
            assert zero_warning(m, k) == want, (name, k)
            if not formulas._empty_locus(m, k):
                assert zero_warning(fresh, k) is None, (name, k)  # never validated
            given[want] = given.get(want, 0) + 1
    assert given[EMBEDDING_ZERO] >= 6 and given[NULL_PUSHFORWARD_ZERO] >= 1 and given[None] >= 6


def test_provable_zeros_run_no_kernel_and_warn(monkeypatch):
    cases = _provable_zero_cases()
    for m, _, _ in cases:
        assert validate(m).ok, m.name
    monkeypatch.setattr(signatures, "_transfer", _unavailable("run a transfer"))
    monkeypatch.setattr(signatures, "_extend", _unavailable("extend a chain"))
    monkeypatch.setattr(formulas, "_number_by_expansion", _unavailable("expand the tensor"))
    nonempty = 0
    for m, k, embedding in cases:
        why = zero_warning(m, k)
        empty = formulas._empty_locus(m, k)
        assert why is not None and why.endswith("the value is 0"), (m.name, k)
        assert ("point manifold is empty" in why) is empty
        if not empty:
            nonempty += 1
            assert why == (EMBEDDING_ZERO if k >= 2 and embedding_consistent(m)
                           else NULL_PUSHFORWARD_ZERO), (m.name, k)
        assert signature(m, k) is signatures._ZERO  # the one shared 0
        assert virtual_signature_class(m, k).is_zero()
        assert formulas.genus(m, k, GENUS_LOG) is signatures._ZERO
        res = pontrjagin_number(m, k, _sums_to_dimension(m, k))
        # on an empty locus the degree sum misses the dimension as well
        assert res.value is signatures._ZERO
        assert res.warnings[-1] == why and len(res.warnings) == 1 + empty
    assert nonempty >= 150


def test_a_public_call_checks_model_and_k_once(monkeypatch):
    # each public function runs the checks itself and calls private bodies,
    # so no argument is checked twice; the routes that signature runs are
    # public entries of SIGNATURE_ROUTES, stubbed here, which check their own
    calls = []
    for name in ("_model", "_k"):
        real = getattr(signatures, name)

        def counted(value, real=real, name=name):
            calls.append(name)
            return real(value)
        for module in (signatures, formulas):
            monkeypatch.setattr(module, name, counted)
    for route in SIGNATURE_ROUTES:
        monkeypatch.setitem(SIGNATURE_ROUTES, route, lambda m, k: Fraction(1))
    d3, plane = _d3(), bundled_model("line-in-plane")
    validate(plane)
    queries = [
        lambda: signature(d3, 1), lambda: signature(d3, 2, route="general"),
        lambda: signature(plane, 2), lambda: signature(plane, 1),
        lambda: virtual_signature_class(d3, 2), lambda: virtual_signature_class(plane, 2),
        lambda: pontrjagin_number(d3, 1, (4,)), lambda: pontrjagin_number(plane, 2, (4,)),
        lambda: signatures.evaluate(d3, 1, "signature"), lambda: signatures.evaluate(d3, 2, "bk"),
        lambda: signatures.evaluate(d3, 1, "pontrjagin", (4,)),
        lambda: herbert(plane, 2), lambda: herbert(plane, 3),
    ]
    for i, query in enumerate(queries):
        calls.clear()
        query()
        assert sorted(calls) == ["_k", "_model"], (i, calls)


def test_provable_zeros_agree_with_every_route_and_the_oracle():
    # on fresh, never validated models every route runs, so a wrong proof
    # of a zero shows as a nonzero value here
    for m, k, _ in _provable_zero_cases():
        assert "validation" not in m._cache
        assert signature(m, k) == 0
        assert all(signature(m, k, route=route) == 0 for route in SIGNATURE_ROUTES)
        assert virtual_signature_class(m, k).is_zero()
        assert formulas.genus(m, k, GENUS_LOG) == 0
        assert pontrjagin_number(m, k, _sums_to_dimension(m, k)).value == 0
        if not formulas._empty_locus(m, k):  # the oracle has no shortcut for it
            assert signature_enumerated(m, k).value == 0, (m.name, k)
            assert virtual_class_enumerated(m, k).value.is_zero(), (m.name, k)


def test_an_invalid_model_and_a_named_route_still_run_the_kernels(monkeypatch):
    reached = []
    for name in ("_transfer", "_extend", "_closed_form"):
        real = getattr(signatures, name)
        monkeypatch.setattr(signatures, name, lambda *args, real=real, name=name, **kwargs:
                            reached.append(name) or real(*args, **kwargs))
    assert signature(bundled_model("hypersurface-d3"), 3) == 0 and reached  # never validated
    for route in SIGNATURE_ROUTES:  # a fresh model each, as the routes share memos
        d3 = bundled_model("hypersurface-d3")
        assert validate(d3).ok
        reached.clear()
        assert signature(d3, 3, route=route) == 0 and reached, route
    reached.clear()
    assert signature(d3, 3) == 0 and virtual_signature_class(d3, 3).is_zero()
    assert formulas.genus(d3, 3, GENUS_LOG) == 0 and pontrjagin_number(d3, 3, (0,)).value == 0
    assert reached == []
    # an embedding with a zero source integral that fails integration
    # compatibility: no zero is proved, every route runs, and they disagree
    M = truncated_polynomial_ring("t", 2, integral_value=0)
    N = truncated_polynomial_ring("h", 3)
    bad = truncated_model("bad", M, N, 3, 3, M.element({0: 1, 2: 3}), N.element({0: 1, 2: 3}))
    assert not validate(bad).ok and embedding_consistent(bad) and not bad.source.integral
    assert zero_warning(bad, 3) is None
    assert signature(bad, 3) == 0 and reached
    with pytest.raises(RouteDisagreement, match="signature routes disagree for k=1"):
        signature(bad, 1)


# ---------------------------------------------------------------------------
# Special cases
# ---------------------------------------------------------------------------


def test_transfer_of_unit_closed_form():
    rng = random.Random(12)
    for _ in range(6):
        m = random_truncated_model(rng)
        for k in range(1, 5):
            assert transfer_of_unit(m, k) == transfer_to_source(m, k, cross([m.source.unit()] * k))


def test_transfer_of_unit_line_in_plane():
    m = bundled_model("line-in-plane")
    assert transfer_of_unit(m, 2).is_zero()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), same=st.booleans())
def test_transfer_of_unit_is_refused_or_exact_on_unions(seed, same):
    # the closed form needs f*f_! = 0 or e pulled back from the target; on a
    # union of two unequal components neither often holds, and the closed
    # form is then refused
    rng = random.Random(seed)
    u = disjoint_union(random_union_components(rng, 1) * 2 if same
                       else random_union_components(rng, 2))
    for k in range(1, 5):
        try:
            closed = transfer_of_unit(u, k)
        except PreconditionError as exc:
            assert not u.null_pushpull and u.euler_preimage is None
            assert str(exc) == (f"f*f_! is not zero and euler class {u.euler} "
                                "is not pulled back from the target")
            return
        assert closed == transfer_to_source(u, k, cross([u.source.unit()] * k)), (u.name, k)


def _pulled_back_transfer(m, y):
    """The transfer of the pullback of the target tensor y, by the
    projection formula: each term's product of pulled-back classes times
    the unit transfer, Herbert's class."""
    unit = transfer_of_unit(m, y.arity)
    return sum((c * prod((m.pullback(m.target.basis_class(j)) for j in idx), start=unit)
                for idx, c in y.terms.items()), m.source.zero())


def test_pulled_from_target_class_needs_only_euler_pulled_back():
    # the projection formula pulls every pulled-back factor out of the
    # transfer, so L(normal) need not be pulled back
    rng = random.Random(5)
    models = [bundled_model(name) for name in BUNDLED]
    models += [disjoint_union(random_union_components(rng, 2)) for _ in range(60)]
    models = [m for m in models if not m.null_pushpull
              and m.euler_preimage is not None
              and m.l_normal_inverse_preimage is None]
    assert len(models) >= 8
    for m in models:
        assert validate(m).ok, m.name
        with pytest.raises(PreconditionError, match=f"^{L_NOT_PULLED_BACK}$"):
            herbert(m, 2)
        for k in range(1, 5):
            for _ in range(5):
                y = _random_tensor(rng, m.target, k)
                pulled = cross([m.source.zero()] * k)
                for idx, c in y.terms.items():
                    pulled = pulled + c * cross([m.pullback(m.target.basis_class(j)) for j in idx])
                assert _pulled_back_transfer(m, y) == transfer_to_source(m, k, pulled), \
                    (m.name, k)


def test_each_hypothesis_is_decided_once_per_model(monkeypatch):
    # each closed form, and the signature and virtual class that choose
    # their second kernel by its hypothesis, 20 times at k = 1..4 on a model
    # never validated: the one pass of f*f_! over the basis (f*f_! = 0), the
    # two linear solves (e and L(normal)^-1 pulled back), and the one
    # inversion of P(normal) that the p_J core reads run once
    m = bundled_model("hypersurface-d3")
    normal = m.normal_pontrjagin
    solves, passes, inversions = [], [], []
    solve, pass_, invert = (model_mod._solve_linear, model_mod._pushpull_is_euler_times,
                            graded.GradedClass.invert_unital)

    def counted_invert(x):
        if x == normal:
            inversions.append(x)
        return invert(x)
    monkeypatch.setattr(model_mod, "_solve_linear", lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(model_mod, "_pushpull_is_euler_times",
                        lambda m, c: passes.append(c) or pass_(m, c))
    monkeypatch.setattr(graded.GradedClass, "invert_unital", counted_invert)
    evaluators = [lambda k, i: transfer_of_unit(m, k),
                  lambda k, i: signature(m, k) if i % 2 else virtual_signature_class(m, k),
                  lambda k, i: herbert(m, k, (4,) if i % 2 else None)]
    held = 0
    for evaluator in evaluators:
        for k in range(1, 5):
            for i in range(5):
                try:
                    evaluator(k, i)
                    held += 1
                except PreconditionError:
                    pass
    assert (len(solves), passes, len(inversions)) == (2, [0], 1)
    assert held == 60  # every one holds on d3


def test_a_model_with_null_pushpull_solves_no_linear_system(monkeypatch):
    # f*f_! = 0 is read first: where it holds, no preimage is sought
    monkeypatch.setattr(model_mod, "_solve_linear", None)
    for name in ("null-pushforward", "nullhomotopic-cp2-in-s6", "line-in-quadric"):
        m = bundled_model(name)
        for k in range(1, 5):
            transfer_of_unit(m, k)
            signature(m, k)
            virtual_signature_class(m, k)
            herbert(m, k)
            herbert(m, k, (4,))


def test_pulled_from_target_class_and_signature():
    rng = random.Random(13)
    checked = 0
    for _ in range(12):
        m = random_truncated_model(rng)
        try:
            for k in range(1, 5):
                assert herbert(m, k) == signature(m, k, route="general")
                y = _random_tensor(rng, m.target, k)
                pulled = cross([m.source.zero()] * k)
                for idx, c in y.terms.items():
                    pulled = pulled + c * cross([m.pullback(m.target.basis_class(j)) for j in idx])
                assert _pulled_back_transfer(m, y) == transfer_to_source(m, k, pulled)
            checked += 1
        except PreconditionError:
            continue
    assert checked >= 3


def test_pulled_from_target_precondition_enforced():
    # neither f*f_! = 0 nor e pulled back: every closed form that reads the
    # unit transfer is refused with the same text
    u = disjoint_union([bundled_model("hypersurface-d1"), bundled_model("hypersurface-d2")])
    assert validate(u).ok
    for special in (transfer_of_unit, herbert, SIGNATURE_ROUTES["herbert"],
                    lambda m, k: herbert(m, k, (4,))):
        with pytest.raises(PreconditionError) as refused:
            special(u, 2)
        assert str(refused.value) == ("f*f_! is not zero and euler class 1*t@0 + 2*t@1 "
                                      "is not pulled back from the target")


def test_pushpull_zero_precondition(monkeypatch):
    # f*f_! is not zero on the line in the plane, so herbert's f*f_! = 0 route
    # is closed there: with L(normal) not pulled back either, it is refused
    m = bundled_model("line-in-plane")
    assert not m.null_pushpull and m.euler_preimage is not None
    assert herbert(m, 2) == signature(m, 2)
    monkeypatch.setitem(vars(m), "l_normal_inverse_preimage", None)
    with pytest.raises(PreconditionError, match=r"^f\*f_! is not zero and L\(normal\) "
                                                r"is not pulled back from the target$"):
        herbert(m, 2)


def test_nullhomotopic_precondition():
    # e is not pulled back on the nullhomotopic model, but f*f_! = 0 there,
    # and that alone is the hypothesis of every closed form
    m = bundled_model("nullhomotopic-cp2-in-s6")
    assert m.euler_preimage is None and m.l_normal_inverse_preimage is None
    assert m.null_pushpull
    for k in range(1, 5):
        unit = transfer_of_unit(m, k)
        assert unit == Fraction((-1) ** (k - 1) * factorial(k - 1)) * m.euler ** (k - 1)
        assert transfer_to_source(m, k, cross([m.source.unit()] * k)) == unit
        assert herbert(m, k) == signature(m, k)


def euler_zero(m, k):
    """The signature where e = 0: every block of two or more points is
    f_!(0) = 0, so E_k = b_1^k / k!, b_1 = f_!(L(normal)^-1)."""
    if not m.euler.is_zero():
        raise PreconditionError(f"euler class {m.euler} is nonzero")
    return (m.l_target * m.pushforward(m.l_normal_inverse) ** k).integrate() / factorial(k)


def test_euler_zero_special_case():
    m = bundled_model("line-in-quadric")
    for k in range(1, 5):
        assert euler_zero(m, k) == signature(m, k, route="auto")
    rng = random.Random(14)
    checked = 0
    while checked < 4:
        m = random_truncated_model(rng)
        if not m.euler.is_zero():
            continue
        checked += 1
        for k in range(1, 5):
            assert euler_zero(m, k) == signature(m, k, route="auto")


def test_herbert_where_pushpull_vanishes():
    for name in ("null-pushforward", "nullhomotopic-cp2-in-s6"):
        m = bundled_model(name)
        for k in range(1, 5):
            assert herbert(m, k) == signature(m, k, route="auto"), (name, k)


def test_nullhomotopic_special_case():
    m = bundled_model("nullhomotopic-cp2-in-s6")
    for k in range(1, 5):
        assert herbert(m, k) == signature(m, k, route="auto")
    # Pontrjagin variant at the matching dimension
    for k in range(1, 4):
        dims = multiple_point_dimension(m, k)
        if dims[0] >= 0 and dims[0] % 4 == 0:
            assert herbert(m, k, [dims[0]]) == pontrjagin_number(m, k, [dims[0]]).value


def test_herbert_answers_every_bundled_model():
    # the hypothesis holds on every bundled model, through f*f_! = 0 on three
    for name in BUNDLED:
        m = bundled_model(name)
        for k in range(1, 6):
            assert herbert(m, k) == signature(m, k), (name, k)
            for J in ((4,), (4, 4), (8,)):
                assert herbert(m, k, J) == pontrjagin_number(m, k, J).value, (name, k, J)
    assert sum(bundled_model(name).null_pushpull for name in BUNDLED) == 3


def test_pontrjagin_special_routes_check_k():
    m = random_truncated_model(random.Random(15))
    with pytest.raises(ValueError, match="multiplicity k must be at least 1"):
        herbert(m, 0, [0])
    with pytest.raises(ValueError, match="multiplicity k must be at least 1"):
        herbert(bundled_model("null-pushforward"), 0, [0])


@pytest.mark.parametrize("entry", ["4", 4.0, Fraction(4), -4, False])
def test_special_cases_refuse_what_the_characteristic_numbers_refuse(entry):
    # each model satisfies the hypothesis, so only J is at fault
    for name in ("line-in-plane", "null-pushforward", "nullhomotopic-cp2-in-s6"):
        m = bundled_model(name)
        herbert(m, 1, [4])
        with pytest.raises(graded.GradedAlgebraError, match="not a nonnegative even integer"):
            herbert(m, 1, [entry])


def test_nullhomotopic_evaluates_the_closed_form():
    # where f*f_! = 0 and P(normal)^-1 = P(source), as for a nullhomotopic f,
    # Szucs's formula is (-1)^(k-1) / k times the integral of e^(k-1) L(M)^k,
    # and for p_J of e^(k-1) times the degree-J part of P(M)^k
    m = bundled_model("nullhomotopic-cp2-in-s6")
    assert m.null_pushpull and m.normal_pontrjagin_inverse == m.pontrjagin_source

    def szucs(core, k):
        return Fraction((-1) ** (k - 1), k) * (m.euler ** (k - 1) * core).integrate()
    want = [szucs(m.l_source ** k, k) for k in range(1, 6)]
    assert want == [1, 0, 3, 0, 0]
    assert [herbert(m, k) for k in range(1, 6)] == want
    assert [signature(m, k, route="auto") for k in range(1, 6)] == want
    assert szucs(m.pontrjagin_source.select_degrees([4]), 1) == herbert(m, 1, [4]) == 3
    for k in range(1, 6):
        dims = multiple_point_dimension(m, k)
        for J in (index_sequences(dims[0]) if dims[0] >= 0 else ()):
            want_p = szucs((m.pontrjagin_source ** k).select_degrees(J), k)
            assert herbert(m, k, J) == want_p == pontrjagin_number(m, k, J).value, (k, J)


def _sphere_target_model(rng):
    """A random model of Q[t]/(t^(m+1)) into a sphere of dimension 2m + c:
    f* kills every class of positive degree, so f*f_! = 0 while f_! sends
    the top class to the fundamental class, and e is pulled back only when
    it is 0."""
    m = rng.randint(1, 3)
    c = rng.choice([2, 4]) if m >= 2 else 2
    iota = rng.choice([1, 2, -1])
    M = truncated_polynomial_ring("t", m, integral_value=iota, name="rand-src")
    N = truncated_polynomial_ring("s", 1, gen_degree=2 * m + c, name="sphere")
    return ImmersionModel(
        M, N, LinearMap(N, M, {0: {0: 1}}), LinearMap(M, N, {m: {1: iota}}), c,
        M.element({c // 2: rng.randint(-2, 2)}), _random_unital(rng, M, 4), N.unit(),
        name=f"sphere-target(m={m},c={c})")


@settings(max_examples=45, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(["truncated", "union", "sphere"]))
def test_herbert_holds_exactly_where_its_hypothesis_does(seed, family):
    # the hypothesis, decided here without the model's memoised facts:
    # f*f_! = 0 on every basis class, or e and L(normal) are pulled back
    rng = random.Random(seed)
    m = {"truncated": lambda: random_truncated_model(rng),
         "union": lambda: disjoint_union(random_union_components(rng, rng.randint(2, 3))),
         "sphere": lambda: _sphere_target_model(rng)}[family]()
    assert validate(m).ok, m.name
    null = all(m.pushpull(m.source.basis_class(i)).is_zero() for i in range(len(m.source.labels)))
    e_pulled = model_mod._preimage_under(m.pullback, m.euler) is not None
    l_pulled = model_mod._preimage_under(
        m.pullback, graded.signature_class(m.normal_pontrjagin)) is not None
    assert family != "sphere" or null
    for k in range(1, 5):
        if null:
            assert transfer_of_unit(m, k) == transfer_to_source(
                m, k, cross([m.source.unit()] * k)), (m.name, k)
        if not (null or e_pulled and l_pulled):
            with pytest.raises(PreconditionError, match=e_not_pulled_back(m) if not e_pulled
                               else f"^{L_NOT_PULLED_BACK}$"):
                herbert(m, k)
            continue
        assert herbert(m, k) == signature(m, k, route="collected"), (m.name, k)
        for J in ((4,), (4, 4), (8,)):
            assert herbert(m, k, J) == pontrjagin_number(m, k, J).value, (m.name, k, J)


def test_special_cases_match_the_general_values_wherever_they_hold():
    # every evaluator, for the signature and for every p_J with sum(J) even
    # up to the source dimension, on the bundled models and 40 draws
    rng = random.Random(41)
    models = [bundled_model(name) for name in BUNDLED]
    models += [random_truncated_model(rng) for _ in range(40)]
    held = dict.fromkeys(("herbert", "euler_zero"), 0)
    numbers = 0
    for m in models:
        # the two forms of the nullhomotopic normalization agree
        assert (m.l_normal_inverse == m.l_source) == \
            (m.normal_pontrjagin.invert_unital() == m.pontrjagin_source), m.name
        for k in (2, 3):
            general = signature(m, k, route="general")
            Js = [J for d in range(0, m.source.max_degree + 1, 2) for J in index_sequences(d)]
            want = {J: pontrjagin_number(m, k, J).value for J in Js}
            for evaluator in (herbert, euler_zero):
                try:
                    assert evaluator(m, k) == general, (evaluator.__name__, m.name, k)
                except PreconditionError:
                    continue
                held[evaluator.__name__] += 1
                if evaluator is euler_zero:
                    continue
                for J, value in want.items():
                    assert evaluator(m, k, J) == value, (evaluator.__name__, m.name, k, J)
                    numbers += 1
    assert held == {"herbert": 98, "euler_zero": 16} and numbers == 486, (held, numbers)


def test_pontrjagin_special_routes():
    rng = random.Random(15)
    for _ in range(10):
        m = random_truncated_model(rng)
        for k in (2, 3):
            dims = multiple_point_dimension(m, k)
            if dims[0] < 0 or dims[0] % 4:
                continue
            J = [dims[0]]
            general = pontrjagin_number(m, k, J).value
            assert herbert(m, k, J) == general
    m = bundled_model("null-pushforward")
    for k in (2, 3):
        dims = multiple_point_dimension(m, k)
        if dims[0] >= 0 and dims[0] % 4 == 0:
            J = [dims[0]]
            assert herbert(m, k, J) == pontrjagin_number(m, k, J).value


# ---------------------------------------------------------------------------
# Recursion identity
# ---------------------------------------------------------------------------


def test_recursion_identity_k1():
    m = bundled_model("line-in-plane")
    x = cross([m.source.basis_class(1)])
    assert recursion_identity_holds(m, 1, x)


def test_recursion_identity_bundled_and_random():
    rng = random.Random(16)
    from multipoint.models import BUNDLED
    for name in BUNDLED:
        m = bundled_model(name)
        for k in range(1, 4):
            x = _random_tensor(rng, m.source, k)
            assert recursion_identity_holds(m, k, x), (name, k)
    for _ in range(5):
        m = random_truncated_model(rng)
        for k in range(1, 5):
            x = _random_tensor(rng, m.source, k)
            assert recursion_identity_holds(m, k, x), (m.name, k)
