import pytest

from multipoint.graded import log_coefficient
from multipoint.models import truncated_polynomial_ring
from multipoint.series import (
    SpecialSeries,
    _ring,
    compose,
    composed_derivative,
    falling_product,
    identity_series,
    invert,
    scaled_exp_series,
    scaled_log_series,
)


def test_log_coefficients():
    assert [log_coefficient(k) for k in range(1, 7)] == [1, -1, 2, -6, 24, -120]


def test_identity_series_is_neutral():
    E = identity_series(6)
    S = scaled_exp_series(6)
    assert compose(S, E) == S
    assert compose(E, S) == S


def test_scaled_log_inverts_scaled_exp():
    order = 8
    H = scaled_exp_series(order)
    G = scaled_log_series(order)
    assert compose(H, G) == identity_series(order)
    assert compose(G, H) == identity_series(order)


def test_invert_matches_closed_form():
    order = 8
    H = scaled_exp_series(order)
    G = invert(H)
    assert G == scaled_log_series(order)
    assert compose(H, G) == identity_series(order)


def test_invert_random_series_roundtrip():
    vals = [1, 2, -1, 3, 0, 5, -2, 1]
    ring = identity_series(len(vals)).ring
    S = SpecialSeries(tuple(v * ring.unit() for v in vals))
    G = invert(S)
    assert compose(S, G) == identity_series(S.order)
    assert compose(G, S) == identity_series(S.order)


def test_invert_requires_invertible_linear_coefficient():
    ring = identity_series(2).ring
    bad = SpecialSeries((ring.basis_class(1), ring.unit()))
    with pytest.raises(ValueError):
        invert(bad)


def test_coefficient_bounds():
    S = scaled_exp_series(4)
    with pytest.raises(ValueError):
        S.coefficient(5)
    with pytest.raises(ValueError):
        S.coefficient(0)
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        falling_product(0)
    with pytest.raises(ValueError, match="^coefficient index must be positive$"):
        log_coefficient(0)


def test_compose_order_mismatch():
    with pytest.raises(ValueError):
        compose(scaled_exp_series(4), scaled_exp_series(5))


def test_falling_product_closed_form():
    assert falling_product(1) == falling_product(1).ring.unit()
    for n, closed in ((2, lambda x, y: y - x), (3, lambda x, y: (y - x) * (y - 2 * x))):
        ring = falling_product(n).ring
        x, y = (ring.basis_class(ring.labels.index(v)) for v in ("x", "y"))
        assert falling_product(n) == closed(x, y)
    assert repr(falling_product(3)) == "1*y^2 + -3*x*y + 2*x^2"


def test_bivariate_composition_identity():
    # the composite coefficient equals the closed-form falling product;
    # composed_derivative raises on any mismatch
    for n in range(1, 7):
        assert composed_derivative(n) == falling_product(n)


def test_composition_against_partition_oracle():
    # collected composition equals the literal partition-sum oracle
    import random
    from multipoint.oracle import compose_enumerated

    rng = random.Random(11)
    one = identity_series(5).ring.unit()
    for _ in range(3):
        a = [rng.randint(-3, 3) * one for _ in range(5)]
        b = [rng.randint(-3, 3) * one for _ in range(5)]
        A = SpecialSeries(tuple(a))
        B = SpecialSeries(tuple(b))
        comp = compose(A, B)
        for k in range(1, 6):
            assert comp.coefficient(k) == compose_enumerated(a, b, k).value


@pytest.mark.parametrize("K", range(1, 13))
def test_one_variable_coefficient_ring_is_the_truncated_polynomial_ring(K):
    # a series of order K + 1 has its coefficients in Q[e] cut above degree K
    ring, reference = _ring(("e",), K + 1), truncated_polynomial_ring("e", K)
    assert ring.labels == reference.labels
    assert ring.degrees == reference.degrees
    assert ring.rows == reference.rows
    assert _ring(("e",), K + 1) is ring  # memoised


def test_order_one_series_build():
    assert scaled_exp_series(1).coeffs == identity_series(1).coeffs
    assert repr(identity_series(1)) == "SpecialSeries(coeffs=(1,))"
    assert invert(scaled_exp_series(1)) == identity_series(1)
