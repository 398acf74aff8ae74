import pytest

from multipoint.series import (
    BIVARIATE,
    Poly,
    SpecialSeries,
    compose,
    composed_derivative,
    falling_product,
    identity_series,
    invert,
    log_coefficient,
    scaled_exp_series,
    scaled_log_series,
)


def test_log_coefficients():
    assert [log_coefficient(k) for k in range(1, 7)] == [1, -1, 2, -6, 24, -120]
    from multipoint import partitions
    assert log_coefficient is partitions.log_coefficient  # re-exported from its home


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
    variables = ("e",)
    coeffs = [Poly.const(variables, 1)]
    vals = [2, -1, 3, 0, 5, -2, 1]
    coeffs += [Poly.const(variables, v) for v in vals]
    S = SpecialSeries(tuple(coeffs))
    G = invert(S)
    assert compose(S, G) == identity_series(S.order)
    assert compose(G, S) == identity_series(S.order)


def test_invert_requires_invertible_linear_coefficient():
    variables = ("e",)
    bad = SpecialSeries((Poly.var(variables, "e"), Poly.const(variables, 1)))
    with pytest.raises(ValueError):
        invert(bad)


def test_coefficient_bounds():
    S = scaled_exp_series(4)
    with pytest.raises(ValueError):
        S.coefficient(5)
    with pytest.raises(ValueError):
        S.coefficient(0)


def test_compose_order_mismatch():
    with pytest.raises(ValueError):
        compose(scaled_exp_series(4), scaled_exp_series(5))


def test_falling_product_closed_form():
    x = Poly.var(BIVARIATE, "x")
    y = Poly.var(BIVARIATE, "y")
    assert falling_product(1) == Poly.const(BIVARIATE, 1)
    assert falling_product(2) == y - x
    assert falling_product(3) == (y - x) * (y - 2 * x)


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
    variables = ("e",)
    for _ in range(3):
        a = [Poly.const(variables, rng.randint(-3, 3)) for _ in range(5)]
        b = [Poly.const(variables, rng.randint(-3, 3)) for _ in range(5)]
        A = SpecialSeries(tuple(a))
        B = SpecialSeries(tuple(b))
        comp = compose(A, B)
        for k in range(1, 6):
            assert comp.coefficient(k) == compose_enumerated(a, b, k).value
