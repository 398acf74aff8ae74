import random
from fractions import Fraction

import pytest

from multipoint.model import MAX_CLASS_DEGREE
from multipoint.polynomials import (
    elementary_in_power_sums,
    interpolate_on_lower_set,
    lower_set,
    lower_set_size,
    signature_genus_log_coeffs,
)
from series_reference import exp_coeffs, series_inverse, series_log, series_mul, tanh_coeffs

def test_exp_log_inverse_pair():
    n = 10
    e = exp_coeffs(n)
    assert e[0] == 1 and e[1] == 1 and e[2] == Fraction(1, 2)


def test_series_mul_inverse():
    a = [Fraction(1), Fraction(2), Fraction(3), Fraction(0), Fraction(1)]
    order = len(a) - 1
    inv = series_inverse(a, order)
    prod = series_mul(a, inv, order)
    assert prod == [Fraction(1)] + [Fraction(0)] * order


def test_series_log_of_exp():
    n = 8
    assert series_log(exp_coeffs(n), n)[1:] == [Fraction(1)] + [Fraction(0)] * (n - 1)


def test_tanh_coefficients():
    t = tanh_coeffs(8)
    assert t[1] == 1
    assert t[3] == Fraction(-1, 3)
    assert t[5] == Fraction(2, 15)
    assert t[0] == 0 and t[2] == 0 and t[4] == 0


def test_signature_genus_log_coefficients():
    # known leading coefficients of the signature characteristic series
    c = signature_genus_log_coeffs(3)
    assert c[1] == Fraction(1, 3)
    assert c[2] == Fraction(-7, 90)
    assert c[3] == Fraction(62, 2835)


def test_signature_log_coefficients_match_the_tanh_series():
    # log(sqrt(x)/tanh(sqrt(x))) = -log u(x), u(x) = tanh(sqrt(x))/sqrt(x), to
    # the largest order that validate lets through
    order = MAX_CLASS_DEGREE // 4
    th = tanh_coeffs(2 * order + 1)
    reference = [-c for c in series_log([th[2 * j + 1] for j in range(order + 1)], order)]
    for n in range(order + 1):
        assert signature_genus_log_coeffs(n) == tuple(reference[:n + 1])


def test_signature_log_coefficients_of_one_order_prefix_the_next():
    for n in range(MAX_CLASS_DEGREE // 4):
        assert signature_genus_log_coeffs(n + 1)[:n + 1] == signature_genus_log_coeffs(n)


@pytest.mark.parametrize("weights, bound", [((), 5), ((1,), 6), ((2, 3), 10), ((1, 1, 1), 4),
                                            ((2, 3, 4, 5), 12)])
def test_interpolation_on_a_lower_set_recovers_the_coefficients(weights, bound):
    rng = random.Random(bound)
    points = lower_set(weights, bound)
    assert len(points) == len(set(points)) == lower_set_size(weights, bound)
    assert all(sum(w * x for w, x in zip(weights, m)) <= bound for m in points)
    coeffs = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for m in points}

    def value(x):
        total = Fraction(0)
        for m, c in coeffs.items():
            for xi, mi in zip(x, m):
                c *= xi ** mi
            total += c
        return total
    assert interpolate_on_lower_set({m: value(m) for m in points}) == \
        {m: c for m, c in coeffs.items() if c}


def test_lower_set_sizes_count_partitions():
    # the partitions of 20 with parts at most 10, by their multiplicities of 2..10
    assert lower_set_size(range(2, 11), 20) == 530
    assert lower_set_size(range(2, 21), 20) == 627  # p(20)


def test_elementary_functions_in_power_sums():
    e = elementary_in_power_sums(3)
    assert e[1] == {(1,): 1}
    assert e[2] == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    assert e[3] == {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(-1, 2), (3,): Fraction(1, 3)}
