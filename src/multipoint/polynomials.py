"""Exact rational power-series coefficient tables, the symmetric-function
change of basis and interpolation on a lower set of exponent vectors.

Everything here works over ``fractions.Fraction``; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Mapping, Sequence, Tuple


# ---------------------------------------------------------------------------
# Univariate power series, represented as coefficient lists c[0], c[1], ...
# ---------------------------------------------------------------------------


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list:
    """Product of two coefficient lists, truncated at ``order`` (inclusive)."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_inverse(a: Sequence[Fraction], order: int) -> list:
    """Multiplicative inverse of a series with nonzero constant term."""
    a0 = Fraction(a[0])
    if not a0:
        raise ValueError("series has zero constant term")
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / a0
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            ai = Fraction(a[i]) if i < len(a) else Fraction(0)
            acc += ai * inv[n - i]
        inv[n] = -acc / a0
    return inv


def series_log(a: Sequence[Fraction], order: int) -> list:
    """log of a series with constant term 1, via (log a)' = a'/a."""
    if Fraction(a[0]) != 1:
        raise ValueError("series_log needs constant term 1")
    deriv = [Fraction(k + 1) * (Fraction(a[k + 1]) if k + 1 < len(a) else Fraction(0))
             for k in range(order)]
    quot = series_mul(deriv, series_inverse(a, order), order - 1) if order else []
    out = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        out[k] = quot[k - 1] / k
    return out


def log_coefficient(k: int) -> int:
    """The weight (-1)^(k-1) (k-1)! of a block of size k: the k-th
    exponential coefficient of log(1+y)."""
    if k < 1:
        raise ValueError("coefficient index must be positive")
    return (-1) ** (k - 1) * factorial(k - 1)


def tanh_coeffs(order: int) -> list:
    """Taylor coefficients of tanh up to x^order, via sinh/cosh."""
    sinh = [Fraction(1, factorial(k)) if k % 2 else Fraction(0) for k in range(order + 1)]
    cosh = [Fraction(1, factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)]
    return series_mul(sinh, series_inverse(cosh, order), order)


@lru_cache(maxsize=None)
def signature_genus_log_coeffs(order: int) -> Tuple[Fraction, ...]:
    """Coefficients c_1..c_order of log(sqrt(x)/tanh(sqrt(x))) in x.

    The index-0 entry is 0.  These drive the multiplicative sequence that
    turns a total Pontrjagin class into the signature-computing L-class.
    The series is a constant, so it is computed once per order and returned
    as a tuple, which no caller can change.
    """
    # tanh(t)/t is even in t, hence a series u(x) in x = t^2.
    th = tanh_coeffs(2 * order + 1)
    u = [th[2 * j + 1] for j in range(order + 1)]
    logu = series_log(u, order)
    return tuple(-c for c in logu)


def elementary_in_power_sums(n: int) -> List[Dict[Tuple[int, ...], Fraction]]:
    """e_0..e_n as polynomials in the power sums, {partition: coefficient}
    with descending tuples, by n * e_n = sum_i (-1)^(i-1) e_(n-i) s_i."""
    e: List[Dict[Tuple[int, ...], Fraction]] = [{(): Fraction(1)}]
    for m in range(1, n + 1):
        acc: Dict[Tuple[int, ...], Fraction] = {}
        for i in range(1, m + 1):
            for lam, v in e[m - i].items():
                key = tuple(sorted(lam + (i,), reverse=True))
                acc[key] = acc.get(key, 0) + (v if i % 2 else -v) / m
        e.append(acc)
    return e


# ---------------------------------------------------------------------------
# Interpolation on a lower set of exponent vectors
# ---------------------------------------------------------------------------


def lower_set(weights: Sequence[int], bound: int) -> List[Tuple[int, ...]]:
    """Every exponent vector m >= 0 with sum_i weights[i] * m_i <= bound
    (positive weights), in lexicographic order."""
    points: List[Tuple[Tuple[int, ...], int]] = [((), 0)]
    for wt in weights:
        points = [(m + (x,), used + x * wt) for m, used in points
                  for x in range((bound - used) // wt + 1)]
    return [m for m, _ in points]


def lower_set_size(weights: Sequence[int], bound: int) -> int:
    """len(lower_set(weights, bound)), without building it."""
    ways = [1] + [0] * bound  # ways[b]: the vectors of weight exactly b
    for wt in weights:
        for b in range(wt, bound + 1):
            ways[b] += ways[b - wt]
    return sum(ways)


def interpolate_on_lower_set(values: Mapping[Tuple[int, ...], object]
                             ) -> Dict[Tuple[int, ...], Fraction]:
    """The coefficients {m: a_m} of the polynomial sum_m a_m x^m, m over
    the keys of values (a lower set), that takes values[m] at the integer
    point x = m.

    Divided differences along each coordinate in turn give the
    coefficients in the falling-factorial basis prod_i x_i (x_i - 1) ...
    (x_i - m_i + 1): the basis function of m vanishes at every point not
    above m, so the system is triangular and has one solution on a lower
    set.  Stirling numbers of the first kind then give the monomial
    coefficients.  Exact; no elimination.
    """
    v: Dict[Tuple[int, ...], Fraction] = {m: Fraction(c) for m, c in values.items()}
    n = len(next(iter(v), ()))
    top = max((max(m, default=0) for m in v), default=0)
    for i in range(n):
        for level in range(1, top + 1):
            for m in sorted((m for m in v if m[i] >= level), key=lambda m: -m[i]):
                v[m] = (v[m] - v[m[:i] + (m[i] - 1,) + m[i + 1:]]) / level
    # falling[a][b]: the coefficient of x^b in x (x - 1) ... (x - a + 1)
    falling = [[1]]
    for a in range(1, top + 1):
        row = [0] * (a + 1)
        for b, c in enumerate(falling[-1]):
            row[b + 1] += c
            row[b] -= (a - 1) * c
        falling.append(row)
    for i in range(n):
        out: Dict[Tuple[int, ...], Fraction] = {}
        for m, c in v.items():
            for b, s in enumerate(falling[m[i]]):
                if s and c:
                    key = m[:i] + (b,) + m[i + 1:]
                    out[key] = out.get(key, 0) + s * c
        v = out
    return {m: c for m, c in v.items() if c}
