"""Exact rational coefficient tables (the block weights and the L-class
log series), the symmetric-function change of basis and interpolation on
a lower set of exponent vectors.

Everything here works over ``fractions.Fraction``; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, List, Mapping, Sequence, Tuple


def log_coefficient(k: int) -> int:
    """The weight (-1)^(k-1) (k-1)! of a block of size k: the k-th
    exponential coefficient of log(1+y)."""
    if k < 1:
        raise ValueError("coefficient index must be positive")
    return (-1) ** (k - 1) * factorial(k - 1)


@lru_cache(maxsize=None)
def signature_genus_log_coeffs(order: int) -> Tuple[Fraction, ...]:
    """c_0..c_order of log(sqrt(x)/tanh(sqrt(x))) = sum_n c_n x^n, the log
    series of the L-class: c_0 = 0 and c_n = 2^(2n) (2^(2n-1) - 1) B_(2n) /
    (n (2n)!), B the Bernoulli numbers.  Computed once per order, as a
    tuple that no caller can change."""
    # B_m = -sum_{j<m} C(m+1, j) B_j / (m+1); every odd B_m past B_1 is 0
    bernoulli = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, 2 * order + 1):
        bernoulli.append(Fraction(0) if m % 2 else -sum(
            comb(m + 1, j) * b for j, b in enumerate(bernoulli) if b) / (m + 1))
    return (Fraction(0),) + tuple(
        4 ** n * (2 ** (2 * n - 1) - 1) * bernoulli[2 * n] / (n * factorial(2 * n))
        for n in range(1, order + 1))


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
