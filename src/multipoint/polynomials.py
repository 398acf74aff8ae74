"""Exact rational coefficient tables: the block weights and the L-class
log series.

Everything here works over ``fractions.Fraction``; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Tuple


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
