"""Independent references for the tests, which nothing in the package
calls: a univariate power-series toolkit over ``Fraction`` (products,
inverses, log, and the tanh series that the L-series and the L-class are
checked against), and the Fraction power-series evaluation that the
integer genus kernel replaced, where classes are multiplied through
``GradedClass``."""

from fractions import Fraction
from math import factorial
from typing import Sequence

from multipoint.graded import GradedAlgebraError, GradedClass, nilpotency_order


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


def tanh_coeffs(order: int) -> list:
    """Taylor coefficients of tanh up to x^order, via sinh/cosh."""
    sinh = [Fraction(1, factorial(k)) if k % 2 else Fraction(0) for k in range(order + 1)]
    cosh = [Fraction(1, factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)]
    return series_mul(sinh, series_inverse(cosh, order), order)


def exp_coeffs(order: int) -> list:
    """Taylor coefficients of exp up to x^order."""
    return [Fraction(1, factorial(k)) for k in range(order + 1)]


def eval_series(self: GradedClass, coeffs: Sequence[Fraction]) -> GradedClass:
    """Evaluate a formal power series at this nilpotent class.

    coeffs[j] is the coefficient of the j-th power; the constant term
    contributes coeffs[0] times the unit.  Requires a zero degree-0
    part so the sum terminates.
    """
    if not self.degree_part(0).is_zero():
        raise GradedAlgebraError("series evaluation needs a nilpotent argument")
    out = coeffs[0] * self.ring.unit()
    power = self.ring.unit()
    for j in range(1, len(coeffs)):
        power = power * self
        if power.is_zero():
            break
        out = out + coeffs[j] * power
    else:
        if not (power * self).is_zero():
            raise GradedAlgebraError("series coefficients exhausted before nilpotency")
    return out


def reference_genus_class(P: GradedClass, c: Sequence[Fraction], step: int = 4) -> GradedClass:
    """exp(sum_j c_j s_j) through class operations: Newton's identities over
    every j up to the largest basis degree over step, and the exponential
    series cut at the ring's nilpotency order."""
    ring = P.ring
    w = ring.max_degree // step
    elem = [ring.zero()] + [P.degree_part(step * j) for j in range(1, w + 1)]
    power_sums = [ring.zero()] * (w + 1)
    for j in range(1, w + 1):
        acc = (-1) ** (j - 1) * j * elem[j]
        for i in range(1, j):
            acc = acc + (-1) ** (i - 1) * (elem[i] * power_sums[j - i])
        power_sums[j] = acc
    log_k = ring.zero()
    for j in range(1, min(w + 1, len(c))):
        log_k = log_k + c[j] * power_sums[j]
    return eval_series(log_k, exp_coeffs(nilpotency_order(ring)))
