"""The Fraction power-series evaluation that the integer genus kernel
replaced, kept as an independent reference for the tests: classes are
multiplied through ``GradedClass`` and every series coefficient is a
``Fraction``.  Nothing in the package calls it."""

from fractions import Fraction
from math import factorial
from typing import Sequence

from multipoint.graded import GradedAlgebraError, GradedClass, nilpotency_order


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
