"""Power series indexed by set partitions, restricted to the classical case.

A series here is determined by a coefficient sequence a_1, ..., a_K whose
terms are classes of one truncated polynomial ring, a ``GradedRing`` on
the monomial basis: Q[e] cut above degree K - 1, so that the formal
symbol e is nilpotent of order K, and Q[x, y] cut above total degree
n - 1 for the bivariate identity at order n (at order 1 both are cut
above degree 1, so that the variables stay classes).  Composition follows
the partition-sum rule, which for coefficient sequences reduces to the
Faa di Bruno composite of exponential power series.

The cut is exact, not an approximation.  In every classical series here
a_k is homogeneous of degree k - 1, and the k-th composite coefficient
sums products a_b * prod_i a_i^(m_i) over type vectors with
sum_i i * m_i = k and sum_i m_i = b, of degree (b - 1) + (k - b) = k - 1.
So every composite and inverse coefficient the package forms has degree
at most K - 1, and no product the ring drops is ever needed.  Only the
identity checks and the tests use this module; no production route does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple

from .graded import GradedClass, GradedRing, log_coefficient
from .models import truncated_monomial_ring
from .partitions import count_by_type, type_vectors
from .records import FrozenRecord

DEFAULT_ORDER = 12


@lru_cache(maxsize=None)
def _ring(variables: Tuple[str, ...], order: int) -> GradedRing:
    """The coefficient ring of a series of the given order: Q[variables]
    cut above total degree max(order - 1, 1)."""
    return truncated_monomial_ring(variables, max(order - 1, 1))


class SpecialSeries(FrozenRecord):
    """A classical partition series: coefficients a_1..a_K, classes of one
    ring.  Coefficients beyond the working order are an error to request.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Tuple[GradedClass, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its linear coefficient")
        ring = coeffs[0].ring
        if any(c.ring is not ring and c.ring != ring for c in coeffs):
            raise ValueError("series coefficients lie in different rings")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def ring(self) -> GradedRing:
        return self.coeffs[0].ring

    def coefficient(self, k: int) -> GradedClass:
        """The coefficient a_k, 1-based."""
        if not 1 <= k <= self.order:
            raise ValueError(f"coefficient {k} outside working order {self.order}")
        return self.coeffs[k - 1]


def identity_series(order: int = DEFAULT_ORDER) -> SpecialSeries:
    """The composition unit: a_1 = 1, all higher coefficients 0."""
    ring = _ring(("e",), order)
    return SpecialSeries((ring.unit(),) + (ring.zero(),) * (order - 1))


def _scaled(order: int, variables: Tuple[str, ...], symbol: str, log: bool) -> SpecialSeries:
    """(exp(s*z) - 1)/s as a coefficient sequence in z, a_k = s^(k-1), or
    with log set log(1 + s*z)/s, a_k = (-1)^(k-1)(k-1)! s^(k-1), for s
    the given variable."""
    ring = _ring(variables, order)
    s = ring.basis_class(ring.labels.index(symbol))
    return SpecialSeries(tuple((log_coefficient(k) if log else 1) * s ** (k - 1)
                               for k in range(1, order + 1)))


def scaled_exp_series(order: int = DEFAULT_ORDER) -> SpecialSeries:
    """(exp(e*x) - 1)/e as a coefficient sequence: a_k = e^(k-1)."""
    return _scaled(order, ("e",), "e", log=False)


def scaled_log_series(order: int = DEFAULT_ORDER) -> SpecialSeries:
    """log(1 + e*y)/e as a coefficient sequence: a_k = (-1)^(k-1)(k-1)! e^(k-1).

    This is the compositional inverse of scaled_exp_series.
    """
    return _scaled(order, ("e",), "e", log=True)


def _partition_sum(k: int, outer: Sequence[GradedClass],
                   inner: Sequence[GradedClass]) -> GradedClass:
    """The k-th composite coefficient: over all partitions of k elements,
    outer at the block count times the product of inner at the block
    sizes (0-based sequences).  Evaluated per type vector with the
    multinomial partition counts, since summands only depend on block
    sizes.  An outer of k - 1 terms leaves out the all-singletons type,
    the only one that reads outer[k - 1].  Rationals work as well as
    classes."""
    acc = 0 * inner[0]
    for tv in type_vectors(k):
        blocks = sum(tv)
        if blocks <= len(outer):
            term = count_by_type(k, tv) * outer[blocks - 1]
            for i, mult in enumerate(tv, start=1):
                if mult:
                    term = term * inner[i - 1] ** mult
            acc = acc + term
    return acc


def compose(outer: SpecialSeries, inner: SpecialSeries) -> SpecialSeries:
    """Partition-sum composition of coefficient sequences of one ring."""
    if outer.order != inner.order:
        raise ValueError(f"order mismatch: {outer.order} vs {inner.order}")
    return SpecialSeries(tuple(_partition_sum(k, outer.coeffs, inner.coeffs)
                               for k in range(1, outer.order + 1)))


def invert(series: SpecialSeries) -> SpecialSeries:
    """Compositional inverse, by triangular recursion.

    Requires an invertible constant linear coefficient.  The result G
    satisfies compose(G, series) = compose(series, G) = identity up to
    the working order.
    """
    a1 = series.coefficient(1)
    c = a1.coords.get(0, 0)  # the unit is the first monomial
    if not c or a1 != c * series.ring.unit():
        raise ValueError("linear coefficient must be an invertible constant")
    b = 1 / Fraction(c)
    inv = [b * series.ring.unit()]
    for k in range(2, series.order + 1):
        # the composite coefficient c_k must vanish; the all-singletons
        # type is the only one involving the unknown b_k, with weight a_1^k
        inv.append(-b ** k * _partition_sum(k, inv, series.coeffs))
    return SpecialSeries(tuple(inv))


# ---------------------------------------------------------------------------
# The bivariate Faa di Bruno identity
# ---------------------------------------------------------------------------


def falling_product(n: int) -> GradedClass:
    """The closed form prod_{i=1}^{n-1} (y - i*x); 1 for n = 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ring = _ring(("x", "y"), n)
    x, y = (ring.basis_class(ring.labels.index(v)) for v in ("x", "y"))
    out = ring.unit()
    for i in range(1, n):
        out = out * (y - i * x)
    return out


def composed_derivative(n: int) -> GradedClass:
    """The n-th exponential coefficient of the composite of (exp(yz)-1)/y
    with log(1+xz)/x, computed by the partition-sum composition.

    Verified against the closed form prod_{i=1}^{n-1}(y - i*x) before
    returning; a mismatch raises, since the identity is exact.
    """
    composite = compose(_scaled(n, ("x", "y"), "y", log=False),
                        _scaled(n, ("x", "y"), "x", log=True))
    value = composite.coefficient(n)
    closed = falling_product(n)
    if value != closed:
        raise ArithmeticError(
            f"bivariate composition identity failed at order {n}: {value} != {closed}")
    return value
