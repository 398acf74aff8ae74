"""Power series indexed by set partitions, restricted to the classical case.

A series here is determined by a coefficient sequence a_1, a_2, ... of
polynomials in a formal nilpotent symbol; composition follows the
partition-sum rule, which for coefficient sequences reduces to the
Faa di Bruno composite of exponential power series.
"""

from __future__ import annotations

from typing import Tuple

from .partitions import count_by_type, log_coefficient, type_vectors
from .polynomials import Poly
from .records import FrozenRecord

NILPOTENT_SYMBOL = ("e",)
DEFAULT_ORDER = 12


class SpecialSeries(FrozenRecord):
    """A classical partition series: coefficients a_1..a_K as polynomials.

    All coefficients share one variable tuple (by default the nilpotent
    symbol 'e').  Coefficients beyond the working order are an error to
    request.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Tuple[Poly, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its linear coefficient")
        variables = coeffs[0].variables
        for c in coeffs:
            if c.variables != variables:
                raise ValueError("series coefficients use inconsistent variables")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.coeffs[0].variables

    def coefficient(self, k: int) -> Poly:
        """The coefficient a_k, 1-based."""
        if not 1 <= k <= self.order:
            raise ValueError(f"coefficient {k} outside working order {self.order}")
        return self.coeffs[k - 1]


def identity_series(order: int = DEFAULT_ORDER, variables=NILPOTENT_SYMBOL) -> SpecialSeries:
    """The composition unit: a_1 = 1, all higher coefficients 0."""
    one = Poly.const(variables, 1)
    zero = Poly(variables)
    return SpecialSeries((one,) + (zero,) * (order - 1))


def scaled_exp_series(order: int = DEFAULT_ORDER, variables=NILPOTENT_SYMBOL,
                      symbol: str = "e") -> SpecialSeries:
    """(exp(e*x) - 1)/e as a coefficient sequence: a_k = e^(k-1)."""
    e = Poly.var(variables, symbol)
    return SpecialSeries(tuple(e ** (k - 1) for k in range(1, order + 1)))


def scaled_log_series(order: int = DEFAULT_ORDER, variables=NILPOTENT_SYMBOL,
                      symbol: str = "e") -> SpecialSeries:
    """log(1 + e*y)/e as a coefficient sequence: a_k = (-1)^(k-1)(k-1)! e^(k-1).

    This is the compositional inverse of scaled_exp_series.
    """
    e = Poly.var(variables, symbol)
    return SpecialSeries(tuple(log_coefficient(k) * e ** (k - 1) for k in range(1, order + 1)))


def compose(outer: SpecialSeries, inner: SpecialSeries) -> SpecialSeries:
    """Partition-sum composition of coefficient sequences.

    The k-th composite coefficient sums, over all partitions of k elements,
    the outer coefficient at the block count times the product of inner
    coefficients at the block sizes.  Evaluated per type vector with the
    multinomial partition counts, since summands only depend on block sizes.
    """
    if outer.order != inner.order:
        raise ValueError(f"order mismatch: {outer.order} vs {inner.order}")
    if outer.variables != inner.variables:
        raise ValueError("series use different variables")
    variables = outer.variables
    out = []
    for k in range(1, outer.order + 1):
        acc = Poly(variables)
        for tv in type_vectors(k):
            blocks = sum(tv)
            term = count_by_type(k, tv) * outer.coefficient(blocks)
            for i, mult in enumerate(tv, start=1):
                if mult:
                    term = term * inner.coefficient(i) ** mult
            acc = acc + term
        out.append(acc)
    return SpecialSeries(tuple(out))


def invert(series: SpecialSeries) -> SpecialSeries:
    """Compositional inverse, by triangular recursion.

    Requires an invertible constant linear coefficient.  The result G
    satisfies compose(G, series) = compose(series, G) = identity up to
    the working order.
    """
    a1 = series.coefficient(1)
    if not a1.is_constant() or not a1.constant_value():
        raise ValueError("linear coefficient must be an invertible constant")
    variables = series.variables
    a1_val = a1.constant_value()
    inv = [Poly.const(variables, 1 / a1_val)]
    for k in range(2, series.order + 1):
        # composite coefficient c_k must vanish; the all-singletons type is
        # the only one involving the unknown b_k, with weight a_1^k.
        acc = Poly(variables)
        for tv in type_vectors(k):
            blocks = sum(tv)
            if blocks == k:
                continue
            term = count_by_type(k, tv) * inv[blocks - 1]
            for i, mult in enumerate(tv, start=1):
                if mult:
                    term = term * series.coefficient(i) ** mult
            acc = acc + term
        inv.append((-1 / a1_val ** k) * acc)
    return SpecialSeries(tuple(inv))


# ---------------------------------------------------------------------------
# The bivariate Faa di Bruno identity
# ---------------------------------------------------------------------------

BIVARIATE = ("x", "y")


def _exp_over_y_series(order: int) -> SpecialSeries:
    """(exp(y*z) - 1)/y as a series in z: coefficients y^(k-1)."""
    y = Poly.var(BIVARIATE, "y")
    return SpecialSeries(tuple(y ** (k - 1) for k in range(1, order + 1)))


def _log_over_x_series(order: int) -> SpecialSeries:
    """log(1 + x*z)/x as a series in z: coefficients (-1)^(k-1)(k-1)! x^(k-1)."""
    x = Poly.var(BIVARIATE, "x")
    return SpecialSeries(tuple(log_coefficient(k) * x ** (k - 1) for k in range(1, order + 1)))


def falling_product(n: int) -> Poly:
    """The closed form prod_{i=1}^{n-1} (y - i*x); 1 for n = 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    x = Poly.var(BIVARIATE, "x")
    y = Poly.var(BIVARIATE, "y")
    out = Poly.const(BIVARIATE, 1)
    for i in range(1, n):
        out = out * (y - i * x)
    return out


def composed_derivative(n: int) -> Poly:
    """The n-th exponential coefficient of the composite of (exp(yz)-1)/y
    with log(1+xz)/x, computed by the partition-sum composition.

    Verified against the closed form prod_{i=1}^{n-1}(y - i*x) before
    returning; a mismatch raises, since the identity is exact.
    """
    composite = compose(_exp_over_y_series(n), _log_over_x_series(n))
    value = composite.coefficient(n)
    closed = falling_product(n)
    if value != closed:
        raise ArithmeticError(
            f"bivariate composition identity failed at order {n}: {value} != {closed}")
    return value
