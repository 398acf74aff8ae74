"""Power series indexed by set partitions, restricted to the classical case.

A series here is determined by a coefficient sequence a_1, a_2, ... of
polynomials in a formal nilpotent symbol (exact multivariate polynomials,
``Poly``); composition follows the partition-sum rule, which for
coefficient sequences reduces to the Faa di Bruno composite of
exponential power series.  Only the identity checks and the tests use
this module; no production route does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .partitions import count_by_type, type_vectors
from .polynomials import log_coefficient
from .records import FrozenRecord


class Poly:
    """Multivariate polynomial with exact rational coefficients.

    Exponent vectors are tuples aligned with ``variables``.  Instances are
    immutable; all arithmetic returns new objects.  Binary operations
    require both operands to share the same variable tuple.
    """

    __slots__ = ("variables", "coeffs")

    def __init__(self, variables: Iterable[str], coeffs: Mapping[Tuple[int, ...], object] | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for exps, c in (coeffs or {}).items():
            c = Fraction(c)
            if not c:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.variables):
                raise ValueError(f"exponent tuple {exps} does not match variables {self.variables}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def const(cls, variables: Iterable[str], value) -> "Poly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def var(cls, variables: Iterable[str], name: str, power: int = 1) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(power if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    # ---- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        zero = (0,) * len(self.variables)
        return all(e == zero for e in self.coeffs)

    def constant_value(self) -> Fraction:
        zero = (0,) * len(self.variables)
        return self.coeffs.get(zero, Fraction(0))

    def evaluate(self, **values) -> Fraction:
        """Evaluate at rational values given for every variable."""
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        total = Fraction(0)
        for exps, c in self.coeffs.items():
            term = c
            for v, e in zip(self.variables, exps):
                term *= Fraction(values[v]) ** e
            total += term
        return total

    # ---- arithmetic ----------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.variables, out)

    def __neg__(self) -> "Poly":
        return Poly(self.variables, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            out: Dict[Tuple[int, ...], Fraction] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Poly(self.variables, out)
        return Poly(self.variables, {e: c * Fraction(other) for e, c in self.coeffs.items()})

    def __rmul__(self, other) -> "Poly":
        return self * other

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.variables, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for exps in sorted(self.coeffs):
            c = self.coeffs[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)


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
