"""Exact polynomials and rational power-series coefficient tables.

Everything here works over ``fractions.Fraction``; there is no floating
point anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


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


def exp_coeffs(order: int) -> list:
    """Taylor coefficients of exp up to x^order."""
    return [Fraction(1, factorial(k)) for k in range(order + 1)]


def log1p_coeffs(order: int) -> list:
    """Taylor coefficients of log(1+x) up to x^order."""
    return [Fraction(0)] + [Fraction((-1) ** (k - 1), k) for k in range(1, order + 1)]


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
