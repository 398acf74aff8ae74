"""Finite graded-commutative rational algebras and their tensor powers.

A ring is given by an explicit basis with even degrees, a structure-constant
table for the product, an integration functional supported in the top
degree of each component, and a distinguished unit.  Only even degrees are
admitted, so there are no Koszul signs anywhere.

Coordinates are exact rationals in one normal form: an ``int`` when the
value is integral and a ``Fraction`` only when its denominator exceeds 1.
Almost all model data is integral, and int arithmetic is many times faster
than ``Fraction`` arithmetic; int * Fraction and int + Fraction stay exact.
Floats are refused, since they are not exact.  The module also holds the
exact coefficient tables the kernels read: the block weights and the
L-class log series.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial, gcd, lcm, prod
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .records import _shown

Scalar = Union[int, Fraction]
Coords = Dict[int, Scalar]


class GradedAlgebraError(ValueError):
    pass


class NonUnitalClassError(GradedAlgebraError):
    pass


# a decimal in exponent notation, in Fraction's own grammar: the digits of
# the mantissa before and after the point, and the exponent; a string it
# does not match is left for Fraction to read or refuse
_EXPONENT_FORM = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                            r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _too_long(text: str) -> bool:
    """Whether a decimal string in exponent notation names a numerator or
    denominator, before reduction, or a power of ten, past the interpreter's
    int-to-str digit limit: Fraction would build it, however long, where a
    plain decimal of that many digits is refused by int()."""
    m = _EXPONENT_FORM.match(text)
    limit = sys.get_int_max_str_digits()
    if m is None or not limit:
        return False
    whole, point, exponent = (g.replace("_", "") for g in m.groups(""))
    if len(exponent.lstrip("+-").lstrip("0")) > len(str(limit)):
        return True
    e = int(exponent)
    numerator = len((whole + point).lstrip("0")) + max(e, 0)
    denominator = 1 + len(point) + max(-e, 0)
    return max(numerator, denominator, abs(e) + 1) > limit


def exact(c: object) -> Scalar:
    """The normal form of an exact rational: an int if integral, else a
    Fraction; the one reader of a rational in the package, model files
    included.  A string is read as Fraction reads it, a plain decimal by
    int() at once.  Raises GradedAlgebraError on a float, a bool or anything
    else that Fraction does not read as a finite rational, and on a string
    whose exponent would take it past the int-to-str digit limit."""
    if type(c) is int:
        return c
    # an ASCII decimal integer reads the same by int() as by Fraction(), and
    # int() reads 640 digits under any int-to-str limit the interpreter takes
    if type(c) is str and len(c) < 640 and c.isascii() and c.removeprefix("-").isdecimal():
        return int(c)
    if isinstance(c, (float, bool)):
        raise GradedAlgebraError(f"{type(c).__name__} coordinate {c!r}; "
                                 "use an int, a Fraction or a string")
    if type(c) is not Fraction:
        if type(c) is str and _too_long(c):
            raise GradedAlgebraError(f"coordinate {_shown(c)} is not an exact rational within the "
                                     f"{sys.get_int_max_str_digits()}-digit int limit")
        try:
            c = Fraction(c)
        except (TypeError, ValueError, ArithmeticError):
            raise GradedAlgebraError(f"coordinate {_shown(c)} is not an exact rational; "
                                     "use an int, a Fraction or a string") from None
    return c.numerator if c.denominator == 1 else c


def _bad_index(i: object, n: int, what: tuple) -> GradedAlgebraError:
    return GradedAlgebraError(f"{' '.join(map(str, what))} {_shown(i)} "
                              f"outside the basis 0..{n - 1}")


def mapping_items(obj: Mapping, *what: object):
    """obj.items(), refused by name when obj is not a mapping of what."""
    try:
        return obj.items()
    except AttributeError:
        raise GradedAlgebraError(f"expected a mapping of {' '.join(map(str, what))}, "
                                 f"got {type(obj).__name__}") from None


def clean_coords(coords: Mapping[int, object], n: int, *what: object) -> Coords:
    """coords on a basis of n, each value through exact, zeros dropped; a
    key that is not an int (a bool is not) in 0..n-1 is refused, and so is
    a coords with no items(), caught rather than tested on this hot path."""
    try:
        items = coords.items()
    except AttributeError:
        items = mapping_items(coords, *what, "-> rational")
    out: Coords = {}
    for i, c in items:
        if type(i) is not int or not 0 <= i < n:
            raise _bad_index(i, n, what)
        if type(c) is not int:
            c = exact(c)
        if c:
            out[i] = c
    return out


def basis_indices(indices: Sequence[object], n: int, *what: object) -> Tuple[int, ...]:
    """A tuple or list of indices as a tuple, checked as clean_coords checks keys."""
    if type(indices) not in (tuple, list):
        raise _bad_index(indices, n, what)
    for i in indices:
        if type(i) is not int or not 0 <= i < n:
            raise _bad_index(i, n, what)
    return tuple(indices)


class RingComponent(NamedTuple):
    """One connected component of the underlying space: a basis index
    range with its own top degree (the dimension of that component)."""

    name: str
    indices: Tuple[int, ...]
    top_degree: int


class GradedRing:
    """Graded-commutative algebra over Q on a finite basis.

    ``products`` maps basis index pairs (i, j) with i <= j to sparse
    coordinate dicts; the table is completed symmetrically.  ``integral``
    is a linear functional given by its values on basis elements; ring
    validation confines its support to the top degree of each component.

    A ring is a value: its tables are set once, here, and never assigned
    into after, so what _memo keeps for it (the axiom check, the power sums
    and genus classes of its classes) never goes stale, and models that
    read equal rings may share one (modelfile.ring_from_dict does).
    """

    def __init__(
        self,
        labels: Sequence[str],
        degrees: Sequence[int],
        products: Mapping[Tuple[int, int], Mapping[int, object]],
        integral: Mapping[int, object],
        top_degree: Optional[int] = None,
        unit: Optional[Mapping[int, object]] = None,
        components: Optional[Sequence[RingComponent]] = None,
        name: str = "",
    ):
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        if len(self.labels) != len(self.degrees):
            raise GradedAlgebraError("labels and degrees differ in length")
        for d in self.degrees:
            if type(d) is not int or d < 0 or d % 2:
                raise GradedAlgebraError(f"basis degree {_shown(d)} is not a nonnegative even integer")
        self.name = name
        # the classes vanish above the largest basis degree, so series are
        # sized by it, whatever top degree the ring declares
        self.max_degree = max(self.degrees, default=0)
        top = self.top_degree = self.max_degree if top_degree is None else top_degree
        if type(top) is not int or self.degrees and top < self.max_degree:
            raise GradedAlgebraError(f"top degree {_shown(top)} is not an int, or is below "
                                     f"the largest basis degree {self.max_degree}")

        n = len(self.labels)
        table: Dict[Tuple[int, int], Coords] = {}
        for key, coords in mapping_items(products, "product key -> coordinates"):
            i, j = key if type(key) is tuple and len(key) == 2 else (None, None)
            if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n):
                raise _bad_index(key, n, ("product key",))
            key = (i, j) if i <= j else (j, i)
            coords = clean_coords(coords, n, "product", key, "value index")
            if key in table and table[key] != coords:
                raise GradedAlgebraError(f"conflicting product entries for {key}")
            if coords:
                table[key] = coords
        self.products = table
        # the same table by rows: rows[i][j] = e_i e_j, nonzero entries only
        self.rows: Tuple[Dict[int, Coords], ...] = tuple({} for _ in range(n))
        for (i, j), coords in table.items():
            self.rows[i][j] = self.rows[j][i] = coords

        self.integral = clean_coords(integral, n, "integral index")

        if unit is None:
            zero_deg = [i for i, d in enumerate(self.degrees) if d == 0]
            if len(zero_deg) != 1:
                raise GradedAlgebraError("unit must be given explicitly for rings "
                                         "with several degree-0 basis elements")
            unit = {zero_deg[0]: 1}
        self.unit_coords = clean_coords(unit, n, "unit index")

        if components is None:
            components = [RingComponent("all", tuple(range(n)), self.top_degree)]
        self.components = tuple(components)
        self._component_of = {}
        for comp in self.components:
            if type(comp.top_degree) is not int:
                raise GradedAlgebraError(f"component top degree {_shown(comp.top_degree)} "
                                         "is not an int")
            for i in basis_indices(comp.indices, n, "component", comp.name, "index"):
                if i in self._component_of:
                    raise GradedAlgebraError("components overlap")
                self._component_of[i] = comp
        if len(self._component_of) != n:
            raise GradedAlgebraError("components do not cover the basis")
        self._memo: Dict[object, object] = {}

    # ---- element constructors -------------------------------------------

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def unit(self) -> "GradedClass":
        return GradedClass(self, self.unit_coords)

    def basis_class(self, i: int) -> "GradedClass":
        return GradedClass(self, {i: 1})

    def element(self, coords: Mapping[int, object]) -> "GradedClass":
        return GradedClass(self, coords)

    # ---- products ---------------------------------------------------------

    def basis_product(self, i: int, j: int) -> Coords:
        return self.rows[i].get(j, {})

    def mul_coords(self, a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> Coords:
        """The product of two coordinate dicts, by the structure constants.

        Sums over the nonzero table entries of the pairs of support indices
        only; the result has no zero coordinates.
        """
        rows = self.rows
        out: Coords = {}
        for i, ci in a.items():
            row = rows[i]
            for j, cj in b.items():
                s = row.get(j)
                if s:
                    c = ci * cj
                    for idx, v in s.items():
                        out[idx] = out.get(idx, 0) + c * v
        return {idx: c for idx, c in out.items() if c}

    def integrate_coords(self, coords: Mapping[int, Scalar]) -> Fraction:
        """Apply the integration functional (supported in top degrees) to
        a coordinate dict."""
        integral = self.integral
        return Fraction(sum(c * integral[i] for i, c in coords.items() if i in integral))

    # ---- checks -------------------------------------------------------------

    def check_axioms(self) -> List[str]:
        """Return a list of human-readable axiom violations (empty if none).
        The check runs once per ring; every call returns a new list."""
        issues = self._memo.get("axioms")
        if issues is None:
            issues = self._memo["axioms"] = tuple(self._axiom_issues())
        return list(issues)

    def _axiom_issues(self) -> List[str]:
        """The axiom violations of check_axioms, computed.

        Associativity is compared on the structure constants.  With
        A(i, j, l) = (e_i e_j) e_l, computed once per nonzero product e_i e_j,
        commutativity gives e_i (e_j e_l) = A(j, l, i), so the law at
        (i, j, l) reads A(i, j, l) == A(j, l, i).  Both sides vanish unless
        one of them is a nonzero entry, so only those entries are compared.
        """
        n = len(self.labels)
        labels, degrees, rows = self.labels, self.degrees, self.rows
        component_of = self._component_of
        unit_row = combine_rows(self.unit_coords, rows)
        issues = [f"unit law fails on basis element {labels[i]}"
                  for i in range(n) if unit_row.get(i) != {i: 1}]
        triple: List[Dict[int, Dict[int, Coords]]] = [{} for _ in range(n)]
        for (i, j), ij in sorted(self.products.items()):
            d = degrees[i] + degrees[j]
            comp_i, comp_j = component_of[i], component_of[j]
            for idx in ij:
                if degrees[idx] != d:
                    issues.append(
                        f"product {labels[i]}*{labels[j]} has a term "
                        f"in degree {degrees[idx]}, expected {d}")
                if component_of[idx] is not comp_i:
                    issues.append(f"product {labels[i]}*{labels[j]} leaves its component")
            if comp_i is not comp_j:
                issues.append(f"cross-component product {labels[i]}*{labels[j]} is nonzero")
            if d > comp_i.top_degree:
                issues.append(f"product {labels[i]}*{labels[j]} exceeds the top degree")
            triple[i][j] = triple[j][i] = combine_rows(ij, rows)
        failing = set()
        empty: Dict[int, Coords] = {}
        for i, j in self.products:
            for l, x in triple[i][j].items():
                # the law at (i, j, l) and at its mirror (l, j, i) compare x
                # with A(j, l, i); at (j, i, l) and (l, i, j), with A(i, l, j)
                if x != triple[j].get(l, empty).get(i):
                    failing.update(((i, j, l), (l, j, i)))
                if i != j and x != triple[i].get(l, empty).get(j):
                    failing.update(((j, i, l), (l, i, j)))
        for i, j, l in sorted(failing):
            issues.append(f"associativity fails on ({labels[i]},{labels[j]},{labels[l]})")
        for idx in self.integral:
            comp = component_of[idx]
            if degrees[idx] != comp.top_degree:
                issues.append(
                    f"integral supported on {labels[idx]} of degree "
                    f"{degrees[idx]}, component top is {comp.top_degree}")
        for idx in self.unit_coords:
            if degrees[idx] != 0:
                issues.append("unit has a positive-degree term")
        return issues

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedRing):
            return NotImplemented
        return (self.labels == other.labels and self.degrees == other.degrees
                and self.products == other.products and self.integral == other.integral
                and self.unit_coords == other.unit_coords
                and self.top_degree == other.top_degree
                and self.components == other.components)

    def __hash__(self):
        return hash((self.labels, self.degrees, self.top_degree))

    def __repr__(self) -> str:
        return f"GradedRing({self.name or self.labels}, top={self.top_degree})"


class _Element:
    """What GradedClass and TensorClass share; _one() is their unit."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        return self * other

    def select_degrees(self, J: Sequence[int]):
        """The product of the degree-j parts of this class, over j in J."""
        out = self._one()
        for j in J:
            if type(j) is not int or j < 0 or j % 2:
                raise GradedAlgebraError(f"degree {_shown(j)} in index sequence is not "
                                         "a nonnegative even integer")
            out = out * self.degree_part(j)
        return out


class GradedClass(_Element):
    """Element of a GradedRing, stored as a sparse rational coordinate map."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: GradedRing, coords: Mapping[int, object]):
        self.ring = ring
        self.coords = clean_coords(coords, len(ring.labels), "coordinate index")

    # ---- ring operations ---------------------------------------------------

    def _check(self, other: "GradedClass") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise GradedAlgebraError("classes live in different rings")

    def __add__(self, other: "GradedClass") -> "GradedClass":
        self._check(other)
        out = dict(self.coords)
        for i, c in other.coords.items():
            out[i] = out.get(i, 0) + c
        return GradedClass(self.ring, out)

    def __neg__(self) -> "GradedClass":
        return GradedClass(self.ring, {i: -c for i, c in self.coords.items()})

    def __mul__(self, other):
        if isinstance(other, GradedClass):
            self._check(other)
            return GradedClass(self.ring, self.ring.mul_coords(self.coords, other.coords))
        c = exact(other)
        return GradedClass(self.ring, {i: c * v for i, v in self.coords.items()})

    def __pow__(self, n: int) -> "GradedClass":
        if type(n) is not int:
            raise GradedAlgebraError(f"power {_shown(n)} is not an int")
        if n < 0:
            raise GradedAlgebraError("negative power; use invert_unital first")
        out = self.ring.unit()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedClass):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self.coords == other.coords

    def __hash__(self):
        return hash((self.ring, frozenset(self.coords.items())))

    # ---- graded structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coords

    def degree_part(self, d: int) -> "GradedClass":
        return GradedClass(self.ring,
                           {i: c for i, c in self.coords.items() if self.ring.degrees[i] == d})

    def _one(self):
        return self.ring.unit()

    def is_unital(self) -> bool:
        return self.degree_part(0) == self.ring.unit()

    def invert_unital(self) -> "GradedClass":
        """Inverse of a total class with degree-0 part 1, by the geometric
        series in the nilpotent higher-degree part."""
        if not self.is_unital():
            raise NonUnitalClassError("non-unital total class")
        nil = self - self.ring.unit()
        out = term = self.ring.unit()
        for j in range(nilpotency_order(self.ring)):
            term = term * nil
            if term.is_zero():
                break
            out = out - term if j % 2 == 0 else out + term
        return out

    def integrate(self) -> Fraction:
        """Pair against the fundamental class: apply the integration
        functional (supported in top degrees) to the coordinates."""
        return self.ring.integrate_coords(self.coords)

    def __repr__(self) -> str:
        labels = self.ring.labels
        return " + ".join(f"{_shown(c, str)}*{labels[i]}" if labels[i] != "1" else _shown(c, str)
                          for i, c in sorted(self.coords.items())) or "0"


def combine_rows(a: Mapping[int, Scalar],
                 rows: Sequence[Mapping[int, Coords]]) -> Dict[int, Coords]:
    """sum_p a_p rows[p] for tables rows[p] = {l: coordinate dict}, over
    the l where the sum is nonzero.  For a = e_p this is rows[p] itself,
    which callers must not mutate."""
    if len(a) == 1:
        (p, c), = a.items()
        if c == 1:
            return rows[p]
        return {l: {i: c * v for i, v in s.items()} for l, s in rows[p].items()}
    out: Dict[int, Coords] = {}
    for p, c in a.items():
        for l, s in rows[p].items():
            acc = out.setdefault(l, {})
            for i, v in s.items():
                acc[i] = acc.get(i, 0) + c * v
    return {l: t for l, s in out.items() if (t := {i: v for i, v in s.items() if v})}


def nilpotency_order(ring: GradedRing) -> int:
    """The least m with x^m = 0 for every class x of the ring whose
    degree-0 part is zero: one more than the number of distinct positive
    basis degrees.

    Products are homogeneous, so the partial products of a nonzero product
    of m positive-degree basis elements have m distinct positive basis
    degrees.  The bound is at most the basis size, however large the
    degrees are.
    """
    return len({d for d in ring.degrees if d}) + 1


def power_sum_coords(P: GradedClass, step: int = 4) -> Dict[int, Coords]:
    """The nonzero power sums s_j of the formal roots of a total class P,
    as coordinate dicts, computed once per class and step on P's ring;
    callers must not mutate the result."""
    memo, key = P.ring._memo, ("power sums", step, frozenset(P.coords.items()))
    sums = memo.get(key)
    if sums is None:
        sums = memo[key] = _newton_power_sums(P, step)
    return sums


def _newton_power_sums(P: GradedClass, step: int) -> Dict[int, Coords]:
    """The power sums of power_sum_coords, computed.

    The degree-(step * j) part of P is read as the j-th elementary
    symmetric function of formal roots (squared roots for Pontrjagin
    classes, step 4; roots for Chern classes, step 2) and turned into
    power sums by Newton's identities.  The loop runs over the distinct
    basis degrees only, so the work does not grow with their size.
    """
    ring = P.ring
    if not P.is_unital():
        raise NonUnitalClassError("total class must be unital")
    degrees = ring.degrees
    for d in sorted({degrees[i] for i in P.coords}):
        if d % step:
            raise GradedAlgebraError(f"total class has a degree-{d} part, "
                                     f"not a multiple of {step}")
    # Newton's identities, over the j with a basis element of degree step*j
    # only: every other elementary symmetric function and power sum is zero
    js = sorted({d // step for d in degrees if d and d % step == 0})
    elem: Dict[int, Coords] = {j: {} for j in js}
    for i, c in P.coords.items():
        if degrees[i]:
            elem[degrees[i] // step][i] = c
    sums: Dict[int, Coords] = {}
    for j in js:
        acc = {i: (-1) ** (j - 1) * j * c for i, c in elem[j].items()}
        for i in js:
            if i >= j:
                break
            if elem[i] and j - i in sums:
                sign = 1 if i % 2 else -1
                for idx, v in ring.mul_coords(elem[i], sums[j - i]).items():
                    acc[idx] = acc.get(idx, 0) + sign * v
        acc = {idx: v for idx, v in acc.items() if v}
        if acc:
            sums[j] = acc
    return sums


def genus_coords(ring: GradedRing, terms: Sequence[Tuple[Scalar, Coords]]) -> Coords:
    """exp(sum_j c_j s_j) over the pairs (c_j, s_j) of terms: c_j an exact
    rational, s_j a power sum from power_sum_coords.

    For D the common denominator of sum_j c_j s_j, y = D * sum_j c_j s_j
    is integral, and with M the largest m where y^m is nonzero (below the
    nilpotency order) the class is sum_m y^m D^(M-m) M!/m! / (D^M M!).
    For integral structure constants every power and sum is an int, and
    each coordinate is divided once, at the end.
    """
    scale = lcm(*(x.denominator for x, _ in terms))
    y: Coords = {}
    for x, s in terms:
        w = x.numerator * (scale // x.denominator)
        for i, v in s.items():
            y[i] = y.get(i, 0) + w * v
    extra = lcm(*(v.denominator for v in y.values()))  # 1 unless the data has denominators
    y = {i: v.numerator * (extra // v.denominator) for i, v in y.items() if v}
    common = gcd(scale * extra, *y.values())
    y = {i: v // common for i, v in y.items()}
    scale = scale * extra // common
    powers = [ring.unit_coords]
    for _ in range(nilpotency_order(ring) + 1):
        power = ring.mul_coords(powers[-1], y)
        if not power:
            break
        powers.append(power)
    else:  # only a ring whose products break the axioms gets here
        raise GradedAlgebraError("series coefficients exhausted before nilpotency")
    top = len(powers) - 1
    total: Coords = {}
    weight = 1  # D^(M-m) M!/m!, from m = M down
    for m in range(top, -1, -1):
        for i, v in powers[m].items():
            total[i] = total.get(i, 0) + weight * v
        weight *= scale * m
    denominator = scale ** top * factorial(top)
    return {i: _divide(v, denominator) for i, v in total.items() if v}


def _divide(v: Scalar, n: Scalar) -> Scalar:
    """v / n in the int-or-Fraction normal form, for n nonzero."""
    if type(v) is int:
        q, r = divmod(v, n)
        return Fraction(v, n) if r else q
    return exact(v / n)


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


def genus_class(P: GradedClass, log_coeffs: Callable[[int], Sequence[Scalar]],
                step: int = 4) -> GradedClass:
    """The multiplicative class exp(sum_j c_j s_j) of a total class P, s_j
    its power sums.  Exact, and multiplicative by
    construction, since the power sums of a product of total classes add.

    log_coeffs(n) returns c_0, c_1, ... at least up to c_n, for n the
    largest j with a nonzero power sum (c_0 is not read, and entries past
    the end are 0).  The series is cut at the ring's nilpotency order; see
    genus_coords for the integer kernel.  The class is computed once per
    class, step and the coefficients read, each through exact, on P's ring.
    """
    sums = power_sum_coords(P, step)
    c = log_coeffs(max(sums, default=0))
    read = tuple((j, x) for j in sums if j < len(c) and c[j] and (x := exact(c[j])))
    memo, key = P.ring._memo, ("genus", step, read, frozenset(P.coords.items()))
    coords = memo.get(key)
    if coords is None:
        coords = memo[key] = genus_coords(P.ring, [(x, sums[j]) for j, x in read])
    return GradedClass(P.ring, coords)


def signature_class(P: GradedClass) -> GradedClass:
    """The Hirzebruch L-class of a total Pontrjagin class: the genus class
    of log(sqrt(x)/tanh(sqrt(x)))."""
    return genus_class(P, signature_genus_log_coeffs)


class TensorClass(_Element):
    """Element of the k-fold tensor power of a GradedRing.

    Terms are kept in canonical merged form: a map from k-tuples of basis
    indices to rational coefficients.
    """

    __slots__ = ("ring", "arity", "terms")

    def __init__(self, ring: GradedRing, arity: int, terms: Mapping[Tuple[int, ...], object]):
        if type(arity) is not int or arity < 1:
            raise GradedAlgebraError("tensor arity must be an int of at least 1")
        self.ring = ring
        self.arity = arity
        n = len(ring.labels)
        clean: Dict[Tuple[int, ...], Scalar] = {}
        for idx, c in mapping_items(terms, "tensor term -> rational"):
            c = exact(c)
            if not c:
                continue
            if len(basis_indices(idx, n, "tensor slot index")) != arity:
                raise GradedAlgebraError(f"term {idx} has wrong arity")
            clean[idx] = c
        self.terms = clean

    def _check(self, other: "TensorClass") -> None:
        if self.arity != other.arity or (self.ring is not other.ring and self.ring != other.ring):
            raise GradedAlgebraError("tensor classes are not compatible")

    def __add__(self, other: "TensorClass") -> "TensorClass":
        self._check(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0) + c
        return TensorClass(self.ring, self.arity, out)

    def __neg__(self) -> "TensorClass":
        return TensorClass(self.ring, self.arity, {i: -c for i, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TensorClass):
            self._check(other)
            out: Dict[Tuple[int, ...], Scalar] = {}
            for idx1, c1 in self.terms.items():
                for idx2, c2 in other.terms.items():
                    slot_coords = [self.ring.basis_product(a, b) for a, b in zip(idx1, idx2)]
                    if not all(slot_coords):
                        continue
                    for combo in iproduct(*(s.items() for s in slot_coords)):
                        idx = tuple(i for i, _ in combo)
                        out[idx] = out.get(idx, 0) + c1 * c2 * prod(s for _, s in combo)
            return TensorClass(self.ring, self.arity, out)
        c = exact(other)
        return TensorClass(self.ring, self.arity, {i: c * v for i, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorClass):
            return NotImplemented
        return (self.arity == other.arity and self.terms == other.terms
                and (self.ring is other.ring or self.ring == other.ring))

    def is_zero(self) -> bool:
        return not self.terms

    def degree_part(self, d: int) -> "TensorClass":
        degrees = self.ring.degrees
        return TensorClass(self.ring, self.arity, {idx: c for idx, c in self.terms.items()
                                                   if sum(degrees[i] for i in idx) == d})

    def _one(self):
        return cross([self.ring.unit()] * self.arity)

    def scale_slot(self, slot: int, cls: GradedClass) -> "TensorClass":
        """Multiply the given tensor slot by a class of the base ring."""
        out: Dict[Tuple[int, ...], Scalar] = {}
        for idx, c in self.terms.items():
            base = self.ring.basis_class(idx[slot]) * cls
            for i, s in base.coords.items():
                new = idx[:slot] + (i,) + idx[slot + 1:]
                out[new] = out.get(new, 0) + c * s
        return TensorClass(self.ring, self.arity, out)

    def __repr__(self) -> str:
        labels = self.ring.labels
        return " + ".join(f"{_shown(c, str)}*({' x '.join(labels[i] for i in idx)})"
                          for idx, c in sorted(self.terms.items())) or "0"


def cross(classes: Sequence[GradedClass]) -> TensorClass:
    """Cross product: the tensor class with the given classes as factors."""
    if not classes:
        raise GradedAlgebraError("cross product needs at least one factor")
    ring = classes[0].ring
    for cls in classes[1:]:
        if cls.ring is not ring and cls.ring != ring:
            raise GradedAlgebraError("cross product factors live in different rings")
    terms: Dict[Tuple[int, ...], Scalar] = {}
    for combo in iproduct(*(cls.coords.items() for cls in classes)):
        idx = tuple(i for i, _ in combo)
        terms[idx] = terms.get(idx, 0) + prod(c for _, c in combo)
    return TensorClass(ring, len(classes), terms)

