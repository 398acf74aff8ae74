"""Genera, characteristic numbers and tensor transfers, for the k-tuple
point manifolds.

The signature kernel (the argument checks, the transfer kernel, the
collected chain, Herbert's closed form of the signature, of p_J and of
the unit transfer, the five signature routes and the virtual signature
class), with ``evaluate`` and its record, ``MultipointResult``, lives in
``signatures``, so that a signature query compiles none of this module;
the names of it that the benchmark harness reads from here are bound here
too.  A public function calls the argument checks first and shares its
body only as a private function, so each argument is checked once.
Everything is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

from . import signatures
from .graded import GradedClass, Scalar, TensorClass, cross, exact, genus_class
from .model import ImmersionModel, ModelError, _solve_linear
from .records import _shown
from .signatures import (MultipointResult, _ZERO, _chern, _dimensions, _empty_locus, _genus, _J,
                         _k, _log_coeffs, _model, _tensor, _transfer, _zero_reason)

# the signature names the benchmark harness reads from here, as the same objects
globals().update({name: getattr(signatures, name) for name in """SIGNATURE_ROUTES signature
    multiple_point_dimension signature_collected signature_collected_source signature_via_source
    signature_via_target virtual_signature_class""".split()})


# ---------------------------------------------------------------------------
# The tensor transfers (restriction to the k-tuple locus of a class on the
# k-fold source power, pushed to the source or the target)
# ---------------------------------------------------------------------------


def _transfer_tensor(model: ImmersionModel, k: int, x: TensorClass,
                     to_target: bool) -> GradedClass:
    """The body of both tensor transfers, which starts with their checks."""
    _model(model)
    _k(k)
    _tensor(x, model, k)
    out = (model.target if to_target else model.source).zero()
    for idx, coeff in x.terms.items():
        factors = [model.source.basis_class(i) for i in idx]
        out = out + coeff * _transfer(model, factors, to_target)
    return out


def transfer_to_source(model: ImmersionModel, k: int, x: TensorClass) -> GradedClass:
    """Push the restriction of a class on the k-fold source power down to
    the source, by the solved partition-sum formula.

    Per partition, the block containing 1 contributes its factor product
    directly (weighted by a power of the Euler class); every other block
    passes through pullback(pushforward(.)).  Homogeneous of degree
    (k-1)*codim on elementary tensors.  Linear in x: each term, a tensor
    of basis classes, goes through the factorised kernel on its own.
    """
    return _transfer_tensor(model, k, x, to_target=False)


def transfer_to_target(model: ImmersionModel, k: int, x: TensorClass) -> GradedClass:
    """Pushforward of the k-tuple restriction all the way to the target:
    every block contributes a pushed-forward factor."""
    return _transfer_tensor(model, k, x, to_target=True)


# ---------------------------------------------------------------------------
# Genera
# ---------------------------------------------------------------------------


class Characteristic(NamedTuple):
    """Pontrjagin or Chern classes: the name, the degree step of their
    parts, whether the L-genus is a genus, and the total classes of a
    model's source, target and normal bundle."""

    name: str
    step: int
    l_genus: bool
    classes: Callable[[ImmersionModel], Tuple[GradedClass, GradedClass, GradedClass]]


CHARACTERISTIC = {
    False: Characteristic("pontrjagin", 4, True, lambda m: (
        m.pontrjagin_source, m.pontrjagin_target, m.normal_pontrjagin)),
    True: Characteristic("chern", 2, False, lambda m: (m.chern_source, m.chern_target, m.normal_chern)),
}


def _characteristic(model: ImmersionModel, chern: bool) -> Characteristic:
    """CHARACTERISTIC[chern], refused on a model that lacks the classes it
    reads, before any rule that could answer 0 runs."""
    if chern and (model.chern_source is None or model.chern_target is None):
        raise ModelError("model carries no Chern data")
    return CHARACTERISTIC[chern]


def _genus_classes(model: ImmersionModel, kind: Characteristic,
                   c: Sequence[Scalar]) -> Tuple[GradedClass, GradedClass]:
    """K(target) and K(normal)^-1 for log K = sum_j c_j s_j, s_j the power
    sums of the kind's roots, memoised on the model per kind and c (c_0 is
    not read, each c_j is taken in the int-or-Fraction normal form, and
    trailing zeros are dropped, so every spelling of one c shares an entry);
    exp(-x) = exp(x)^-1 exactly in a nilpotent ring, so the inverse is the
    genus class of -c."""
    c = [0, *map(exact, tuple(c)[1:])]
    while len(c) > 1 and not c[-1]:
        c.pop()
    c = tuple(c)

    def build() -> Tuple[GradedClass, GradedClass]:
        _, target, normal = kind.classes(model)
        return (genus_class(target, lambda n: c, kind.step),
                genus_class(normal, lambda n: [-x for x in c], kind.step))
    return model._cached(("genus", kind.name, c), build)


def genus(model: ImmersionModel, k: int, log_coeffs: Sequence[Scalar],
          chern: bool = False) -> Fraction:
    """The genus of the k-tuple point manifold for the multiplicative class
    K with log K = sum_j c_j s_j, s_j the power sums of the squared
    Pontrjagin roots (of the Chern roots if chern is set) and c_j the
    entries of log_coeffs (c_0 is not read; entries past the end are 0).
    With chern set, a model with no Chern data is refused at every k; else
    the genus is 0 when zero_warning names a reason (on an empty k-tuple
    manifold, before it builds the text).

    The model defines the normal class as f*(P(target)) * P(source)^-1
    (likewise C) and K is multiplicative, so the genus is the integral of
    K(target) * E_k with u = K(normal)^-1, as the collected signature
    route pairs L(target) with it.  The classes are memoised per model.
    """
    _model(model)
    _k(k)
    _log_coeffs(log_coeffs)
    _chern(chern)
    kind = _characteristic(model, chern)
    if _empty_locus(model, k) or _zero_reason(model, k) is not None:
        return _ZERO
    return _genus(model, k, *_genus_classes(model, kind, log_coeffs))


# ---------------------------------------------------------------------------
# Characteristic numbers
# ---------------------------------------------------------------------------


def _genus_plan(J: Sequence[int], kind: Characteristic, dims: Sequence[int]) -> tuple:
    """What _number_from_genera evaluates for J: the kind, the weight
    w = sum(J) / step, the weights of the dimensions dims, the nonzero
    parts j / step of J and the largest, and whether the L point alone
    decides the number."""
    w = sum(J) // kind.step
    weights = sorted({d // kind.step for d in dims if d >= 0 and d % kind.step == 0})
    parts = [j // kind.step for j in J if j]
    return kind, w, weights, parts, max(parts, default=1), kind.l_genus and weights == [w] and w <= 1


def _genus_point_count(plan: tuple) -> int:
    """The number of genus evaluations _number_from_genera makes on the
    plan (1 at the L point, which reads the signature's chain)."""
    _, w, weights, _, top, _ = plan
    return _lower_set_size(range(2, top + 1), w) * len(weights)


def _number_from_genera(model: ImmersionModel, k: int, plan: tuple) -> Fraction:
    """The characteristic number, read from genera.

    Over a component of dimension step * u, the genus with log
    coefficients c is G_u(c) = sum over the partitions lambda of u of
    prod_i c_(lambda_i) / prod_j m_j(lambda)! * S_lambda, S_lambda the
    integral of prod_i s_(lambda_i).  By Newton's identities the number is
    a combination of the S_lambda of weight w = sum(J) / step whose parts
    are at most top = max(J) / step, so c_j = 0 for j > top.  With c_1 = 1
    the genus is then a polynomial in c_2..c_top on the lower set of the
    (m_2, ..., m_top) with sum_j j * m_j <= w, one vector per such lambda,
    and _interpolate_on_lower_set reads it from its values at those integer
    points: a triangular system, no elimination.  Other weights (sources
    with components of other dimensions) are split off by also evaluating
    at s^j * c_j for s = 1, 2, ..., which multiplies G_u by s^u.

    At a point, _genus_classes gives K(target) and u = K(normal)^-1 for
    c = (0, s, m_2 * s^2, ..., m_top * s^top), and _genus pairs them on
    the collected chain of u; both are memoised on the model, so a repeated
    number reads every point.  A
    Pontrjagin number of one weight w <= 1 needs no point: G_1 = S_(1) / 3
    on the L-genus, whose chain the signature queries share.
    """
    kind, w, weights, parts, top, l_point = plan
    if l_point:
        return 3 ** w * _genus(model, k, model.l_target, model.l_normal_inverse)
    points = _lower_set(range(2, top + 1), w)
    values: Dict[Tuple[int, ...], Fraction] = dict.fromkeys(points, Fraction(0))
    # G_w = sum_s beta_s G(s . c), from a Vandermonde system in the scales
    # (distinct positive scales and exponents: nonsingular)
    scales = range(1, len(weights) + 1)
    beta = _solve_linear([{u: s ** u for u in weights} for s in scales], {w: 1})
    for s, b in zip(scales, beta):
        for m in points:
            c = (0, s, *(x * s ** j for j, x in enumerate(m, start=2)))
            values[m] += b * _genus(model, k, *_genus_classes(model, kind, c))
    numbers: Dict[Tuple[int, ...], Fraction] = {}  # S_lambda = a_m * prod_j m_j!
    for m, a in _interpolate_on_lower_set(values).items():
        mult = (w - sum(j * x for j, x in enumerate(m, start=2)),) + m
        lam = tuple(j for j in range(top, 0, -1) for _ in range(mult[j - 1]))
        numbers[lam] = a * prod(map(factorial, mult))
    e = _elementary_in_power_sums(top)
    product: Dict[Tuple[int, ...], Fraction] = {(): Fraction(1)}  # prod e_v in s
    for v in parts:
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for a, x in product.items():
            for lam, y in e[v].items():
                key = tuple(sorted(a + lam, reverse=True))
                terms[key] = terms.get(key, 0) + x * y
        product = terms
    return sum((v * numbers.get(lam, 0) for lam, v in product.items()), Fraction(0))


def _number_by_expansion(model: ImmersionModel, k: int, J: Sequence[int],
                         kind: Characteristic) -> Fraction:
    """The transfer of the degree-J part of the expanded tensor
    C x C(normal)^-1 x ... x C(normal)^-1, C the source's total
    Pontrjagin (or Chern) class: n^k tensor terms for n source classes."""
    total, _, normal = kind.classes(model)
    x = cross([total] + [normal.invert_unital()] * (k - 1)).select_degrees(J)
    return transfer_to_source(model, k, x).integrate() / factorial(k)


def _characteristic_number(model: ImmersionModel, k: int, J: Sequence[int],
                           chern: bool) -> MultipointResult:
    """The number, or 0 before any class is built: with a warning when
    sum(J) is not a k-tuple dimension, and with zero_warning's when it
    names a reason (the empty manifold among them); without one when a j
    is not a multiple of the degree step of the classes.  A Chern number
    on a model with no Chern data is refused first.

    Otherwise _number_from_genera and _number_by_expansion both give it
    exactly.  At the L point (a Pontrjagin number of one weight w <= 1)
    the genera run: the number is 3^w times the L-genus on the collected
    chain that the signature and bk queries memoise, so it costs them no
    chain.  Elsewhere the one with the smaller estimated cost runs,
    counted in products of two coordinates: (k + 1)^2 products of classes
    of n coordinates per genus point, so (k + 1)^2 * n^2, against 3^(k-1)
    products of basis classes per tensor term, of which there are at most
    n^k for n source classes.  The expansion runs where n^k is small and
    the genera where the weight is: a large k leaves the k-tuple manifold
    a small dimension.
    """
    kind = _characteristic(model, chern)
    warnings: List[str] = []
    # the arguments are checked: the private bodies run no entry check again
    dims = _dimensions(model, k)
    if sum(J) not in dims:
        warnings.append(f"degree sum {_shown(sum(J), str)} does not match the k-tuple "
                        f"dimension(s) {_shown(dims, str)}; the pairing vanishes")
    if (why := _zero_reason(model, k)) is not None:
        warnings.append(why)
    value = _ZERO
    # a part of a Pontrjagin class has degree 0 mod 4, so any other j selects 0
    if not warnings and all(j % kind.step == 0 for j in J):
        plan = _genus_plan(J, kind, dims)
        n = len(model.source.labels)
        if not plan[-1] and (n ** k * 3 ** (k - 1)
                             < _genus_point_count(plan) * (k + 1) ** 2 * n * n):
            value = _number_by_expansion(model, k, J, kind)
        else:
            value = _number_from_genera(model, k, plan)
    return MultipointResult(k=k, kind=kind.name, value=value,
                            dimension=dims[0] if len(dims) == 1 else None,
                            warnings=warnings)


def pontrjagin_number(model: ImmersionModel, k: int, J: Sequence[int]) -> MultipointResult:
    """Pontrjagin number of the k-tuple point manifold for the index
    sequence J (degrees of the selected graded parts): the integral of
    the product of the p_(j/4) of its tangent bundle.

    It is 0, with a warning, when sum(J) is not a k-tuple dimension or
    zero_warning names a reason (an empty manifold, or on a model that
    passed validate an embedding at k >= 2 or f_! = 0), and 0 when some j
    is not a multiple of 4; no class is built then.  When
    sum(J) <= 4 and the manifold has one dimension it is 3^(sum(J)/4)
    times the signature, read from the signature's memoised chain.  Otherwise it is computed by the cheaper of
    two exact routes (see _characteristic_number): read from genera, or the
    transfer of the expanded tensor, at small k.
    """
    _model(model)
    _k(k)
    _J(J)
    return _characteristic_number(model, k, J, chern=False)


def chern_number(model: ImmersionModel, k: int, J: Sequence[int]) -> MultipointResult:
    """Chern number of the k-tuple point manifold for the index sequence J,
    computed as pontrjagin_number is, from the Chern roots (with no L
    point, and step 2 for 4); requires Chern data."""
    _model(model)
    _k(k)
    _J(J)
    return _characteristic_number(model, k, J, chern=True)


# ---------------------------------------------------------------------------
# The symmetric-function change of basis and interpolation on a lower set
# of exponent vectors
# ---------------------------------------------------------------------------


def _elementary_in_power_sums(n: int) -> List[Dict[Tuple[int, ...], Fraction]]:
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


def _lower_set(weights: Sequence[int], bound: int) -> List[Tuple[int, ...]]:
    """Every exponent vector m >= 0 with sum_i weights[i] * m_i <= bound
    (positive weights), in lexicographic order."""
    points: List[Tuple[Tuple[int, ...], int]] = [((), 0)]
    for wt in weights:
        points = [(m + (x,), used + x * wt) for m, used in points
                  for x in range((bound - used) // wt + 1)]
    return [m for m, _ in points]


def _lower_set_size(weights: Sequence[int], bound: int) -> int:
    """len(_lower_set(weights, bound)), without building it."""
    ways = [1] + [0] * bound  # ways[b]: the vectors of weight exactly b
    for wt in weights:
        for b in range(wt, bound + 1):
            ways[b] += ways[b - wt]
    return sum(ways)


def _interpolate_on_lower_set(values: Mapping[Tuple[int, ...], object]
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
