"""The collected kernel: the exponential coefficients of the normal
blocks, and the genera and characteristic numbers of the k-tuple point
manifold read from them.

By the exponential formula the partition sum of the transfer collapses,
for a tensor power of one normal class u, to the coefficients E_n of
exp(sum_i (-1)^(i-1) b_i t^i / i), b_i the pushforward of e^(i-1) * u^i.
For a multiplicative class K the genus of the k-tuple point manifold is
the integral of K(target) * E_k with u = K(normal)^-1, and the
characteristic numbers are read from genera at integer points.
Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .graded import Coords, GradedClass, Scalar, _divide, exact
from .model import ImmersionModel, solve_linear
from .polynomials import (
    elementary_in_power_sums,
    interpolate_on_lower_set,
    lower_set,
    lower_set_size,
)


class _Chain:
    """The memo of one collected recursion on the target: e * u, the chain
    class e^(n-1) * u^n of the last block, the blocks b_1..b_n, E_0..E_n
    and the source classes F_0..F_m read so far, F_n = f*(E_n), all
    coordinate dicts."""

    __slots__ = ("eu", "last", "blocks", "coeffs", "pulled")

    def __init__(self, model: ImmersionModel, u: Coords):
        self.eu = model.source.mul_coords(model.euler.coords, u)
        self.last = u
        self.blocks: List[Coords] = []
        self.coeffs: List[Coords] = [model.target.unit_coords]
        self.pulled: List[Coords] = []


def _exponential_coefficients(model: ImmersionModel, u: GradedClass, k: int) -> _Chain:
    """The memo holding E_0..E_k, the coefficients of
    exp(sum_i (-1)^(i-1) b_i t^i / i) for the blocks
    b_i = f_!(e^(i-1) * u^i) on the target, u a normal class.

    By the exponential formula, n! * E_n is the sum over the partitions of
    n points of the products of the block classes b_|B|, each weighted by
    the log coefficient of |B|.  Differentiating the exponential gives
    n * E_n = sum_{i=1..n} (-1)^(i-1) b_i E_{n-i}, so E_k costs O(k^2)
    ring products and no partition or type vector is visited.  The
    coefficients of the pulled-back blocks are f*(E_n), f* being a unital
    ring homomorphism, so the source side needs no recursion of its own.

    Everything is a coordinate dict, and the recursion is memoised in the
    model's cache under u: a call for a larger k extends the chain, the
    blocks and the coefficients, and a call for a smaller k reads them.
    The returned memo holds at least E_0..E_k; callers must not mutate it
    except to extend its pulled list.
    """
    memo = model._cached(("collected", u), lambda: _Chain(model, u.coords))
    _extend(model, memo, k)
    return memo


def _extend(model: ImmersionModel, chain: _Chain, k: int) -> None:
    """Extend the chain's blocks and coefficients up to E_k."""
    blocks, coeffs = chain.blocks, chain.coeffs
    push, mul = model.pushforward.apply_coords, model.target.mul_coords
    for n in range(len(coeffs), k + 1):
        if n > 1 and chain.last:
            chain.last = model.source.mul_coords(chain.last, chain.eu)
        blocks.append(chain.last and push(chain.last))
        acc = _sum_coords((1 if i % 2 else -1, mul(blocks[i - 1], coeffs[n - i]))
                          for i in range(1, n + 1) if blocks[i - 1] and coeffs[n - i])
        coeffs.append(_divided(acc, n))


def _divided(coords: Coords, n: int) -> Coords:
    """coords / n, each entry in the int-or-Fraction normal form."""
    return {i: _divide(v, n) for i, v in coords.items()}


def _sum_coords(terms: Iterable[Tuple[Scalar, Coords]]) -> Coords:
    """sum c * x over the (c, x) of terms, with no zero entries."""
    acc: Coords = {}
    for c, coords in terms:
        for i, v in coords.items():
            acc[i] = acc.get(i, 0) + c * v
    return {i: v for i, v in acc.items() if v}


def _pairing(a: GradedClass, b: Coords) -> Fraction:
    """The integral of a * b, for b a coordinate dict on a's ring."""
    return a.ring.integrate_coords(a.ring.mul_coords(a.coords, b))


def _genus(model: ImmersionModel, k: int, target_class: GradedClass,
           u: GradedClass) -> Fraction:
    """The integral of K(target) * E_k, E_k the collected kernel's
    coefficient on the target for the normal class u = K(normal)^-1."""
    return _pairing(target_class, _exponential_coefficients(model, u, k).coeffs[k])


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


def _genus_classes(model: ImmersionModel, kind: Characteristic,
                   c: Sequence[Scalar]) -> Tuple[GradedClass, GradedClass]:
    """K(target) and K(normal)^-1 for log K = sum_j c_j s_j, s_j the power
    sums of the kind's roots, memoised on the model per kind and c (c_0 is
    not read, and each c_j is taken in the int-or-Fraction normal form, so
    every spelling of one c shares an entry); exp(-x) = exp(x)^-1 exactly
    in a nilpotent ring, so the inverse is the genus class of -c."""
    c = (0, *map(exact, tuple(c)[1:]))

    def build() -> Tuple[GradedClass, GradedClass]:
        _, target, normal = kind.classes(model)
        return (model.genus_class(target, lambda n: c, kind.step),
                model.genus_class(normal, lambda n: [-x for x in c], kind.step))
    return model._cached(("genus", kind.name, c), build)


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
    plan (the L point, which the signature queries share, counts as 1)."""
    _, w, weights, _, top, l_point = plan
    return 1 if l_point else lower_set_size(range(2, top + 1), w) * len(weights)


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
    and interpolate_on_lower_set reads it from its values at those integer
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
    points = lower_set(range(2, top + 1), w)
    values: Dict[Tuple[int, ...], Fraction] = dict.fromkeys(points, Fraction(0))
    # G_w = sum_s beta_s G(s . c), from a Vandermonde system in the scales
    # (distinct positive scales and exponents: nonsingular)
    scales = range(1, len(weights) + 1)
    beta = solve_linear([{u: s ** u for u in weights} for s in scales], {w: 1})
    for s, b in zip(scales, beta):
        for m in points:
            c = (0, s, *(x * s ** j for j, x in enumerate(m, start=2)))
            values[m] += b * _genus(model, k, *_genus_classes(model, kind, c))
    numbers: Dict[Tuple[int, ...], Fraction] = {}  # S_lambda = a_m * prod_j m_j!
    for m, a in interpolate_on_lower_set(values).items():
        mult = (w - sum(j * x for j, x in enumerate(m, start=2)),) + m
        lam = tuple(j for j in range(top, 0, -1) for _ in range(mult[j - 1]))
        numbers[lam] = a * prod(map(factorial, mult))
    e = elementary_in_power_sums(top)
    product: Dict[Tuple[int, ...], Fraction] = {(): Fraction(1)}  # prod e_v in s
    for v in parts:
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for a, x in product.items():
            for lam, y in e[v].items():
                key = tuple(sorted(a + lam, reverse=True))
                terms[key] = terms.get(key, 0) + x * y
        product = terms
    return sum((v * numbers.get(lam, 0) for lam, v in product.items()), Fraction(0))

