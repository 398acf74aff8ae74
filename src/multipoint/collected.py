"""The collected kernel: the exponential coefficients of the normal
blocks, and the genus of the k-tuple point manifold read from them.

By the exponential formula the partition sum of the transfer collapses,
for a tensor power of one normal class u, to the coefficients E_n of
exp(sum_i (-1)^(i-1) b_i t^i / i), b_i the pushforward of e^(i-1) * u^i.
For a multiplicative class K the genus of the k-tuple point manifold is
the integral of K(target) * E_k with u = K(normal)^-1; the collected
signature routes pair the L-class with it, and ``formulas`` reads the
characteristic numbers from genera at integer points.  Everything is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Tuple

from .graded import Coords, GradedClass, Scalar, _divide
from .model import ImmersionModel


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
