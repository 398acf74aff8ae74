"""Bundled example models.

The named models are small enough to check by hand and cover the special
cases: an embedding with nonzero self-intersection, a disjoint union, a
hypersurface family with known signatures, a vanishing pushforward, a
nullhomotopic immersion, and a zero-Euler-class embedding.
``truncated_model`` builds all but the last two, whose maps are not of
its form.

The random draws live in ``random_models``, which no CLI command loads;
``models.random_truncated_model`` imports it on first use.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .graded import Coords, GradedClass, GradedRing
from .model import ImmersionModel, LinearMap


def truncated_monomial_ring(variables: Sequence[str], cut: int, gen_degree: int = 2,
                            integral: Optional[Mapping[int, object]] = None,
                            name: str = "") -> GradedRing:
    """Q[variables] cut above total degree ``cut``, each variable in degree
    gen_degree: the monomials of degree at most cut, in the lexicographic
    order of their exponent vectors, labelled ``1``, ``x``, ``x^2``,
    ``x*y``, ...  With no integral given the integral is zero."""
    if cut < 0:
        raise ValueError("the degree cut must be nonnegative")
    monomials = [m for m in iproduct(range(cut + 1), repeat=len(variables)) if sum(m) <= cut]
    index = {m: i for i, m in enumerate(monomials)}
    labels = ["*".join(v if p == 1 else f"{v}^{p}" for v, p in zip(variables, m) if p) or "1"
              for m in monomials]
    products: Dict[Tuple[int, int], Coords] = {}
    for i, a in enumerate(monomials):
        for j in range(i, len(monomials)):
            m = tuple(p + q for p, q in zip(a, monomials[j]))
            if m in index:
                products[(i, j)] = {index[m]: 1}
    return GradedRing(labels, [gen_degree * sum(m) for m in monomials], products, integral or {},
                      name=name or f"Q[{','.join(variables)}]")


def truncated_polynomial_ring(symbol: str, powers: int, gen_degree: int = 2,
                              integral_value=1, name: str = "") -> GradedRing:
    """The ring Q[x]/(x^(powers+1)) with deg x = gen_degree.

    Basis 1, x, ..., x^powers; the integral sends the top power to
    ``integral_value``.
    """
    # the ring drops a zero integral value
    return truncated_monomial_ring((symbol,), powers, gen_degree, {powers: integral_value}, name)


def truncated_model(name: str, M: GradedRing, N: GradedRing, mu: int, lam: int,
                    pontrjagin_source: GradedClass, pontrjagin_target: GradedClass,
                    chern_source=None, chern_target=None) -> ImmersionModel:
    """The model with f*(h) = t, pushforward t^i -> mu * h^(i+c/2) and
    Euler class lam * t^(c/2) between Q[t]/(t^(m+1)) and Q[h]/(h^(m+c/2+1))."""
    m = len(M.labels) - 1
    half = len(N.labels) - 1 - m
    pullback = LinearMap(N, M, {j: ({j: 1} if j <= m else {}) for j in range(m + half + 1)})
    pushforward = LinearMap(M, N, {i: {i + half: mu} for i in range(m + 1)})
    return ImmersionModel(
        source=M, target=N, pullback=pullback, pushforward=pushforward,
        codim=2 * half,
        euler=M.element({half: lam}),
        pontrjagin_source=pontrjagin_source,
        pontrjagin_target=pontrjagin_target,
        chern_source=chern_source,
        chern_target=chern_target,
        name=name,
    )


def _line_in_plane() -> ImmersionModel:
    M = truncated_polynomial_ring("t", 1, name="CP1")
    N = truncated_polynomial_ring("h", 2, name="CP2")
    return truncated_model("line-in-plane", M, N, 1, 1, M.unit(), N.element({0: 1, 2: 3}),
                           M.element({0: 1, 1: 2}), N.element({0: 1, 1: 3, 2: 3}))


def _two_lines() -> ImmersionModel:
    from .union import disjoint_union  # the one bundled union: no other model compiles it
    return disjoint_union([_line_in_plane(), _line_in_plane()], name="two-lines")


def _hypersurface(d: int) -> ImmersionModel:
    """Degree-d hypersurface in projective 3-space: source Q[t]/(t^3) with
    t the hyperplane class and integral t^2 -> d, pushforward t^i -> d h^(i+1),
    Euler class d t and Pontrjagin class 1 + (4 - d^2) t^2."""
    M = truncated_polynomial_ring("t", 2, integral_value=d, name=f"V{d}")
    N = truncated_polynomial_ring("h", 3, name="CP3")
    return truncated_model(f"hypersurface-d{d}", M, N, d, d,
                           M.element({0: 1, 2: 4 - d * d}), N.element({0: 1, 2: 4}))


def _null_pushforward() -> ImmersionModel:
    """A vanishing pushforward with nonzero Euler class.

    The source integral is zero, which is what integration compatibility
    forces once every pushed class vanishes.
    """
    M = truncated_polynomial_ring("t", 2, integral_value=0, name="null-src")
    N = truncated_polynomial_ring("h", 3, name="CP3")
    return truncated_model("null-pushforward", M, N, 0, 1, M.unit(), N.unit())


def _nullhomotopic_cp2() -> ImmersionModel:
    """CP2 immersed in the 6-sphere with normal Euler class 3t.

    The pushforward of the top class hits the fundamental class; every
    composite pullback(pushforward(.)) vanishes, so signatures.herbert applies
    though e is not pulled back, and as P(normal)^-1 = P(source) it is
    Szucs's formula for a nullhomotopic f there.
    """
    M = truncated_polynomial_ring("t", 2, name="CP2")
    N = truncated_polynomial_ring("s", 1, gen_degree=6, name="S6")
    pullback = LinearMap(N, M, {0: {0: 1}, 1: {}})
    pushforward = LinearMap(M, N, {0: {}, 1: {}, 2: {1: 1}})
    return ImmersionModel(
        source=M, target=N, pullback=pullback, pushforward=pushforward,
        codim=2,
        euler=M.element({1: 3}),
        pontrjagin_source=M.element({0: 1, 2: 3}),
        pontrjagin_target=N.unit(),
        name="nullhomotopic-cp2-in-s6",
    )


def _line_in_quadric() -> ImmersionModel:
    """A ruling line in a product of two projective lines: an embedding
    with zero normal Euler class."""
    M = truncated_polynomial_ring("t", 1, name="CP1")
    N = GradedRing(
        ["1", "a", "b", "ab"], [0, 2, 2, 4],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
         (1, 1): {}, (1, 2): {3: 1}, (2, 2): {}, (1, 3): {}, (2, 3): {}, (3, 3): {}},
        {3: 1}, name="CP1xCP1")
    pullback = LinearMap(N, M, {0: {0: 1}, 1: {1: 1}, 2: {}, 3: {}})
    pushforward = LinearMap(M, N, {0: {2: 1}, 1: {3: 1}})
    return ImmersionModel(
        source=M, target=N, pullback=pullback, pushforward=pushforward,
        codim=2,
        euler=M.zero(),
        pontrjagin_source=M.unit(),
        pontrjagin_target=N.unit(),
        chern_source=M.element({0: 1, 1: 2}),
        chern_target=N.element({0: 1, 1: 2, 2: 2, 3: 4}),
        name="line-in-quadric",
    )


BUNDLED = {
    "line-in-plane": _line_in_plane,
    "two-lines": _two_lines,
    "hypersurface-d1": lambda: _hypersurface(1),
    "hypersurface-d2": lambda: _hypersurface(2),
    "hypersurface-d3": lambda: _hypersurface(3),
    "hypersurface-d4": lambda: _hypersurface(4),
    "null-pushforward": _null_pushforward,
    "nullhomotopic-cp2-in-s6": _nullhomotopic_cp2,
    "line-in-quadric": _line_in_quadric,
}


def bundled_model(name: str) -> ImmersionModel:
    """Build a bundled model by name; KeyError lists the choices."""
    try:
        factory = BUNDLED[name]
    except KeyError:
        raise KeyError(f"unknown bundled model {name!r}; "
                       f"choices: {', '.join(sorted(BUNDLED))}") from None
    return factory()


_RANDOM = ("random_truncated_model",)


def __getattr__(name):
    if name in _RANDOM:
        from . import random_models
        return getattr(random_models, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
