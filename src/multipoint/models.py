"""Bundled example models and a factory for randomized validated models.

The named models are small enough to check by hand and cover the special
cases: an embedding with nonzero self-intersection, a disjoint union, a
hypersurface family with known signatures, a vanishing pushforward, a
nullhomotopic immersion, and a zero-Euler-class embedding.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .graded import Coords, GradedClass, GradedRing
from .model import ImmersionModel, LinearMap, disjoint_union


def truncated_polynomial_ring(symbol: str, powers: int, gen_degree: int = 2,
                              integral_value=1, name: str = "") -> GradedRing:
    """The ring Q[x]/(x^(powers+1)) with deg x = gen_degree.

    Basis 1, x, ..., x^powers; the integral sends the top power to
    ``integral_value``.
    """
    if powers < 0:
        raise ValueError("powers must be nonnegative")
    labels = ["1"] + [symbol if p == 1 else f"{symbol}^{p}" for p in range(1, powers + 1)]
    degrees = [p * gen_degree for p in range(powers + 1)]
    products: Dict[Tuple[int, int], Coords] = {}
    for i in range(powers + 1):
        for j in range(i, powers + 1):
            if i + j <= powers:
                products[(i, j)] = {i + j: 1}
    # the ring drops a zero integral value
    return GradedRing(labels, degrees, products, {powers: integral_value},
                      name=name or f"Q[{symbol}]")


def _line_in_plane() -> ImmersionModel:
    M = truncated_polynomial_ring("t", 1, name="CP1")
    N = truncated_polynomial_ring("h", 2, name="CP2")
    pullback = LinearMap.from_coords(N, M, {0: {0: 1}, 1: {1: 1}, 2: {}})
    pushforward = LinearMap.from_coords(M, N, {0: {1: 1}, 1: {2: 1}}, degree_shift=2)
    return ImmersionModel(
        source=M, target=N, pullback=pullback, pushforward=pushforward,
        codim=2,
        euler=M.element({1: 1}),
        pontrjagin_source=M.unit(),
        pontrjagin_target=N.element({0: 1, 2: 3}),
        chern_source=M.element({0: 1, 1: 2}),
        chern_target=N.element({0: 1, 1: 3, 2: 3}),
        name="line-in-plane",
    )


def _two_lines() -> ImmersionModel:
    return disjoint_union([_line_in_plane(), _line_in_plane()], name="two-lines")


def _hypersurface(d: int) -> ImmersionModel:
    """Degree-d hypersurface in projective 3-space.

    The source ring has basis 1, t, T with t*t = d*T and integral T -> 1;
    the top Pontrjagin component is (4 - d^2) t^2 = (4 - d^2) d T.
    """
    M = GradedRing(
        ["1", "t", "T"], [0, 2, 4],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {2: d},
         (1, 2): {}, (2, 2): {}},
        {2: 1}, name=f"V{d}")
    N = truncated_polynomial_ring("h", 3, name="CP3")
    pullback = LinearMap.from_coords(N, M, {0: {0: 1}, 1: {1: 1}, 2: {2: d}, 3: {}})
    pushforward = LinearMap.from_coords(
        M, N, {0: {1: d}, 1: {2: d}, 2: {3: 1}}, degree_shift=2)
    return ImmersionModel(
        source=M, target=N, pullback=pullback, pushforward=pushforward,
        codim=2,
        euler=M.element({1: d}),
        pontrjagin_source=M.element({0: 1, 2: (4 - d * d) * d}),
        pontrjagin_target=N.element({0: 1, 2: 4}),
        name=f"hypersurface-d{d}",
    )


def _null_pushforward() -> ImmersionModel:
    """A vanishing pushforward with nonzero Euler class.

    The source integral is zero, which is what integration compatibility
    forces once every pushed class vanishes.
    """
    M = truncated_polynomial_ring("t", 2, integral_value=0, name="null-src")
    N = truncated_polynomial_ring("h", 3, name="CP3")
    pullback = LinearMap.from_coords(N, M, {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {}})
    pushforward = LinearMap.from_coords(M, N, {0: {}, 1: {}, 2: {}}, degree_shift=2)
    return ImmersionModel(
        source=M, target=N, pullback=pullback, pushforward=pushforward,
        codim=2,
        euler=M.element({1: 1}),
        pontrjagin_source=M.unit(),
        pontrjagin_target=N.unit(),
        name="null-pushforward",
    )


def _nullhomotopic_cp2() -> ImmersionModel:
    """CP2 immersed in the 6-sphere with normal Euler class 3t.

    The pushforward of the top class hits the fundamental class; every
    composite pullback(pushforward(.)) vanishes, and the inverse normal
    signature class equals the source one, so the closed nullhomotopic
    formulas apply.
    """
    M = truncated_polynomial_ring("t", 2, name="CP2")
    N = GradedRing(["1", "s"], [0, 6], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {}},
                   {1: 1}, name="S6")
    pullback = LinearMap.from_coords(N, M, {0: {0: 1}, 1: {}})
    pushforward = LinearMap.from_coords(M, N, {0: {}, 1: {}, 2: {1: 1}}, degree_shift=2)
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
    pullback = LinearMap.from_coords(N, M, {0: {0: 1}, 1: {1: 1}, 2: {}, 3: {}})
    pushforward = LinearMap.from_coords(M, N, {0: {2: 1}, 1: {3: 1}}, degree_shift=2)
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


def _random_unital(rng: random.Random, ring: GradedRing, step: int) -> GradedClass:
    """1 plus a random multiple, in -4..4, of each basis class whose
    positive degree is a multiple of step."""
    coords: Coords = dict(ring.unit_coords)
    for i, d in enumerate(ring.degrees):
        if d > 0 and d % step == 0:
            v = rng.randint(-4, 4)
            if v:
                coords[i] = v
    return ring.element(coords)


def _truncated_model(name: str, M: GradedRing, N: GradedRing, mu: int, lam: int,
                     pontrjagin_source: GradedClass, pontrjagin_target: GradedClass,
                     chern_source=None, chern_target=None) -> ImmersionModel:
    """The model with f*(h) = t, pushforward t^i -> mu * h^(i+c/2) and
    Euler class lam * t^(c/2) between Q[t]/(t^(m+1)) and Q[h]/(h^(m+c/2+1))."""
    m = len(M.labels) - 1
    half = len(N.labels) - 1 - m
    pullback = LinearMap.from_coords(
        N, M, {j: ({j: 1} if j <= m else {}) for j in range(m + half + 1)})
    pushforward = LinearMap.from_coords(
        M, N, {i: {i + half: mu} for i in range(m + 1)}, degree_shift=2 * half)
    return ImmersionModel(
        source=M, target=N, pullback=pullback, pushforward=pushforward,
        codim=2 * half,
        euler=M.element({half: lam} if lam else {}),
        pontrjagin_source=pontrjagin_source,
        pontrjagin_target=pontrjagin_target,
        chern_source=chern_source,
        chern_target=chern_target,
        name=name,
    )


def random_truncated_model(rng: random.Random, max_powers: int = 4,
                           with_chern: bool = False,
                           allow_zero_euler: bool = True) -> ImmersionModel:
    """A random validated model on truncated polynomial rings.

    Source Q[t]/(t^(m+1)), target Q[h]/(h^(m+c/2+1)) with f*(h) = t,
    pushforward t^i -> mu * h^(i+c/2) and Euler class lambda * t^(c/2).
    The projection formula and integration compatibility hold by
    construction for every draw.
    """
    m = rng.randint(1, max_powers)
    # codim 4 needs a degree-4 source class for the Euler slot
    c = rng.choice([2, 4]) if m >= 2 else 2
    mu = rng.randint(-3, 3)
    iota = rng.choice([1, 1, 2, -1])
    lam = rng.randint(-2, 2) if allow_zero_euler else rng.choice([1, 2, -1])

    M = truncated_polynomial_ring("t", m, integral_value=mu * iota, name="rand-src")
    N = truncated_polynomial_ring("h", m + c // 2, integral_value=iota, name="rand-tgt")
    p_src = _random_unital(rng, M, 4)
    p_tgt = _random_unital(rng, N, 4)
    chern = (_random_unital(rng, M, 2), _random_unital(rng, N, 2)) if with_chern else ()
    return _truncated_model(f"random(m={m},c={c},mu={mu},lambda={lam})", M, N, mu, lam,
                            p_src, p_tgt, *chern)


def random_union_components(rng: random.Random, count: int,
                            max_powers: int = 3) -> List[ImmersionModel]:
    """Random models sharing one target ring and target Pontrjagin class,
    suitable for disjoint unions; source-side data varies per component."""
    m = rng.randint(1, max_powers)
    c = rng.choice([2, 4]) if m >= 2 else 2
    iota = rng.choice([1, 1, 2, -1])
    N = truncated_polynomial_ring("h", m + c // 2, integral_value=iota, name="rand-tgt")
    p_tgt = _random_unital(rng, N, 4)

    out: List[ImmersionModel] = []
    for n in range(count):
        mu = rng.randint(-3, 3)
        lam = rng.randint(-2, 2)
        M = truncated_polynomial_ring("t", m, integral_value=mu * iota, name=f"rand-src{n}")
        out.append(_truncated_model(f"rand-comp{n}(m={m},c={c},mu={mu},lambda={lam})",
                                    M, N, mu, lam, _random_unital(rng, M, 4), p_tgt))
    return out
