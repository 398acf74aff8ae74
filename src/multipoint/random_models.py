"""Random draws of validated models on truncated polynomial rings, for
the tests, the benchmarks and the property checks.

Each draw picks the sizes, mu, lambda and the characteristic classes, and
``models.truncated_model`` builds it, so every draw satisfies the
projection formula and integration compatibility by construction.
"""

from __future__ import annotations

import random
from typing import List

from .graded import Coords, GradedClass, GradedRing
from .model import ImmersionModel
from .models import truncated_model, truncated_polynomial_ring


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
    return truncated_model(f"random(m={m},c={c},mu={mu},lambda={lam})", M, N, mu, lam,
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
        out.append(truncated_model(f"rand-comp{n}(m={m},c={c},mu={mu},lambda={lam})",
                                   M, N, mu, lam, _random_unital(rng, M, 4), p_tgt))
    return out
