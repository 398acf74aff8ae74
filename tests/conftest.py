import random
import warnings

import pytest

from multipoint.models import truncated_model, truncated_polynomial_ring
from multipoint.random_models import _random_unital
from multipoint.union import disjoint_union


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport():
    # hypothesis writes the patch of a failing example through libcst, whose
    # first import warns that mypy_extensions.TypedDict is deprecated; under
    # -W error that warning would end the run before the example is shown
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning, "libcst")
        return (yield)


# the parameters that the entry checks of signatures read, by name
CHECKED_PARAMETERS = ("model", "k", "J", "x", "route", "quantity", "chern", "log_coeffs")


def products_of(ring):
    """{(i, j): e_i e_j} for i <= j, nonzero entries only: the upper
    triangle of ring.rows, the mapping a GradedRing is built from."""
    return {(i, j): c for i, row in enumerate(ring.rows) for j, c in row.items() if i <= j}


def codim_2_model():
    # source t^0..t^40 with integral mu = 3, target h^0..h^41, lambda = 2:
    # k-tuple manifolds of dimension 82 - 2k, nonempty to k = 41
    rng = random.Random(1)
    M = truncated_polynomial_ring("t", 40, integral_value=3)
    N = truncated_polynomial_ring("h", 41)
    return truncated_model("codim-2", M, N, 3, 2, _random_unital(rng, M, 4),
                           _random_unital(rng, N, 4))


def union_50_model():
    # two sources t^0..t^24 with (mu, lambda) = (3, 2) and (2, -1) in one
    # target h^0..h^25, classes from one Random(1), the target's first:
    # Herbert's hypothesis fails on the union and holds on each component
    rng = random.Random(1)
    N = truncated_polynomial_ring("h", 25)
    p_target = _random_unital(rng, N, 4)
    parts = []
    for mu, lam in ((3, 2), (2, -1)):
        M = truncated_polynomial_ring("t", 24, integral_value=mu)
        parts.append(truncated_model(f"codim-2(mu={mu},lambda={lam})", M, N, mu, lam,
                                     _random_unital(rng, M, 4), p_target))
    return disjoint_union(parts, name="50-class-union")
