import random
from fractions import Fraction

import pytest

from multipoint import oracle
from multipoint.formulas import transfer_to_source, transfer_to_target
from multipoint.graded import TensorClass, cross
from multipoint.models import BUNDLED, bundled_model
from multipoint.oracle import (
    compose_enumerated,
    double_composition_enumerated,
    refinement_pairs,
    signature_enumerated,
    transfer_to_source_enumerated,
    transfer_to_target_enumerated,
    virtual_class_enumerated,
)
from multipoint.partitions import BELL, all_partitions
from multipoint.random_models import random_truncated_model
from multipoint.signatures import signature, virtual_signature_class


def test_cap_enforced():
    m = bundled_model("line-in-plane")
    with pytest.raises(ValueError):
        signature_enumerated(m, 8)


@pytest.mark.parametrize("k, shown", [(8, "8"), (10 ** 5000, "<5001-digit integer>")],
                         ids=["8", "10**5000"])
def test_every_oracle_entry_point_refuses_k_beyond_the_cap_before_enumerating(
        monkeypatch, k, shown):
    yielded = []

    def counted(n):
        for alpha in all_partitions(n):
            yielded.append(alpha)
            yield alpha

    monkeypatch.setattr(oracle, "all_partitions", counted)
    m = bundled_model("line-in-plane")
    x = TensorClass(m.source, k, {})
    coeffs = [Fraction(1)] * 8
    calls = [
        lambda: signature_enumerated(m, k),
        lambda: virtual_class_enumerated(m, k),
        lambda: transfer_to_source_enumerated(m, k, x),
        lambda: transfer_to_target_enumerated(m, k, x),
        lambda: compose_enumerated(coeffs, coeffs, k),
        lambda: double_composition_enumerated(coeffs, coeffs, coeffs, k),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^oracle refuses k={shown} beyond its cap 7$"):
            call()
    assert yielded == []
    # the counter sees the partitions of a k at the cap
    assert compose_enumerated(coeffs, coeffs, oracle.DEFAULT_CAP).partitions_seen == BELL[6]
    assert yielded


def test_partition_counts_reported():
    m = bundled_model("line-in-plane")
    for k in range(1, 6):
        run = signature_enumerated(m, k)
        assert run.partitions_seen == BELL[k - 1]


def test_transfer_oracles_match_production():
    rng = random.Random(21)
    for _ in range(5):
        m = random_truncated_model(rng)
        for k in range(1, 5):
            n = len(m.source.labels)
            x = cross([m.source.basis_class(rng.randrange(n)) for _ in range(k)])
            assert transfer_to_source_enumerated(m, k, x).value == transfer_to_source(m, k, x)
            assert transfer_to_target_enumerated(m, k, x).value == transfer_to_target(m, k, x)


def test_signature_oracle_matches_all_routes():
    for name in BUNDLED:
        m = bundled_model(name)
        for k in range(1, 5):
            assert signature_enumerated(m, k).value == signature(m, k, route="auto")


def test_virtual_class_oracle_matches_collected():
    for name in BUNDLED:
        m = bundled_model(name)
        for k in range(1, 6):
            assert virtual_class_enumerated(m, k).value == virtual_signature_class(m, k)


def test_compose_enumerated_unit():
    # composing with the identity sequence is neutral
    a = [Fraction(v) for v in (3, 1, 4, 1, 5)]
    e = [Fraction(1)] + [Fraction(0)] * 4
    for k in range(1, 6):
        assert compose_enumerated(a, e, k).value == a[k - 1]


def test_refinement_pair_counts():
    # pairs (beta <= alpha) are counted by the lattice zeta function
    assert len(refinement_pairs(1)) == 1
    assert len(refinement_pairs(2)) == 3
    assert len(refinement_pairs(3)) == 12
    assert len(refinement_pairs(4)) == 60


def test_double_composition_associativity():
    # (a o b) o c = a o (b o c), witnessed on the refinement pairs
    from multipoint.series import SpecialSeries, compose, identity_series

    rng = random.Random(22)
    order = 5
    one = identity_series(order).ring.unit()
    a = [rng.randint(-2, 2) * one for _ in range(order)]
    b = [rng.randint(-2, 2) * one for _ in range(order)]
    c = [rng.randint(-2, 2) * one for _ in range(order)]
    A, B, C = (SpecialSeries(tuple(s)) for s in (a, b, c))
    left = compose(compose(A, B), C)
    right = compose(A, compose(B, C))
    assert left == right
    for k in range(1, order + 1):
        assert double_composition_enumerated(a, b, c, k).value == left.coefficient(k)
