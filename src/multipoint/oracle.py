"""Brute-force oracle: literal partition enumeration with no shortcuts.

The enumerations here recompute the multiple-point quantities from first
principles, sharing only the partition and ring value types with the
production code.  No collected sums, no pull-out identity, no closed
forms; weights come straight from the factorial definition.  Used to
freeze expected values in the test suite.

The clean-intersection recursion that the solved transfer formula comes
from sits here too, as a check of the production transfer, which it
calls: its right side enumerates partitions and diagonal pullbacks.  So
do the identity checks that the ``identities`` command runs: the series
algebra, the partition counts, the recursion and the production
signature routes against the enumerations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct
from math import factorial, prod
from typing import Dict, List, NamedTuple, Tuple

from .formulas import transfer_to_source
from .graded import GradedAlgebraError, GradedClass, Scalar, TensorClass, cross
from .model import ImmersionModel
from .models import BUNDLED, bundled_model
from .partitions import (BELL, SetPartition, all_partitions, count_by_type, quotient, refines,
                         type_vectors)
from .records import _shown
from .series import (DEFAULT_ORDER, _partition_sum, compose, composed_derivative,
                     identity_series, invert, scaled_exp_series, scaled_log_series)
from .signatures import _k, _model, _tensor, signature, virtual_signature_class

DEFAULT_CAP = 7


def _cap(k: object) -> None:
    """Refuse a k that the entry check _k refuses, or beyond DEFAULT_CAP,
    before any partition or factor is built."""
    _k(k)
    if k > DEFAULT_CAP:
        raise ValueError(f"oracle refuses k={_shown(k)} beyond its cap {DEFAULT_CAP}")


def _coefficients(k: int, **lists) -> None:
    """Refuse a coefficient list that is not a list or tuple of at least k
    entries (one per block count or size up to k), before any partition
    is built."""
    for name, coeffs in lists.items():
        if not isinstance(coeffs, (list, tuple)) or len(coeffs) < k:
            raise ValueError(f"{name} must be a list or tuple of at least k = {k} coefficients")


def _weight(alpha: SetPartition) -> int:
    # product over blocks of (-1)^(size-1) (size-1)!
    return prod((-1) ** (len(block) - 1) * factorial(len(block) - 1) for block in alpha.blocks)


class OracleRun(NamedTuple):
    """Result of one oracle evaluation, with the work done made visible."""

    value: object
    partitions_seen: int
    terms_evaluated: int


def _block(model: ImmersionModel, block: Tuple[int, ...], classes: List[GradedClass]) -> GradedClass:
    """e^(|B|-1) times the classes at the points of the block B, on the source."""
    cls = model.source.unit()
    for _ in range(len(block) - 1):
        cls = cls * model.euler
    for i in block:
        cls = cls * classes[i - 1]
    return cls


def _transfer_enumerated(model: ImmersionModel, k: int,
                         terms: List[Tuple[Scalar, List[GradedClass]]], to_target: bool) -> OracleRun:
    """The transfer of sum c * (c_1 x ... x c_k) over the (c, [c_1, ..., c_k])
    of terms, by direct summation over every partition and term: each block
    pushed forward, on the source pulled back too except the block of 1,
    which is kept verbatim."""
    _cap(k)
    out = (model.target if to_target else model.source).zero()
    nparts = 0
    nterms = 0
    for alpha in all_partitions(k):
        nparts += 1
        for coeff, factors in terms:
            nterms += 1
            blocks = [_block(model, block, factors) for block in alpha.blocks]
            cls = model.target.unit() if to_target else blocks.pop(0)
            for block in blocks:
                pushed = model.pushforward(block)
                cls = cls * (pushed if to_target else model.pullback(pushed))
            out = out + (coeff * Fraction(_weight(alpha))) * cls
    return OracleRun(out, nparts, nterms)


def _basis_terms(model: ImmersionModel, k: int, x: TensorClass) -> List[Tuple[Scalar, List[GradedClass]]]:
    """The terms of x as (coefficient, basis classes), after the argument checks."""
    _model(model)
    _k(k)
    _tensor(x, model, k)
    return [(coeff, [model.source.basis_class(i) for i in idx]) for idx, coeff in x.terms.items()]


def transfer_to_target_enumerated(model: ImmersionModel, k: int, x: TensorClass) -> OracleRun:
    """Pushed transfer by direct summation over every partition and term."""
    return _transfer_enumerated(model, k, _basis_terms(model, k, x), to_target=True)


def transfer_to_source_enumerated(model: ImmersionModel, k: int, x: TensorClass) -> OracleRun:
    """Source-level transfer by direct summation, first block kept verbatim."""
    return _transfer_enumerated(model, k, _basis_terms(model, k, x), to_target=False)


def signature_enumerated(model: ImmersionModel, k: int) -> OracleRun:
    """Signature of the k-tuple point manifold by raw enumeration on the
    target: 1/k! times the pairing of L(target) with the enumerated
    virtual signature class, which checks the arguments."""
    run = virtual_class_enumerated(model, k)
    return run._replace(value=(model.l_target * run.value).integrate() / factorial(k))


def virtual_class_enumerated(model: ImmersionModel, k: int) -> OracleRun:
    """The virtual signature class on the target by raw enumeration: the
    pushed transfer of the k-fold tensor power of L(normal)^(-1)."""
    _model(model)
    _cap(k)
    return _transfer_enumerated(model, k, [(1, [model.l_normal_inverse] * k)], to_target=True)


def compose_enumerated(outer_coeffs, inner_coeffs, k: int) -> OracleRun:
    """Partition-sum composition coefficient, summed partition by partition.

    outer_coeffs[n-1] is consumed at the block count n of each partition,
    inner_coeffs[s-1] at each block size s; coefficients may be any values
    with + and * (rationals, ring classes).  Checks the collected
    composition in the series module.
    """
    _cap(k)
    _coefficients(k, outer_coeffs=outer_coeffs, inner_coeffs=inner_coeffs)
    out = None
    nparts = 0
    for alpha in all_partitions(k):
        nparts += 1
        term = outer_coeffs[len(alpha.blocks) - 1]
        for block in alpha.blocks:
            term = term * inner_coeffs[len(block) - 1]
        out = term if out is None else out + term
    return OracleRun(out, nparts, nparts)


def refinement_pairs(k: int) -> List[Tuple[SetPartition, SetPartition]]:
    """All ordered pairs (beta, alpha) with beta refining alpha."""
    parts = list(all_partitions(k))
    return [(b, a) for b in parts for a in parts if refines(b, a)]


def double_composition_enumerated(a, b, c, k: int) -> OracleRun:
    """Associativity witness: sum over refinement pairs beta <= alpha of
    a at the alpha block count, b at the quotient block sizes, c at the
    beta block sizes.  Must equal composing in either order."""
    _cap(k)
    _coefficients(k, a=a, b=b, c=c)
    out = None
    npairs = 0
    for beta, alpha in refinement_pairs(k):
        npairs += 1
        q = quotient(alpha, beta)
        term = a[len(alpha.blocks) - 1]
        for block in q.blocks:
            term = term * b[len(block) - 1]
        for block in beta.blocks:
            term = term * c[len(block) - 1]
        out = term if out is None else out + term
    return OracleRun(out, npairs, npairs)


def diagonal_pullback(alpha: SetPartition, x: TensorClass) -> TensorClass:
    """Pull back along the partial diagonal of a set partition.

    For an elementary tensor the factors indexed by each block of alpha
    are multiplied in the base ring; the resulting factors are arranged
    in the canonical block order.
    """
    if alpha.k != x.arity:
        raise GradedAlgebraError(f"partition on {alpha.k} elements applied to arity {x.arity}")
    out_terms: Dict[Tuple[int, ...], Scalar] = {}
    ring = x.ring
    for idx, c in x.terms.items():
        block_classes = []
        for block in alpha.blocks:
            cls = ring.basis_class(idx[block[0] - 1])
            for i in block[1:]:
                cls = cls * ring.basis_class(idx[i - 1])
            block_classes.append(cls)
        if any(cls.is_zero() for cls in block_classes):
            continue
        for combo in iproduct(*(cls.coords.items() for cls in block_classes)):
            new = tuple(i for i, _ in combo)
            coeff = c
            for _, s in combo:
                coeff *= s
            out_terms[new] = out_terms.get(new, 0) + coeff
    return TensorClass(ring, len(alpha.blocks), out_terms)


def recursion_identity_holds(model: ImmersionModel, k: int, x: TensorClass) -> bool:
    """Check the recursion the solved formula came from.

    Left side: the first factor times the pulled-back pushforwards of the
    others.  Right side: the partition sum of Euler-weighted transfers of
    the diagonal restrictions.  Returns exact equality.
    """
    terms = _basis_terms(model, k, x)
    lhs = model.source.zero()
    for coeff, factors in terms:
        cls = factors[0]
        for factor in factors[1:]:
            cls = cls * model.pushpull(factor)
        lhs = lhs + coeff * cls

    rhs = model.source.zero()
    for alpha in all_partitions(k):
        y = diagonal_pullback(alpha, x)
        for slot, block in enumerate(alpha.blocks):
            if len(block) > 1:
                y = y.scale_slot(slot, model.euler ** (len(block) - 1))
        rhs = rhs + transfer_to_source(model, len(alpha.blocks), y)
    return lhs == rhs


def identity_failures(max_k: int) -> List[str]:
    """Run the identity suites up to multiplicity max_k, each capped (the
    oracle suites at 6 or below, the series order at DEFAULT_ORDER), and
    return a description of each identity that fails; empty if all hold."""
    failures: List[str] = []
    order = min(max(8, max_k), DEFAULT_ORDER)

    H = scaled_exp_series(order)
    G, log_series = invert(H), scaled_log_series(order)
    for k in range(1, order + 1):
        if G.coefficient(k) != log_series.coefficient(k):
            failures.append(f"series inversion coefficient {k}: {G.coefficient(k)}")
    if compose(H, G) != identity_series(order):
        failures.append("compose(H, invert(H)) is not the identity series")

    for n in range(1, 7):
        try:
            composed_derivative(n)
        except ArithmeticError as exc:
            failures.append(str(exc))

    for k in range(1, min(max_k, 6) + 1):
        count = sum(1 for _ in all_partitions(k))
        if count != BELL[k - 1]:
            failures.append(f"partition count for k={k}: {count} != {BELL[k - 1]}")
        by_type = sum(count_by_type(k, tv) for tv in type_vectors(k))
        if by_type != BELL[k - 1]:
            failures.append(f"type-vector counts for k={k} sum to {by_type}")

    rng = random.Random(7)
    poly_order = min(max_k, 5)
    a = [Fraction(rng.randint(-3, 3)) for _ in range(poly_order)]
    b = [Fraction(rng.randint(-3, 3)) for _ in range(poly_order)]
    for k in range(1, poly_order + 1):
        enum = compose_enumerated(a, b, k).value
        coll = _partition_sum(k, a, b)
        if enum != coll:
            failures.append(f"composition oracle mismatch at k={k}: {enum} != {coll}")

    for name in BUNDLED:
        model = bundled_model(name)
        for k in range(1, min(max_k, 3) + 1):
            n = len(model.source.labels)
            idx = tuple(rng.randrange(n) for _ in range(k))
            x = cross([model.source.basis_class(i) for i in idx])
            if not recursion_identity_holds(model, k, x):
                failures.append(f"recursion identity fails on {name}, k={k}, x={idx}")
        for k in range(1, min(max_k, 4) + 1):
            sig = signature(model, k, route="auto")
            orc = signature_enumerated(model, k).value
            if sig != orc:
                failures.append(f"signature oracle mismatch on {name}, k={k}")
            if virtual_signature_class(model, k) != virtual_class_enumerated(model, k).value:
                failures.append(f"virtual class oracle mismatch on {name}, k={k}")
    return failures
