"""Brute-force oracle: literal partition enumeration with no shortcuts.

The enumerations here recompute the multiple-point quantities from first
principles, sharing only the partition and ring value types with the
production code.  No collected sums, no pull-out identity, no closed
forms; weights come straight from the factorial definition.  Used to
freeze expected values in the test suite.

The clean-intersection recursion that the solved transfer formula comes
from sits here too, as a check of the production transfer, which it
calls: its right side enumerates partitions and diagonal pullbacks.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, NamedTuple, Tuple

from .formulas import _check_k, _check_tensor, transfer_to_source
from .graded import TensorClass, diagonal_pullback
from .model import ImmersionModel
from .partitions import SetPartition, all_partitions, quotient, refines

DEFAULT_CAP = 7


def _check_cap(k: int, cap: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > cap:
        raise ValueError(f"oracle refuses k={k} beyond its cap {cap}")


def _weight(alpha: SetPartition) -> int:
    # product over blocks of (-1)^(size-1) (size-1)!
    w = 1
    for block in alpha.blocks:
        s = len(block)
        w *= (-1) ** (s - 1) * factorial(s - 1)
    return w


class OracleRun(NamedTuple):
    """Result of one oracle evaluation, with the work done made visible."""

    value: object
    partitions_seen: int
    terms_evaluated: int


def transfer_to_target_enumerated(model: ImmersionModel, k: int, x: TensorClass,
                                  cap: int = DEFAULT_CAP) -> OracleRun:
    """Pushed transfer by direct summation over every partition and term."""
    _check_cap(k, cap)
    out = model.target.zero()
    nparts = 0
    nterms = 0
    for alpha in all_partitions(k):
        nparts += 1
        for idx, coeff in x.terms.items():
            nterms += 1
            cls = model.target.unit()
            for block in alpha.blocks:
                inner = model.source.unit()
                for _ in range(len(block) - 1):
                    inner = inner * model.euler
                for i in block:
                    inner = inner * model.source.basis_class(idx[i - 1])
                cls = cls * model.pushforward(inner)
            out = out + (coeff * Fraction(_weight(alpha))) * cls
    return OracleRun(out, nparts, nterms)


def transfer_to_source_enumerated(model: ImmersionModel, k: int, x: TensorClass,
                                  cap: int = DEFAULT_CAP) -> OracleRun:
    """Source-level transfer by direct summation, first block kept verbatim."""
    _check_cap(k, cap)
    out = model.source.zero()
    nparts = 0
    nterms = 0
    for alpha in all_partitions(k):
        nparts += 1
        for idx, coeff in x.terms.items():
            nterms += 1
            first = alpha.blocks[0]
            cls = model.source.unit()
            for _ in range(len(first) - 1):
                cls = cls * model.euler
            for i in first:
                cls = cls * model.source.basis_class(idx[i - 1])
            for block in alpha.blocks[1:]:
                inner = model.source.unit()
                for _ in range(len(block) - 1):
                    inner = inner * model.euler
                for i in block:
                    inner = inner * model.source.basis_class(idx[i - 1])
                cls = cls * model.pullback(model.pushforward(inner))
            out = out + (coeff * Fraction(_weight(alpha))) * cls
    return OracleRun(out, nparts, nterms)


def signature_enumerated(model: ImmersionModel, k: int, cap: int = DEFAULT_CAP) -> OracleRun:
    """Signature of the k-tuple point manifold by raw enumeration on the
    target: 1/k! times the pairing of L(target) with the pushed transfer
    of the k-fold tensor power of L(normal)^(-1)."""
    _check_cap(k, cap)
    u = model.l_normal_inverse
    nparts = 0
    total = Fraction(0)
    for alpha in all_partitions(k):
        nparts += 1
        cls = model.target.unit()
        for block in alpha.blocks:
            inner = model.source.unit()
            for _ in range(len(block) - 1):
                inner = inner * model.euler
            for _ in block:
                inner = inner * u
            cls = cls * model.pushforward(inner)
        total += Fraction(_weight(alpha)) * (model.l_target * cls).integrate()
    return OracleRun(total / factorial(k), nparts, nparts)


def virtual_class_enumerated(model: ImmersionModel, k: int, cap: int = DEFAULT_CAP) -> OracleRun:
    """The virtual signature class on the target by raw enumeration."""
    _check_cap(k, cap)
    u = model.l_normal_inverse
    out = model.target.zero()
    nparts = 0
    for alpha in all_partitions(k):
        nparts += 1
        cls = model.target.unit()
        for block in alpha.blocks:
            inner = model.source.unit()
            for _ in range(len(block) - 1):
                inner = inner * model.euler
            for _ in block:
                inner = inner * u
            cls = cls * model.pushforward(inner)
        out = out + Fraction(_weight(alpha)) * cls
    return OracleRun(out, nparts, nparts)


def compose_enumerated(outer_coeffs, inner_coeffs, k: int,
                       cap: int = DEFAULT_CAP) -> OracleRun:
    """Partition-sum composition coefficient, summed partition by partition.

    outer_coeffs[n-1] is consumed at the block count n of each partition,
    inner_coeffs[s-1] at each block size s; coefficients may be any values
    with + and * (polynomials, ring classes).  Checks the collected
    composition in the series module.
    """
    _check_cap(k, cap)
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


def double_composition_enumerated(a, b, c, k: int, cap: int = DEFAULT_CAP) -> OracleRun:
    """Associativity witness: sum over refinement pairs beta <= alpha of
    a at the alpha block count, b at the quotient block sizes, c at the
    beta block sizes.  Must equal composing in either order."""
    _check_cap(k, cap)
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


def recursion_identity_holds(model: ImmersionModel, k: int, x: TensorClass) -> bool:
    """Check the recursion the solved formula came from.

    Left side: the first factor times the pulled-back pushforwards of the
    others.  Right side: the partition sum of Euler-weighted transfers of
    the diagonal restrictions.  Returns exact equality.
    """
    _check_k(k)
    _check_tensor(model, k, x)
    lhs = model.source.zero()
    for idx, coeff in x.terms.items():
        cls = model.source.basis_class(idx[0])
        for i in idx[1:]:
            cls = cls * model.pushpull(model.source.basis_class(i))
        lhs = lhs + coeff * cls

    rhs = model.source.zero()
    for alpha in all_partitions(k):
        y = diagonal_pullback(alpha, x)
        for slot, block in enumerate(alpha.blocks):
            if len(block) > 1:
                y = y.scale_slot(slot, model.euler ** (len(block) - 1))
        rhs = rhs + transfer_to_source(model, len(alpha.blocks), y)
    return lhs == rhs
