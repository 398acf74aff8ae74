"""Set partitions of {1,...,k} with a canonical block ordering.

Blocks are ordered by their smallest element, elements inside a block
ascending, so the first block always contains 1.  Values are immutable
and safe for concurrent reads.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Sequence, Tuple

from .records import FrozenRecord


class SetPartition(FrozenRecord):
    """A partition of {1,...,k} into ordered, internally sorted blocks."""

    __slots__ = ("k", "blocks")

    def __init__(self, k: int, blocks: Tuple[Tuple[int, ...], ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "blocks", blocks)
        if k < 1:
            raise ValueError("ground set size must be at least 1")
        seen = set()
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            if tuple(sorted(block)) != block:
                raise ValueError(f"block {block} not sorted")
            if seen & set(block):
                raise ValueError("blocks are not disjoint")
            seen.update(block)
        if seen != set(range(1, k + 1)):
            raise ValueError(f"blocks do not cover 1..{k}")
        mins = [b[0] for b in blocks]
        if mins != sorted(mins):
            raise ValueError("blocks not ordered by smallest element")

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "SetPartition":
        """Build from a label list: element i+1 goes to block labels[i].

        Block order follows first occurrence, matching the smallest-element
        ordering.
        """
        order: list = []
        members: dict = {}
        for i, lab in enumerate(labels, start=1):
            if lab not in members:
                members[lab] = []
                order.append(lab)
            members[lab].append(i)
        return cls(len(labels), tuple(tuple(members[lab]) for lab in order))

    def __len__(self) -> int:
        return len(self.blocks)

    def type_vector(self) -> Tuple[int, ...]:
        """Entry i-1 counts the blocks of size i; sum of i*l_i equals k."""
        out = [0] * self.k
        for block in self.blocks:
            out[len(block) - 1] += 1
        return tuple(out)

    def __str__(self) -> str:
        return "|".join(",".join(map(str, b)) for b in self.blocks)


def trivial_partition(k: int) -> SetPartition:
    """All singletons (the finest partition)."""
    return SetPartition(k, tuple((i,) for i in range(1, k + 1)))


def universal_partition(k: int) -> SetPartition:
    """A single block (the coarsest partition)."""
    return SetPartition(k, (tuple(range(1, k + 1)),))


# BELL[k - 1] is the number of partitions of {1,...,k}, for k up to 8.
BELL = (1, 2, 5, 15, 52, 203, 877, 4140)


def all_partitions(k: int) -> Iterator[SetPartition]:
    """Yield every partition of {1,...,k} exactly once.

    Enumeration follows restricted-growth strings in lexicographic order,
    which is deterministic and cheap to split into chunks.  Partitions are
    built as they are yielded; only the oracle and the identity checks walk
    them, no production route does.
    """
    if k < 1:
        raise ValueError("ground set size must be at least 1")
    rgs = [0] * k

    def rec(pos: int, maxval: int) -> Iterator[SetPartition]:
        if pos == k:
            yield SetPartition.from_labels(rgs)
            return
        for v in range(maxval + 2):
            rgs[pos] = v
            yield from rec(pos + 1, max(maxval, v))

    yield from rec(1, 0)


def refines(beta: SetPartition, alpha: SetPartition) -> bool:
    """True iff every block of alpha is a union of blocks of beta."""
    if beta.k != alpha.k:
        raise ValueError(f"ground set mismatch: {beta.k} vs {alpha.k}")
    b_label = {}
    for bi, block in enumerate(beta.blocks):
        for i in block:
            b_label[i] = bi
    a_of_b: dict = {}
    for ai, block in enumerate(alpha.blocks):
        for i in block:
            bi = b_label[i]
            if a_of_b.setdefault(bi, ai) != ai:
                return False
    return True


def quotient(alpha: SetPartition, beta: SetPartition) -> SetPartition:
    """The partition induced by alpha on the ordered blocks of beta.

    Lives on the ground set {1,...,len(beta)} via the order-preserving
    identification of beta's blocks with 1..len(beta).
    """
    if not refines(beta, alpha):
        raise ValueError("beta does not refine alpha")
    a_label = {}
    for ai, block in enumerate(alpha.blocks):
        for i in block:
            a_label[i] = ai
    labels = [a_label[block[0]] for block in beta.blocks]
    return SetPartition.from_labels(labels)


def count_by_type(k: int, counts: Sequence[int]) -> int:
    """Number of partitions of {1,...,k} with l_i blocks of size i.

    counts[i-1] = l_i; requires sum of i*l_i to equal k.
    """
    counts = tuple(counts)
    if any(c < 0 for c in counts):
        raise ValueError("negative multiplicity")
    if sum((i + 1) * c for i, c in enumerate(counts)) != k:
        raise ValueError(f"type vector {counts} does not sum to {k}")
    denom = 1
    for i, c in enumerate(counts, start=1):
        denom *= factorial(i) ** c * factorial(c)
    return factorial(k) // denom


def count_by_type_marked(k: int, first_size: int, counts: Sequence[int]) -> int:
    """Partitions of {1,...,k} where the block of 1 has ``first_size``
    elements and there are counts[i-1] further blocks of size i.
    """
    counts = tuple(counts)
    if first_size < 1:
        raise ValueError("block of 1 must be nonempty")
    if any(c < 0 for c in counts):
        raise ValueError("negative multiplicity")
    if first_size + sum((i + 1) * c for i, c in enumerate(counts)) != k:
        raise ValueError(f"marked type ({first_size}, {counts}) does not sum to {k}")
    denom = factorial(first_size - 1)
    for i, c in enumerate(counts, start=1):
        denom *= factorial(i) ** c * factorial(c)
    return factorial(k - 1) // denom


def type_vectors(k: int) -> Iterator[Tuple[int, ...]]:
    """All (l_1,...,l_k) with sum of i*l_i = k, in deterministic order."""

    def rec(remaining: int, i: int, acc: list) -> Iterator[Tuple[int, ...]]:
        if i == k:
            acc.append(remaining // k if k else 0)
            if remaining % k == 0:
                yield tuple(acc)
            acc.pop()
            return
        for c in range(remaining // i + 1):
            acc.append(c)
            yield from rec(remaining - c * i, i + 1, acc)
            acc.pop()

    if k < 1:
        raise ValueError("k must be at least 1")
    yield from rec(k, 1, [])


def marked_type_vectors(k: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """All (l, (l_1,...,l_{k-1})) with l >= 1 and l + sum of i*l_i = k.

    The marked types of count_by_type_marked.  No signature route walks them
    (the collected routes use the exponential formula); the benchmark tracer
    (benchmarks/tracing.py) wraps this generator by name.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for first_size in range(1, k + 1):
        rest = k - first_size
        for tv in type_vectors(rest) if rest else [()]:
            yield first_size, tv + (0,) * (first_size - 1)
