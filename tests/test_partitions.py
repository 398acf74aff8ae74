import pytest

from multipoint.partitions import (
    BELL,
    SetPartition,
    all_partitions,
    count_by_type,
    count_by_type_marked,
    marked_type_vectors,
    quotient,
    refines,
    trivial_partition,
    type_vectors,
    universal_partition,
)

def test_enumeration_counts():
    for k, bell in enumerate(BELL, start=1):
        parts = list(all_partitions(k))
        assert len(parts) == bell
        assert len(set(parts)) == bell


def test_enumeration_extends_by_a_singleton():
    # dropping the singleton block {9} from the partitions of 9 points that
    # have it gives the partitions of 8 points, in enumeration order
    k = 8
    smaller = list(all_partitions(k))
    assert list(all_partitions(k)) == smaller
    larger = list(all_partitions(k + 1))
    assert len(larger) == len(set(larger)) == 21147  # Bell(9)
    assert [p.blocks[:-1] for p in larger if p.blocks[-1] == (k + 1,)] \
        == [q.blocks for q in smaller]


def test_block_ordering_invariant():
    for alpha in all_partitions(5):
        assert alpha.blocks[0][0] == 1
        mins = [b[0] for b in alpha.blocks]
        assert mins == sorted(mins)
        for b in alpha.blocks:
            assert list(b) == sorted(b)


def test_validation_rejects_bad_blocks():
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        SetPartition(3, ((1,), (3,)))
    with pytest.raises(ValueError):
        SetPartition(3, ((2, 3), (1,)))
    with pytest.raises(ValueError):
        SetPartition(2, ((2, 1),))


def test_from_labels_roundtrip():
    for alpha in all_partitions(4):
        labels = []
        for i in range(1, 5):
            for bi, block in enumerate(alpha.blocks):
                if i in block:
                    labels.append(bi)
        assert SetPartition.from_labels(labels) == alpha


def test_extreme_partitions():
    assert len(trivial_partition(4)) == 4
    assert len(universal_partition(4)) == 1
    for alpha in all_partitions(4):
        assert refines(trivial_partition(4), alpha)
        assert refines(alpha, universal_partition(4))


def test_refinement_and_quotient():
    beta = SetPartition(4, ((1, 2), (3,), (4,)))
    alpha = SetPartition(4, ((1, 2, 3), (4,)))
    assert refines(beta, alpha)
    assert not refines(alpha, beta)
    q = quotient(alpha, beta)
    assert q == SetPartition(3, ((1, 2), (3,)))
    with pytest.raises(ValueError):
        quotient(beta, alpha)


def test_quotient_block_count_consistency():
    for alpha in all_partitions(4):
        for beta in all_partitions(4):
            if refines(beta, alpha):
                q = quotient(alpha, beta)
                assert q.k == len(beta)
                assert len(q) == len(alpha)


def test_type_vector_counts_sum_to_bell():
    for k, bell in enumerate(BELL, start=1):
        total = sum(count_by_type(k, tv) for tv in type_vectors(k))
        assert total == bell


def test_count_by_type_matches_enumeration():
    for k in range(1, 7):
        from collections import Counter
        seen = Counter(alpha.type_vector() for alpha in all_partitions(k))
        for tv, n in seen.items():
            assert count_by_type(k, tv) == n


def test_marked_counts_match_filtered_enumeration():
    for k in range(1, 7):
        from collections import Counter
        seen = Counter()
        for alpha in all_partitions(k):
            first = len(alpha.blocks[0])
            rest = [0] * (k - 1)
            for block in alpha.blocks[1:]:
                rest[len(block) - 1] += 1
            seen[(first, tuple(rest))] += 1
        for (first, rest), n in seen.items():
            assert count_by_type_marked(k, first, rest) == n
        # the generator hits exactly the occurring marked types
        assert set(seen) == set(marked_type_vectors(k))


def test_marked_counts_total():
    # summing over marked types recovers Bell numbers
    for k, bell in enumerate(BELL, start=1):
        total = sum(count_by_type_marked(k, first, rest)
                    for first, rest in marked_type_vectors(k))
        assert total == bell


def test_count_by_type_rejects_bad_vectors():
    with pytest.raises(ValueError):
        count_by_type(3, (1, 0, 1))
    with pytest.raises(ValueError):
        count_by_type_marked(3, 1, (1, 1))


def test_type_vector_identity():
    for alpha in all_partitions(5):
        tv = alpha.type_vector()
        assert sum((i + 1) * c for i, c in enumerate(tv)) == 5
        assert sum(tv) == len(alpha)
