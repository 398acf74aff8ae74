"""Acceptance gate: one test per release criterion.

Every check is exact (tolerance zero).  Randomized models come from a
fixed seed, so the gate is deterministic.  Each criterion emits a single
PASS line when it holds (visible with -s; the per-test verdict of -v is
the canonical pass/fail record).
"""

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from multipoint.formulas import (
    PreconditionError,
    chern_number,
    euler_zero,
    nullhomotopic,
    pontrjagin_number,
    pulled_from_target,
    pulled_from_target_class,
    pushpull_zero,
    transfer_of_unit,
    transfer_to_source,
)
from multipoint.graded import cross, signature_class
from multipoint.model import embedding_consistent, validate
from multipoint.modelfile import model_to_dict
from multipoint.models import BUNDLED, bundled_model
from multipoint.oracle import recursion_identity_holds, virtual_class_enumerated
from multipoint.partitions import (
    BELL,
    all_partitions,
    count_by_type,
    count_by_type_marked,
    type_vectors,
)
from multipoint.random_models import random_truncated_model, random_union_components
from multipoint.series import (
    compose,
    composed_derivative,
    falling_product,
    identity_series,
    invert,
    scaled_exp_series,
)
from multipoint.signatures import (
    multiple_point_dimension,
    signature,
    signature_collected,
    signature_collected_source,
    signature_via_source,
    signature_via_target,
    virtual_signature_class,
)
from multipoint.union import disjoint_union
from series_reference import eval_series, tanh_coeffs


@pytest.fixture(scope="module")
def random_models():
    rng = random.Random(20260823)
    models = []
    while len(models) < 50:
        m = random_truncated_model(rng, max_powers=3 if len(models) % 5 else 4)
        assert validate(m).ok, m.name
        models.append(m)
    return models


@pytest.fixture(scope="module")
def bundled_models():
    return {name: bundled_model(name) for name in BUNDLED}


def test_criterion_1_series_inversion():
    order = 8
    H = scaled_exp_series(order)
    G = invert(H)
    e = H.coefficient(2)  # the nilpotent scale symbol
    expected_constants = (1, -1, 2, -6, 24, -120)
    for k, ck in enumerate(expected_constants, start=1):
        assert G.coefficient(k) == ck * e ** (k - 1)
    assert compose(H, G) == identity_series(order)
    assert compose(G, H) == identity_series(order)
    print("PASS: criterion 1 - series inversion has coefficients "
          "C_k e^(k-1) and composes to the identity through order 8")


def test_criterion_2_faa_di_bruno_identity():
    for n in range(1, 7):
        assert composed_derivative(n) == falling_product(n)
    print("PASS: criterion 2 - bivariate composite derivative equals "
          "prod_(i=1..n-1)(y - i*x) for n = 1..6")


def test_criterion_3_partition_counts():
    from collections import Counter
    for k in range(1, 7):
        parts = list(all_partitions(k))
        assert len(parts) == BELL[k - 1]
        assert sum(count_by_type(k, tv) for tv in type_vectors(k)) == BELL[k - 1]
        marked = Counter()
        for alpha in parts:
            rest = [0] * (k - 1)
            for block in alpha.blocks[1:]:
                rest[len(block) - 1] += 1
            marked[(len(alpha.blocks[0]), tuple(rest))] += 1
        for (first, rest), n in marked.items():
            assert count_by_type_marked(k, first, rest) == n
    print("PASS: criterion 3 - enumeration sizes are the Bell numbers and "
          "plain/marked type-vector counts match filtered enumeration, k <= 6")


def test_criterion_4_route_agreement(random_models, bundled_models):
    models = list(bundled_models.values()) + random_models
    for m in models:
        for k in range(1, 6):
            a = signature_via_source(m, k)
            b = signature_via_target(m, k)
            c = signature_collected(m, k)
            d = signature_collected_source(m, k)
            assert a == b == c == d, (m.name, k, a, b, c, d)
    # collected virtual class vs the enumeration oracle, k <= 6, on models
    # small enough for Bell(6) = 203 partitions
    small = [m for m in models if len(m.source.labels) <= 3]
    assert len(small) >= 10
    for m in small:
        for k in range(1, 7):
            assert virtual_signature_class(m, k) == virtual_class_enumerated(m, k).value
    print(f"PASS: criterion 4 - signature routes agree on {len(models)} models "
          f"for k <= 5; collected virtual class equals the oracle for k <= 6 "
          f"on {len(small)} models")


def test_criterion_5_recursion_identity(random_models, bundled_models):
    rng = random.Random(5)

    def tensors(ring, k):
        n = len(ring.labels)
        yield cross([ring.unit()] * k)
        for _ in range(2):
            yield cross([ring.basis_class(rng.randrange(n)) for _ in range(k)])

    for m in list(bundled_models.values()) + random_models[:15]:
        for k in range(1, 5):
            for x in tensors(m.source, k):
                assert recursion_identity_holds(m, k, x), (m.name, k)
    print("PASS: criterion 5 - clean-intersection recursion holds for k <= 4 "
          "on bundled and randomized models with randomized tensors")


def test_criterion_6_hirzebruch_recovery(bundled_models):
    assert signature(bundled_models["two-lines"], 2, route="auto") == 1
    for d in range(1, 5):
        m = bundled_models[f"hypersurface-d{d}"]
        expected = Fraction(4 * d - d ** 3, 3)
        # classical virtual-signature evaluation in the target ring alone
        en = m.pushforward(m.source.unit())
        tanh = eval_series(en, tanh_coeffs(m.target.top_degree // 2 + 1))
        assert (m.l_target * tanh).integrate() == expected
        # the k=1 collected route on the hypersurface's own model
        assert signature_collected(m, 1) == expected
        assert signature(m, 1, route="auto") == expected
    assert [signature(bundled_models[f"hypersurface-d{d}"], 1) for d in range(1, 5)] \
        == [1, 0, -5, -16]
    print("PASS: criterion 6 - two-lines double point has signature 1 and the "
          "hypersurface family reproduces (4d - d^3)/3 = 1, 0, -5, -16 both ways")


def test_bundled_invariants_are_integers(bundled_models):
    # a genuine immersion has closed oriented k-tuple manifolds, so every
    # signature and characteristic number of a bundled model is an integer
    # (a hypersurface model with lambda = d + 1 validates, yet gives
    # sigma(M_3) = 1/2); J runs over the index sequences of degree dim M_k
    def sequences(dim, step):
        return [J for r in range(dim // step + 1)
                for J in combinations_with_replacement(range(step, dim + 1, step), r)
                if sum(J) == dim]

    values = []
    for m in bundled_models.values():
        values += [(m.name, k, signature(m, k)) for k in range(1, 7)]
        for k in range(1, 4):
            for dim in (d for d in multiple_point_dimension(m, k) if d >= 0):
                values += [(m.name, k, J, pontrjagin_number(m, k, J).value)
                           for J in sequences(dim, 4)]
                if m.chern_source is not None:
                    values += [(m.name, k, J, chern_number(m, k, J).value)
                               for J in sequences(dim, 2)]
    assert len(values) == 75
    assert [v for v in values if v[-1].denominator != 1] == []


def test_criterion_7_union_convolution(bundled_models):
    rng = random.Random(7)
    cases = 0
    for _ in range(6):
        comps = random_union_components(rng, rng.randint(2, 3))
        u = disjoint_union(comps)
        assert validate(u).ok
        for k in range(1, 5):
            assert virtual_signature_class(u, k) == virtual_class_enumerated(u, k).value
        cases += 1
    two = [bundled_model("line-in-plane"), bundled_model("line-in-plane")]
    for k in range(1, 5):
        assert virtual_signature_class(disjoint_union(two), k) == virtual_signature_class(
            bundled_models["two-lines"], k)
    for name in ("line-in-plane", "hypersurface-d2", "line-in-quadric"):
        m = bundled_models[name]
        assert embedding_consistent(m)
        for k in (2, 3):
            assert virtual_signature_class(m, k).is_zero(), (name, k)
    print(f"PASS: criterion 7 - the union's class matches the enumerated class on "
          f"{cases} random unions (k <= 4, <= 3 components); embeddings have "
          f"vanishing classes for k = 2, 3")


def test_criterion_8_special_cases(random_models, bundled_models):
    # pulled-from-target evaluators wherever the hypothesis holds
    pulled = 0
    for m in random_models:
        try:
            for k in range(1, 5):
                assert pulled_from_target(m, k) == signature(m, k, route="general")
                assert pulled_from_target_class(m, k, cross([m.target.unit()] * k)) \
                    == transfer_to_source(m, k, cross([m.source.unit()] * k))
                assert transfer_of_unit(m, k) == transfer_to_source(
                    m, k, cross([m.source.unit()] * k))
            pulled += 1
        except PreconditionError:
            continue
    assert pulled >= 10

    # zero Euler class
    zero_e = [m for m in random_models if m.euler.is_zero()]
    zero_e.append(bundled_models["line-in-quadric"])
    assert len(zero_e) >= 3
    for m in zero_e:
        for k in range(1, 5):
            assert euler_zero(m, k) == signature(m, k, route="auto")

    # vanishing pushpull: closed form, and it is the one-block-partition term
    for name in ("null-pushforward", "nullhomotopic-cp2-in-s6"):
        m = bundled_models[name]
        for k in range(1, 5):
            assert pushpull_zero(m, k) == signature(m, k, route="auto")
            x = cross([m.source.unit()] * k)
            single_block_term = Fraction((-1) ** (k - 1) * factorial(k - 1)) \
                * m.euler ** (k - 1)
            assert transfer_to_source(m, k, x) == single_block_term
        dims = multiple_point_dimension(m, 2)
        if dims[0] >= 0 and dims[0] % 4 == 0:
            J = [dims[0]]
            assert pushpull_zero(m, 2, J) == pontrjagin_number(m, 2, J).value

    # nullhomotopic normalization
    m = bundled_models["nullhomotopic-cp2-in-s6"]
    for k in range(1, 5):
        assert nullhomotopic(m, k) == signature(m, k, route="auto")
    assert nullhomotopic(m, 3) == 3
    dims = multiple_point_dimension(m, 2)
    if dims[0] >= 0 and dims[0] % 4 == 0:
        assert nullhomotopic(m, 2, [dims[0]]) == pontrjagin_number(
            m, 2, [dims[0]]).value

    # every precondition is actually enforced
    with pytest.raises(PreconditionError, match=r"^euler class 1\*t is nonzero$"):
        euler_zero(bundled_models["line-in-plane"], 2)
    for special in (pushpull_zero, nullhomotopic):
        with pytest.raises(PreconditionError, match=r"^pullback\(pushforward\(\.\)\) is not"):
            special(bundled_models["line-in-plane"], 2)
    with pytest.raises(PreconditionError, match=r"^euler class 3\*t is not pulled back"):
        pulled_from_target(bundled_models["nullhomotopic-cp2-in-s6"], 2)
    print(f"PASS: criterion 8 - special-case evaluators agree with the general "
          f"route under their preconditions (k <= 4; {pulled} pulled-back models)")


def test_criterion_9_trivial_degenerations(random_models, bundled_models):
    for m in list(bundled_models.values()) + random_models:
        assert signature(m, 1, route="auto") == m.l_source.integrate()
        top_degrees = sorted({c.top_degree for c in m.source.components})
        for top in top_degrees:
            if top % 4 == 0:
                got = pontrjagin_number(m, 1, [top]).value
                assert got == m.pontrjagin_source.degree_part(top).integrate()
    print("PASS: criterion 9 - k = 1 returns the ordinary signature and "
          "ordinary Pontrjagin numbers on every model")


def test_inverse_normal_l_class_is_the_genus_class_of_minus_c(random_models, bundled_models):
    # L(normal)^-1 is built from the memoised power sums of P(normal) with
    # the negated log coefficients; the geometric series in L(normal) agrees
    for m in list(bundled_models.values()) + random_models:
        assert m.l_normal_inverse == signature_class(m.normal_pontrjagin).invert_unital(), m.name
    print("PASS: the inverse normal L-class equals the inverted L-class on "
          f"{len(bundled_models) + len(random_models)} models")


def test_l_classes_are_signature_classes(random_models, bundled_models):
    # the L-classes read from the memoised power sums equal
    # graded.signature_class of their classes, and the normal
    # signature-class relation L(normal) * L(source) = L(f*P(target)) holds
    models = list(bundled_models.values()) + random_models
    for m in models:
        assert m.l_source == signature_class(m.pontrjagin_source), m.name
        assert m.l_target == signature_class(m.pontrjagin_target), m.name
        assert m.l_normal_inverse * signature_class(m.normal_pontrjagin) == m.source.unit(), m.name
        assert signature_class(m.normal_pontrjagin) * m.l_source == signature_class(
            m.pullback(m.pontrjagin_target)), m.name
    print(f"PASS: the L-classes are signature classes on {len(models)} models")


def _rational_strings(obj):
    """The coordinate values of a model_to_dict tree: each string under a
    basis-index key."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, str) and key.isdecimal():
                yield value
            else:
                yield from _rational_strings(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _rational_strings(value)


def test_model_files_spell_rationals_alike_on_every_python(random_models, bundled_models):
    # Fraction reads digit-group underscores only from Python 3.11, so a file
    # read the same on every supported interpreter holds "p" or "p/q" alone
    rng = random.Random(20261020)
    models = [*bundled_models.values(), *random_models,
              *(random_truncated_model(rng, with_chern=True) for _ in range(20))]
    spelling = re.compile(r"-?[0-9]+(/[0-9]+)?")
    count = 0
    for m in models:
        for text in _rational_strings(model_to_dict(m)):
            assert spelling.fullmatch(text), (m.name, text)
            count += 1
    assert count > len(models)
    print(f"PASS: {count} rationals of {len(models)} model files are spelled p or p/q")
