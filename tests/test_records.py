"""The small record classes: construction, equality, hash, immutability
and repr."""

import pickle
from fractions import Fraction

import pytest

from multipoint.formulas import MultipointResult, pontrjagin_number
from multipoint.graded import RingComponent
from multipoint.model import Check, LinearMap, ValidationReport
from multipoint.models import bundled_model
from multipoint.oracle import OracleRun
from multipoint.partitions import SetPartition
from multipoint.series import SpecialSeries, identity_series

E = identity_series(3).ring.basis_class(1)


def test_set_partition():
    a, b = SetPartition(3, ((1, 2), (3,))), SetPartition(k=3, blocks=((1, 2), (3,)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != SetPartition(3, ((1,), (2, 3))) and a != (3, ((1, 2), (3,)))
    assert repr(a) == "SetPartition(k=3, blocks=((1, 2), (3,)))"
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError, match="cannot assign to field 'k'"):
        a.k = 4
    with pytest.raises(AttributeError):
        del a.blocks
    with pytest.raises(ValueError, match="ground set size"):
        SetPartition(0, ())
    with pytest.raises(ValueError, match="empty block"):
        SetPartition(2, ((), (1, 2)))
    with pytest.raises(TypeError):
        SetPartition(3)


def test_special_series():
    a, b = SpecialSeries((E, E * E)), SpecialSeries(coeffs=(E, E * E))
    assert a == b and hash(a) == hash(b)
    assert a != SpecialSeries((E,)) and a != (E, E * E)
    assert repr(a) == "SpecialSeries(coeffs=(1*e, 1*e^2))"
    with pytest.raises(AttributeError, match="cannot assign"):
        a.coeffs = ()
    with pytest.raises(ValueError, match="linear coefficient"):
        SpecialSeries(())
    with pytest.raises(ValueError, match="different rings"):
        SpecialSeries((E, identity_series(4).ring.basis_class(1)))


def test_linear_map():
    m = bundled_model("line-in-plane")
    a = LinearMap(m.target, m.source, m.pullback.images)
    b = LinearMap(domain=m.target, codomain=m.source, images=m.pullback.images)
    assert a == b == m.pullback
    assert a != LinearMap(m.target, m.source, {0: {0: 1}})
    assert a != LinearMap(m.target, m.target, m.pullback.images)
    assert LinearMap.__slots__ == ("domain", "codomain", "images")
    assert repr(a).startswith("LinearMap(domain=GradedRing(CP2, top=4), codomain=GradedRing(")
    assert repr(a).endswith(", images={0: {0: 1}, 1: {1: 1}, 2: {}})")
    with pytest.raises(AttributeError, match="cannot assign"):
        a.images = {}
    with pytest.raises(TypeError):  # images is a dict, as with the frozen dataclass
        hash(a)


def test_multipoint_result():
    a = MultipointResult(2, "characteristic", Fraction(3))
    b = MultipointResult(k=2, kind="characteristic", value=Fraction(3), dimension=None,
                         warnings=[])
    assert a == b and a.warnings == [] and a.dimension is None
    assert a.warnings is not MultipointResult(1, "c", 0).warnings
    assert repr(a) == ("MultipointResult(k=2, kind='characteristic', value=Fraction(3, 1), "
                       "dimension=None, warnings=[])")
    a.warnings.append("w")
    a.value = Fraction(4)
    assert a != b
    with pytest.raises(TypeError):
        hash(a)


def test_multipoint_result_repr_past_the_int_to_str_limit():
    result = pontrjagin_number(bundled_model("hypersurface-d3"), 10 ** 5000, (4,))
    for text in (repr(result), str(result)):
        assert "k=<5001-digit integer>" in text
        assert "value=Fraction(0, 1)" in text and "dimension=-<5001-digit integer>" in text


def test_validation_report():
    report = ValidationReport([Check("n", False, "why"), Check("m", True)])
    assert report == ValidationReport((Check("n", False, "why"), Check("m", True, "")), None)
    assert report.checks == (Check("n", False, "why"), Check("m", True)) and report.facts is None
    assert report != ValidationReport(report.checks, bundled_model("line-in-plane").facts)
    assert not report.ok and ValidationReport(checks=[Check("m", True)]).ok
    assert report.failures() == [Check("n", False, "why")]
    assert str(report) == "[FAIL] n: why\n[ok] m"
    assert repr(report) == ("ValidationReport(checks=(Check(name='n', ok=False, detail='why'), "
                            "Check(name='m', ok=True, detail='')), facts=None)")
    assert hash(report) == hash(ValidationReport(list(report.checks)))
    for field in ("checks", "facts"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(report, field, None)


@pytest.mark.parametrize("a, b, text", [
    (RingComponent("c", (0, 1), 2), RingComponent(name="c", indices=(0, 1), top_degree=2),
     "RingComponent(name='c', indices=(0, 1), top_degree=2)"),
    (Check("x", True), Check(name="x", ok=True, detail=""), "Check(name='x', ok=True, detail='')"),
    (OracleRun(Fraction(1, 2), 3, 4), OracleRun(value=Fraction(1, 2), partitions_seen=3,
                                                  terms_evaluated=4),
     "OracleRun(value=Fraction(1, 2), partitions_seen=3, terms_evaluated=4)"),
], ids=["RingComponent", "Check", "OracleRun"])
def test_named_tuple_records(a, b, text):
    assert a == b and hash(a) == hash(b)
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)
