import json
import random
import re
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipoint import cli, graded, modelfile
from multipoint.graded import GradedAlgebraError, GradedRing, exact
from multipoint.model import validate
from multipoint.modelfile import (
    LOADED_MODELS,
    ModelFormatError,
    _coords_from,
    load_model,
    model_from_dict,
    model_to_dict,
    ring_from_dict,
    ring_to_dict,
    save_model,
)
from multipoint.models import BUNDLED, bundled_model, truncated_polynomial_ring
from multipoint.random_models import random_truncated_model
from multipoint.signatures import signature


def _assert_same_model(a, b):
    assert a.source == b.source
    assert a.target == b.target
    assert a.codim == b.codim
    assert a.euler == b.euler
    assert dict(a.pullback.images) == dict(b.pullback.images)
    assert dict(a.pushforward.images) == dict(b.pushforward.images)
    assert a.pontrjagin_source == b.pontrjagin_source
    assert a.pontrjagin_target == b.pontrjagin_target
    assert a.chern_source == b.chern_source
    assert a.chern_target == b.chern_target


def test_roundtrip_all_bundled(tmp_path):
    for name in BUNDLED:
        m = bundled_model(name)
        path = tmp_path / f"{name}.json"
        save_model(m, path)
        m2 = load_model(path)
        _assert_same_model(m, m2)
        assert model_to_dict(m) == model_to_dict(m2)
        assert validate(m2).ok
        again = tmp_path / f"{name}-again.json"
        save_model(m2, again)
        assert again.read_bytes() == path.read_bytes()


def test_rationals_serialized_as_strings(tmp_path):
    m = bundled_model("hypersurface-d3")
    path = tmp_path / "m.json"
    save_model(m, path)
    raw = json.loads(path.read_text())
    for coords in raw["pushforward"].values():
        for v in coords.values():
            assert isinstance(v, str)


@pytest.mark.skipif(json.encoder.c_make_encoder is None,
                    reason="this interpreter has no C json encoder")
def test_the_writer_never_runs_the_pure_python_encoder(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    models = [bundled_model(name) for name in BUNDLED]
    models.append(random_truncated_model(random.Random(3), with_chern=True))
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for n, m in enumerate(models):
        path = tmp_path / f"{n}.json"
        save_model(m, path)
        assert len(path.read_text().splitlines()) == len(model_to_dict(m)) + 2


def test_a_file_in_the_indented_layout_still_loads(tmp_path):
    for name in BUNDLED:
        expected = model_to_dict(bundled_model(name))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
        assert model_to_dict(load_model(path)) == expected


def test_fraction_strings_parsed_exactly():
    ring = ring_from_dict({
        "labels": ["1", "x"], "degrees": [0, 2],
        "products": {"0,0": {"0": "1"}, "0,1": {"1": "1"}, "1,1": {}},
        "integral": {"1": "-3/7"},
    })
    assert ring.integral[1] == Fraction(-3, 7)
    assert ring_from_dict(ring_to_dict(ring)) == ring


def test_union_file_builds_disjoint_union():
    part = model_to_dict(bundled_model("line-in-plane"))
    union = model_from_dict({"components": [part, part], "name": "pair"})
    direct = bundled_model("two-lines")
    assert union.source == direct.source
    assert union.target == direct.target
    assert validate(union).ok


def test_a_one_component_union_file_keeps_its_name(tmp_path, capsys):
    part = model_to_dict(bundled_model("line-in-plane"))
    for name, components in (("solo-file", [part]), ("pair-file", [part, part])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"components": components, "name": name}))
        assert load_model(path).name == name
        assert cli.main(["compute", str(path), "--k", "1", "--quantity", "signature",
                         "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["model"] == name


def test_deeply_nested_components_are_a_format_error():
    obj = model_to_dict(bundled_model("line-in-plane"))
    for _ in range(1000):
        obj = {"components": [obj]}
    with pytest.raises(ModelFormatError, match=r"^model\.components\[0\]: "):
        model_from_dict(obj)


def test_missing_field_reports_location():
    obj = model_to_dict(bundled_model("line-in-plane"))
    del obj["euler"]
    with pytest.raises(ModelFormatError, match="euler"):
        model_from_dict(obj)


def test_bad_rational_rejected():
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["euler"] = {"1": "1/0"}
    with pytest.raises(ModelFormatError):
        model_from_dict(obj)
    obj["euler"] = {"1": 1.5}
    with pytest.raises(ModelFormatError):
        model_from_dict(obj)


@pytest.mark.parametrize("text", [
    "5", "-5", "+5", " 5 ", "007", "-0", "4/2", "1_000", "1e3", "1.5e2", "1.0", "\u0665",
    "1/2", " -3/6 ", "2.5",
    "", "-", "--5", "abc", "1/0", "0x10", "\u00b2", "9" * 5000, "1e_", "1e+_", "1e-_",
])
def test_rational_strings_read_as_fraction_reads_them(text):
    """Integral strings give ints, others Fractions; the strings accepted are
    exactly those Fraction() accepts (within the int-to-str digit limit,
    which an exponent must keep too), read alone or as a coordinate."""
    for read, error, match in (
            (lambda: exact(text), GradedAlgebraError, "^coordinate "),
            (lambda: _coords_from({"0": text}, 1, "x")[0], ModelFormatError,
             r"^x\[0\]: bad rational: coordinate ")):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(error, match=match):
                read()
            continue
        got = read()
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


def test_an_exponent_is_bounded_as_the_digits_of_a_plain_decimal_are():
    # the numerator, the denominator and the power of ten each stay within
    # the int-to-str digit limit, which int() applies to a plain decimal
    limit = sys.get_int_max_str_digits()
    for text, want in ((f"1e{limit - 1}", 10 ** (limit - 1)),
                       (f"1e-{limit - 1}", Fraction(1, 10 ** (limit - 1))),
                       (f"0.{'0' * (limit - 2)}1e0", Fraction(1, 10 ** (limit - 1)))):
        assert exact(text) == want
        assert _coords_from({"0": text}, 1, "x") == {0: want}
    for text in (f"1e{limit}", f"1e-{limit}", f"0e{limit}", f"12e{limit - 1}",
                 f"0.{'0' * (limit - 1)}1e0", "1e99999999999", f"1e{'9' * (limit + 1)}",
                 "1" + "0" * limit):
        with pytest.raises(GradedAlgebraError, match="^coordinate "):
            exact(text)
        with pytest.raises(ModelFormatError, match=r"^x\[0\]: bad rational: coordinate "):
            _coords_from({"0": text}, 1, "x")


_LIMIT = sys.get_int_max_str_digits()
# signs, spaces and leading zeros; p/q, points and exponents; underscores
# and non-ASCII digits (Arabic-Indic five, superscript two, fullwidth one)
_PIECES = st.sampled_from(["", "-", "+", " ", "0", "00", "7", "12", "/", "/3", "/0", ".", ".5",
                           "e", "E3", "e-2", "_", "1_0", "\u0665", "\u00b2", "\uff11", "x"])
_RATIONAL_TEXT = st.one_of(
    st.lists(_PIECES, max_size=6).map("".join),
    # plain decimals around the 640-character cut of the int fast path
    st.tuples(st.sampled_from(["", "-", "+", " ", "0"]),
              st.integers(600, 700).flatmap(lambda n: st.text("0123456789", min_size=n,
                                                              max_size=n)),
              st.sampled_from(["", " ", "/7", "_1", "\u0665"])).map("".join),
    # and at the interpreter's int-to-str digit limit, one either side
    st.tuples(st.sampled_from(["", "-"]),
              st.sampled_from([_LIMIT - 1, _LIMIT, _LIMIT + 1]).map("9".__mul__)).map("".join),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_RATIONAL_TEXT)
def test_the_file_reader_reads_a_rational_as_exact_reads_it(text):
    try:
        want = exact(text)
    except GradedAlgebraError as exc:
        with pytest.raises(ModelFormatError, match=r"^x\[0\]: bad rational: ") as info:
            _coords_from({"0": text}, 1, "x")
        assert str(info.value).endswith(str(exc))
        return
    got = _coords_from({"0": text}, 1, "x")[0]
    assert got == want and type(got) is type(want)
    # both read what Fraction reads, as an int when it is integral
    assert want == Fraction(text)
    assert type(want) is (int if want.denominator == 1 else Fraction)


def test_a_plain_decimal_never_reaches_the_exponent_guard(monkeypatch):
    def refuse(text):
        raise AssertionError(f"the exponent guard ran on {text!r}")

    monkeypatch.setattr(graded, "_too_long", refuse)
    got = exact("-007")
    assert got == -7 and type(got) is int
    assert _coords_from({"0": "12"}, 1, "x") == {0: 12}


def test_bad_product_key_rejected():
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["source"]["products"]["nonsense"] = {}
    with pytest.raises(ModelFormatError, match="nonsense"):
        model_from_dict(obj)


@pytest.mark.parametrize("key", [0, (0, 1), None])
def test_a_product_key_that_is_not_a_string_is_a_format_error(key):
    with pytest.raises(ModelFormatError, match="is not 'i,j'"):
        ring_from_dict({"labels": ["1"], "degrees": [0], "products": {key: {"0": "1"}},
                        "integral": {}})


def test_out_of_range_map_index_rejected():
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["pushforward"]["9"] = {"0": "1"}
    with pytest.raises(ModelFormatError):
        model_from_dict(obj)


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("text", [
    '{"codim": ' + "9" * 5000 + "}",
    "[" * 100000,
], ids=["long-integer", "deep-nesting"])
def test_json_the_decoder_refuses_is_a_format_error(tmp_path, text):
    path = tmp_path / "refused.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)


def test_unsupported_version():
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["format_version"] = 99
    with pytest.raises(ModelFormatError):
        model_from_dict(obj)


def test_unreadable_file_is_a_format_error(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "Möbius"}'.encode("latin-1"))
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(bad)
    with pytest.raises(ModelFormatError, match="cannot read"):
        load_model(tmp_path)


ALIASES = ["01", "00", " 1 ", "+1", "1_0", "-0", "١", ""]


@pytest.mark.parametrize("alias", ALIASES)
@pytest.mark.parametrize("place", ["coordinate", "map", "product-left", "product-right"])
def test_basis_index_aliases_are_refused(alias, place):
    # int() reads each alias as a basis index, so a later key could overwrite
    # an earlier one; only a canonical decimal names an index
    obj = model_to_dict(bundled_model("line-in-plane"))
    if place == "coordinate":
        obj["euler"][alias] = "1"
    elif place == "map":
        obj["pushforward"][alias] = {"1": "1"}
    else:
        coords = obj["target"]["products"].pop("0,1")
        key = f"{alias},1" if place == "product-left" else f"0,{alias}"
        obj["target"]["products"][key] = coords
    with pytest.raises(ModelFormatError, match="bad basis index " + re.escape(repr(alias))):
        model_from_dict(obj)


def test_an_alias_does_not_overwrite_a_coordinate_or_an_image():
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["euler"] = {"1": "1", "01": "7"}
    with pytest.raises(ModelFormatError, match=r"^model\.euler: bad basis index '01'"):
        model_from_dict(obj)
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["pushforward"]["00"] = {"2": "5"}
    with pytest.raises(ModelFormatError, match=r"^model\.pushforward: bad basis index '00'"):
        model_from_dict(obj)


@pytest.mark.parametrize("alias", ALIASES)
def test_the_cli_exits_2_on_an_alias(tmp_path, capsys, alias):
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["euler"] = {"1": "1", alias: "7"}
    path = tmp_path / "alias.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["validate", str(path)]) == 2
    assert repr(alias) in capsys.readouterr().err


def test_a_large_basis_loads_and_an_index_past_the_basis_is_refused():
    # the keys of a basis are the canonical decimals below its size
    ring = truncated_polynomial_ring("h", 299)
    assert ring_from_dict(json.loads(json.dumps(ring_to_dict(ring)))) == ring
    for key in ("2", "256", "10000", "1" + "0" * 700):
        obj = model_to_dict(bundled_model("line-in-plane"))
        obj["euler"][key] = "1"
        # a key past 60 characters is shown by its start and its length
        shown = repr(key) if len(key) <= 60 else f"{key[:60]!r}... (701 characters)"
        with pytest.raises(ModelFormatError, match="bad basis index " + re.escape(shown)):
            model_from_dict(obj)


CLASS_FIELDS = ["euler", "pontrjagin_source", "pontrjagin_target", "chern_source",
                "chern_target"]


@pytest.mark.parametrize("field", CLASS_FIELDS)
@pytest.mark.parametrize("coords, error", [
    ({"9": "1"}, ": bad basis index '9'; "), ({"0": "x"}, "[0]: bad rational: coordinate 'x' "),
], ids=["index", "rational"])
def test_a_class_error_names_its_location_once(field, coords, error):
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj[field] = coords
    with pytest.raises(ModelFormatError, match="^" + re.escape(f"model.{field}{error}")) as info:
        model_from_dict(obj)
    assert str(info.value).count(field) == 1


@pytest.mark.parametrize("place", ["value", "key", "product-key"])
def test_a_long_refused_string_is_shown_by_its_start_and_length(tmp_path, capsys, place):
    junk = "x" * 1000000
    obj = model_to_dict(bundled_model("line-in-plane"))
    if place == "value":
        obj["euler"] = {"1": junk}
    elif place == "key":
        obj["euler"] = {junk: "1"}
    else:
        obj["target"]["products"]["0," + junk] = {}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024 and "1000000 characters" in err, err[:2000]


@pytest.mark.parametrize("place, value, where", [
    (("source", "degrees", 1), 2.0, "source: basis degree 2.0"),
    (("source", "degrees", 1), "2", "source: basis degree '2'"),
    (("source", "components", 0, "indices", 1), 1.0, "source: component all index 1.0"),
    (("target", "components", 0, "top_degree"), 4.0, "target: component top degree 4.0"),
    (("target", "top_degree"), 4.0, "target: top degree 4.0"),
    (("codim",), 2.0, "codimension must be a positive even integer, got 2.0"),
    (("codim",), True, "codimension must be a positive even integer, got True"),
    (("codim",), "2", "codimension must be a positive even integer, got '2'"),
], ids=["degree-float", "degree-str", "component-index", "component-top", "top", "codim",
        "codim-bool", "codim-str"])
def test_a_value_the_constructors_refuse_exits_2_at_its_location(tmp_path, capsys, place,
                                                                 value, where):
    # the reader checks JSON shape only; the constructors refuse each of these,
    # and the reader puts the file and field in front of their message
    obj = model_to_dict(bundled_model("line-in-plane"))
    node = obj
    for key in place[:-1]:
        node = node[key]
    node[place[-1]] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["validate", str(path)]) == 2
    assert str(path) in capsys.readouterr().err
    with pytest.raises(ModelFormatError, match=re.escape(where)):
        load_model(path)


# ---------------------------------------------------------------------------
# One model per file text
# ---------------------------------------------------------------------------


@pytest.fixture
def loaded(monkeypatch):
    """An empty table of loaded models, so that no other test's file text is
    found in it."""
    table = {}
    monkeypatch.setattr(modelfile, "_loaded", table)
    return table


def _write(path, bundled="line-in-plane", **changes):
    obj = {**model_to_dict(bundled_model(bundled)), **changes}
    path.write_text(json.dumps(obj))
    return path


def _counters(monkeypatch):
    """Lists that record each GradedRing built and each ring axiom check."""
    rings, checks = [], []
    init, check_axioms = GradedRing.__init__, GradedRing.check_axioms

    def counted_init(ring, *args, **kwargs):
        rings.append(ring)
        init(ring, *args, **kwargs)

    def counted_check(ring):
        checks.append(ring)
        return check_axioms(ring)

    monkeypatch.setattr(GradedRing, "__init__", counted_init)
    monkeypatch.setattr(GradedRing, "check_axioms", counted_check)
    return rings, checks


def test_two_loads_of_one_file_return_one_model(tmp_path, monkeypatch, loaded):
    path = _write(tmp_path / "m.json", "hypersurface-d3")
    first = load_model(path)
    report = validate(first)
    rings, checks = _counters(monkeypatch)
    reads, ring_from = [], modelfile.ring_from_dict
    monkeypatch.setattr(modelfile, "ring_from_dict",
                        lambda *args: reads.append(args) or ring_from(*args))
    again = load_model(path)
    # a reload of an unchanged file reads no ring object, builds no ring and
    # runs no axiom check
    assert again is first and validate(again) == report and report.ok
    assert reads == [] and rings == [] and checks == []
    # the same text at another path is the same model; model_from_dict copies
    assert load_model(_write(tmp_path / "n.json", "hypersurface-d3")) is first
    copy = model_from_dict(model_to_dict(first))
    assert copy is not first and model_to_dict(copy) == model_to_dict(first)
    assert list(loaded.values()) == [first]


def test_an_edited_file_loads_a_new_model(tmp_path, loaded):
    path = _write(tmp_path / "m.json")
    first = load_model(path)
    before = model_to_dict(first)
    edited = _write(path, euler={"1": "3"}, name="edited")
    again = load_model(path)
    assert again is not first and (again.name, again.euler) == ("edited", 3 * first.euler)
    assert model_to_dict(again) == json.loads(edited.read_text())
    assert model_to_dict(first) == before  # the first loader's model is unchanged
    validate(again), validate(first)
    assert again._cache["validation"] is not first._cache["validation"]


@pytest.mark.parametrize("text", [
    "{ not json",
    json.dumps({**model_to_dict(bundled_model("line-in-plane")), "euler": {"9": "1"}}),
], ids=["not-json", "bad-index"])
def test_a_malformed_file_raises_on_every_load(tmp_path, monkeypatch, loaded, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    parses = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: parses.append(text) or loads(text))
    errors = set()
    for _ in range(3):
        with pytest.raises(ModelFormatError, match=re.escape(str(path))) as exc:
            load_model(path)
        errors.add(str(exc.value))
    assert len(errors) == 1 and len(parses) == 3 and loaded == {}


def test_one_file_past_the_bound_evicts_the_oldest(tmp_path, loaded):
    paths = [_write(tmp_path / f"m{i}.json", name=f"m{i}") for i in range(LOADED_MODELS + 1)]
    models = [load_model(path) for path in paths]
    assert len(loaded) == LOADED_MODELS >= 33  # the wide benchmark has 33 files
    assert load_model(paths[-1]) is models[-1]
    assert load_model(paths[1]) is models[1]  # now the most recent
    rebuilt = load_model(paths[0])  # evicted by the last file
    assert rebuilt is not models[0] and model_to_dict(rebuilt) == model_to_dict(models[0])
    assert load_model(paths[2]) is not models[2]  # the oldest when paths[0] came back
    assert len(loaded) == LOADED_MODELS


def test_threads_loading_files_share_one_model_per_text(tmp_path, loaded):
    # more threads than cores, switching often: loads of one text that race
    # still end with one model, and the table stays within its bound
    few = [_write(tmp_path / f"few{i}.json", name=f"few{i}") for i in range(8)]
    many = [_write(tmp_path / f"many{i}.json", name=f"many{i}")
            for i in range(LOADED_MODELS + 6)]
    got, errors = [], []

    def run(seed, paths):
        rng = random.Random(seed)
        try:
            for _ in range(3):
                for path in rng.sample(paths, len(paths)):
                    got.append((path, load_model(path)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for paths in (few, many):
            got.clear()
            workers = [threading.Thread(target=run, args=(seed, paths)) for seed in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers) and errors == []
            if paths is few:
                assert len({(path, id(m)) for path, m in got}) == len(few)
            # the files differ in their names only: every model holds one pair of rings
            assert len({(id(m.source), id(m.target)) for _, m in got}) == 1
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 6 * 3 * len(many) and len(loaded) == LOADED_MODELS
    assert all(m.name == json.loads(text)["name"] for text, m in loaded.items())


def test_validate_checks_the_ring_axioms_once_per_model(monkeypatch):
    m = bundled_model("line-in-quadric")
    rings, checks = _counters(monkeypatch)
    assert validate(m) == validate(m)
    assert checks == [m.source, m.target] and rings == []


# ---------------------------------------------------------------------------
# One ring per ring object
# ---------------------------------------------------------------------------


@pytest.fixture
def rings(monkeypatch):
    """An empty table of read rings, so that no other test's ring is found in it."""
    table = weakref.WeakValueDictionary()
    monkeypatch.setattr(modelfile, "_rings", table)
    return table


def test_files_with_one_target_share_its_ring_and_what_it_derives(tmp_path, monkeypatch,
                                                                  loaded, rings):
    checked, built = [], []
    issues, genus_coords = GradedRing._axiom_issues, graded.genus_coords
    monkeypatch.setattr(GradedRing, "_axiom_issues", lambda ring: checked.append(ring)
                        or issues(ring))
    monkeypatch.setattr(graded, "genus_coords", lambda ring, terms: built.append(ring)
                        or genus_coords(ring, terms))
    a = load_model(_write(tmp_path / "a.json", "hypersurface-d2"))
    b = load_model(_write(tmp_path / "b.json", "hypersurface-d3"))
    assert a.target is b.target and a.source is not b.source
    assert validate(a).ok and validate(b).ok and a.l_target == b.l_target
    # the target's axiom check and L-class ran for the first model only
    assert checked.count(a.target) == 1 and built.count(a.target) == 1
    assert checked.count(a.source) == 1 and checked.count(b.source) == 1
    # a file of another layout holds the same ring; one with the target's
    # keys in another order holds a ring of its own, equal to it
    relaid = {**model_to_dict(bundled_model("hypersurface-d3")), "name": "relaid"}
    path = tmp_path / "relaid.json"
    path.write_text(json.dumps(relaid, indent=1))
    assert load_model(path).target is a.target
    relaid["target"] = dict(reversed(list(relaid["target"].items())))
    path.write_text(json.dumps(relaid))
    reordered = load_model(path).target
    assert reordered is not a.target and reordered == a.target


def test_a_ring_that_differs_in_a_coefficient_or_its_name_is_its_own(tmp_path, loaded, rings):
    target = model_to_dict(bundled_model("hypersurface-d3"))["target"]
    scaled = {**target, "integral": {"3": "2"}}
    renamed = {**target, "name": "P3"}
    models = [load_model(_write(tmp_path / f"m{i}.json", "hypersurface-d3", target=t,
                                name=f"m{i}"))
              for i, t in enumerate((target, scaled, renamed, target))]
    first, scaled, renamed, again = (m.target for m in models)
    assert again is first
    assert len({id(first), id(scaled), id(renamed)}) == 3
    assert scaled != first and renamed == first and renamed.name == "P3"


def test_a_refused_ring_is_refused_on_every_read_and_never_held(tmp_path, loaded, rings):
    obj = model_to_dict(bundled_model("hypersurface-d3"))
    obj["target"]["products"]["1,1"] = {"9": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    errors = set()
    for _ in range(3):
        with pytest.raises(ModelFormatError, match=r"\.target\.products") as exc:
            load_model(path)
        errors.add(str(exc.value))
        with pytest.raises(ModelFormatError, match=r"^ring\.products"):
            ring_from_dict(obj["target"])
    assert len(errors) == 1
    assert all(ring.name != obj["target"]["name"] for ring in rings.values())


def test_an_object_equal_in_other_types_is_read_as_it_stands(rings):
    # 4.0 == 4, (..) == [..] is false but JSON writes both alike, and so on:
    # an object that differs from a held one only in the types of its values
    # is refused as it stands, as it is when no ring is held
    obj = ring_to_dict(bundled_model("hypersurface-d3").target)
    held = ring_from_dict(obj)
    assert ring_from_dict(json.loads(json.dumps(obj))) is held
    assert {**obj, "top_degree": 6.0} == obj
    with pytest.raises(ModelFormatError, match="top degree 6.0 is not an int"):
        ring_from_dict({**obj, "top_degree": 6.0})
    with pytest.raises(ModelFormatError, match="bad basis index 3"):
        ring_from_dict({**obj, "integral": {3: "1"}})
    with pytest.raises(ModelFormatError, match="labels must be a list"):
        ring_from_dict({**obj, "labels": tuple(obj["labels"])})
    # an object marshal does not write is read as it stands too
    assert ring_from_dict({**obj, "integral": {"3": Fraction(1)}}) is not held


def test_a_copy_shares_the_rings_and_gives_the_same_answers(rings):
    for name in BUNDLED:
        m = bundled_model(name)
        copy, again = (model_from_dict(model_to_dict(m)) for _ in range(2))
        assert (again.source, again.target) == (copy.source, copy.target)
        assert again.source is copy.source and again.target is copy.target
        _assert_same_model(copy, m)
        assert model_to_dict(copy) == model_to_dict(m)
        assert str(validate(copy)) == str(validate(m)) == str(validate(again))
        for k in range(1, 4):
            assert signature(copy, k) == signature(m, k) == signature(again, k), (name, k)
