import json
import threading
import time

import pytest

from multipoint import cli, formulas
from multipoint.model import ImmersionModel, LinearMap, validate
from multipoint.modelfile import model_to_dict, save_model
from multipoint.graded import GradedRing
from multipoint.models import BUNDLED, bundled_model, truncated_model, truncated_polynomial_ring
from multipoint.signatures import multiple_point_dimension, zero_warning
from multipoint.union import disjoint_union


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_examples_lists_bundled(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in BUNDLED:
        assert name in out


def test_every_bundled_model_has_a_note():
    # examples prints MODEL_NOTES beside each bundled name; the benchmark
    # reference reads the notes from the cli module too
    assert set(cli.MODEL_NOTES) == set(BUNDLED)


def test_validate_bundled_ok(capsys):
    code, out, _ = run(capsys, "validate", "line-in-plane")
    assert code == 0
    assert "[ok]" in out and "[FAIL]" not in out


def test_validate_json_flag(capsys):
    code, out, _ = run(capsys, "validate", "two-lines", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert any(c["name"] == "projection formula" for c in payload["checks"])


# validate's report on each bundled model, pinned byte for byte: every
# check passes, and these are the details of its Euler, Pontrjagin and
# Chern checks (None where the model carries no Chern data)
CHECK_NAMES = [
    "source ring axioms", "target ring axioms", "codimension positive even",
    "euler class degree equals codimension", "pullback preserves degrees", "pullback is unital",
    "pullback is multiplicative", "pushforward raises degree by codimension",
    "projection formula", "integration compatibility",
    "source Pontrjagin class is unital with degrees 0 mod 4",
    "target Pontrjagin class is unital with degrees 0 mod 4",
    "source Chern class is unital", "target Chern class is unital",
    "normal Pontrjagin relation", "normal signature-class relation",
]
CLASS_DETAILS = {
    "hypersurface-d1": ("1*t", "1 + 3*t^2", "1 + 4*h^2", None, None),
    "hypersurface-d2": ("2*t", "1", "1 + 4*h^2", None, None),
    "hypersurface-d3": ("3*t", "1 + -5*t^2", "1 + 4*h^2", None, None),
    "hypersurface-d4": ("4*t", "1 + -12*t^2", "1 + 4*h^2", None, None),
    "line-in-plane": ("1*t", "1", "1 + 3*h^2", "1 + 2*t", "1 + 3*h + 3*h^2"),
    "line-in-quadric": ("0", "1", "1", "1 + 2*t", "1 + 2*a + 2*b + 4*ab"),
    "null-pushforward": ("1*t", "1", "1", None, None),
    "nullhomotopic-cp2-in-s6": ("3*t", "1 + 3*t^2", "1", None, None),
    "two-lines": ("1*t@0 + 1*t@1", "1*1@0 + 1*1@1", "1 + 3*h^2",
                  "1*1@0 + 2*t@0 + 1*1@1 + 2*t@1", "1 + 3*h + 3*h^2"),
}


@pytest.mark.parametrize("name", sorted(CLASS_DETAILS))
def test_validate_prints_the_pinned_report(capsys, name):
    euler, *classes = CLASS_DETAILS[name]
    names = [n for n in CHECK_NAMES if "Chern" not in n or classes[2] is not None]
    details = dict(zip(CHECK_NAMES[10:14], classes), **{
        "codimension positive even": "codim=2",
        "euler class degree equals codimension": f"euler={euler}",
        "pushforward raises degree by codimension": "shift=2; "})
    assert run(capsys, "validate", name) == (0, "".join(f"[ok] {n}\n" for n in names), "")
    checks = [{"name": n, "ok": True, "detail": details.get(n) or ""} for n in names]
    text = json.dumps({"model": name, "ok": True, "checks": checks}, indent=2) + "\n"
    assert run(capsys, "validate", name, "--json") == (0, text, "")


def test_validate_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(bundled_model("hypersurface-d2"), path)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_validate_invalid_model_exits_2(tmp_path, capsys):
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["euler"] = {"0": "1"}  # wrong degree
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "[FAIL]" in out


def test_validate_refuses_nested_components_with_exit_2(tmp_path, capsys):
    # a union of unions would read as three lines; the reader recurses one level only
    part = model_to_dict(bundled_model("line-in-plane"))
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"components": [{"components": [part, part]}, part]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2, err
    assert "Traceback" not in err and "components[0]: a component holds no components" in err


def test_a_union_of_two_target_chern_classes_exits_2(tmp_path, capsys):
    # the union would keep the first component's target Chern class
    M = truncated_polynomial_ring("t", 2, integral_value=2)
    N = truncated_polynomial_ring("h", 3)
    parts = [model_to_dict(truncated_model(
        "quadric", M, N, 2, 2, M.unit(), N.element({0: 1, 2: 4}), M.element({0: 1, 1: 2, 2: 2}),
        N.element({0: 1, 1: c1, 2: 6, 3: 4}))) for c1 in (4, 2)]
    path = tmp_path / "union.json"
    path.write_text(json.dumps({"components": parts}))
    for argv in (["validate", str(path)],
                 ["compute", str(path), "--k", "2", "--quantity", "chern=2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), (argv, err)
        assert "Traceback" not in err
        assert "requires one shared target Chern class" in err


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "1e99999999999", "1e_", "1e+_", "1e-_"])
@pytest.mark.parametrize("field", ["euler", "integral"])
def test_an_exponent_past_the_digit_limit_exits_2_at_once(tmp_path, capsys, text, field):
    # Fraction would build the power of ten, however large, and a numerator
    # past the int-to-str digit limit would end validate in a traceback; an
    # exponent Fraction does not read is refused as Fraction refuses it
    obj = model_to_dict(bundled_model("line-in-plane"))
    if field == "euler":
        obj["euler"] = {"1": text}
    else:
        obj["source"]["integral"] = {"1": text}
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, _, err = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2, err
    assert "Traceback" not in err and f"{field}[1]: bad rational" in err


def test_validate_with_a_huge_basis_degree_finishes(tmp_path, capsys):
    # the series behind the L-classes follow the two distinct source degrees,
    # not the 10^30 / 4 degree slots below the declared top degree
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["source"]["degrees"] = [0, 10 ** 30]
    obj["source"]["top_degree"] = 10 ** 30
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    result = {}
    worker = threading.Thread(target=lambda: result.update(code=cli.main(["validate", str(path)])),
                              daemon=True)
    worker.start()
    worker.join(timeout=20)
    assert not worker.is_alive(), "validate did not finish within 20 s"
    assert result["code"] in (0, 2)
    assert "[FAIL] euler class degree equals codimension" in capsys.readouterr().out


def _line_in_plane_scaled(degree):
    """line-in-plane with every degree times degree / 2 and a source
    Pontrjagin part in the degree of the line, as a JSON object."""
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["codim"] = degree
    for ring, top in (("source", degree), ("target", 2 * degree)):
        obj[ring]["degrees"] = [degree * d // 2 for d in obj[ring]["degrees"]]
        obj[ring]["top_degree"] = top
        for comp in obj[ring]["components"]:
            comp["top_degree"] = top
    obj["pontrjagin_source"] = {"0": "1", "1": "1"}
    return obj


def _finishes(argvs, seconds=10):
    """The exit codes of cli.main on each argv, run in a thread that must
    finish within the given time."""
    codes = []
    worker = threading.Thread(daemon=True, target=lambda: codes.extend(
        cli.main(argv) for argv in argvs))
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"did not finish within {seconds} s"
    return codes


@pytest.mark.parametrize("degree", [4, 260, 4 * 10 ** 29])
def test_characteristic_class_in_a_huge_degree_fails_validation(tmp_path, capsys, degree):
    # a power sum in degree d needs the L-class series to order d/4: above
    # the bound, validate states it and builds no L-class, and compute exits 2
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(_line_in_plane_scaled(degree)))
    codes = _finishes([["validate", str(path)],
                       ["compute", str(path), "--k", "1", "--quantity", "signature"]])
    out = capsys.readouterr().out
    if degree == 4:
        assert codes == [0, 0]
    else:
        assert codes == [2, 2]
        assert f"[FAIL] Pontrjagin power sums within degree 256: source Pontrjagin class " \
               f"has a power sum in degree {degree}; target Pontrjagin class has a power sum " \
               f"in degree {2 * degree}; normal Pontrjagin class has a power sum in degree " \
               f"{degree}" in out
        assert "normal signature-class relation" not in out


def test_a_power_sum_that_cannot_be_read_fails_the_normal_class_derivation(tmp_path, capsys):
    # the source ring reaches degree 280, above the bound, so validate reads
    # the power sums of P(source) = 2, which is not unital: that is a failure
    # of its own, and validate stops there
    M = truncated_polynomial_ring("t", 140)
    N = truncated_polynomial_ring("h", 141)
    m = truncated_model("big", M, N, 1, 1, M.element({0: 2}), N.unit())
    assert [(c.name, c.detail) for c in validate(m).checks if not c.ok] == [
        ("source Pontrjagin class is unital with degrees 0 mod 4", "2"),
        ("normal class derivation", "total class must be unital")]
    path = tmp_path / "big.json"
    save_model(m, path)
    assert _finishes([["validate", str(path)],
                      ["compute", str(path), "--k", "1", "--quantity", "signature"]]) == [2, 2]
    out, err = capsys.readouterr()
    assert "[FAIL] normal class derivation: total class must be unital" in out
    assert "invalid model: normal class derivation: total class must be unital" in err
    assert "Traceback" not in out + err


def test_power_sums_beyond_the_class_degrees_fail_validation(tmp_path, capsys):
    # P = 1 + a with deg a = 256 passes a bound on the degrees of its parts,
    # but its power sums (-1)^(j-1) a^j reach a^20, in degree 5120
    M = truncated_polynomial_ring("a", 20, gen_degree=256)
    N = truncated_polynomial_ring("H", 21, gen_degree=256)
    pull = LinearMap.from_coords(N, M, {j: ({j: 1} if j <= 20 else {}) for j in range(22)})
    push = LinearMap.from_coords(M, N, {i: {i + 1: 1} for i in range(21)})
    m = ImmersionModel(M, N, pull, push, 256, M.element({1: 1}), M.element({0: 1, 1: 1}),
                       N.unit(), name="deep")
    path = tmp_path / "deep.json"
    save_model(m, path)
    assert _finishes([["validate", str(path)],
                      ["compute", str(path), "--k", "2", "--quantity", "signature"]]) == [2, 2]
    assert "[FAIL] Pontrjagin power sums within degree 256: source Pontrjagin class has a " \
           "power sum in degree 5120; normal Pontrjagin class has a power sum in degree " \
           "5120" in capsys.readouterr().out


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "no-such-model.json")
    assert code == 2
    assert "no-such-model" in err


def test_compute_signature(capsys):
    code, out, _ = run(capsys, "compute", "two-lines", "--k", "2",
                       "--quantity", "signature")
    assert code == 0
    assert out.strip() == "1"


def test_compute_signature_routes(capsys):
    for route in ("general", "collected", "via-N", "collected-source", "auto"):
        code, out, _ = run(capsys, "compute", "hypersurface-d4", "--k", "1",
                           "--quantity", "signature", "--route", route)
        assert code == 0
        assert out.strip() == "-16"


def test_compute_bk_class(capsys):
    code, out, _ = run(capsys, "compute", "two-lines", "--k", "2",
                       "--quantity", "bk", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"h^2": "2"}
    assert payload["coordinates"] == {"2": "2"}  # by basis index, beside the label
    code, out, _ = run(capsys, "compute", "hypersurface-d3", "--k", "1",
                       "--quantity", "pontrjagin=4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "-15" and payload["coordinates"] is None


def test_compute_pontrjagin(capsys):
    code, out, _ = run(capsys, "compute", "hypersurface-d3", "--k", "1",
                       "--quantity", "pontrjagin=4")
    assert code == 0
    assert out.strip() == "-15"  # (4 - 9) * 3


def test_compute_degree_mismatch_warns(capsys):
    code, out, err = run(capsys, "compute", "hypersurface-d3", "--k", "2",
                         "--quantity", "pontrjagin=4")
    assert code == 0
    assert out.strip() == "0"
    assert "warning" in err


@pytest.mark.parametrize("model, quantity, value, warning", [
    ("line-in-plane", "signature", "0", "no k-tuple dimension in (2,) is a nonnegative multiple "
                                        "of 4; the pairing vanishes"),
    ("two-lines", "signature", "0", "no k-tuple dimension in (2,) is a nonnegative multiple "
                                    "of 4; the pairing vanishes"),
    ("hypersurface-d3", "signature", "-5", None),
    ("line-in-plane", "bk", None, None)])
def test_a_signature_zero_by_its_dimension_says_why(capsys, model, quantity, value, warning):
    # at k = 1 a signature pairs with a manifold of dimension 2, or 4 for
    # hypersurface-d3; the virtual class is a class, so its dimension warns
    # of nothing
    warnings = [] if warning is None else [warning]
    code, out, err = run(capsys, "compute", model, "--k", "1", "--quantity", quantity)
    assert code == 0 and err.splitlines() == [f"warning: {w}" for w in warnings]
    if value is not None:
        assert out == f"{value}\n"
    code, out, _ = run(capsys, "compute", model, "--k", "1", "--quantity", quantity, "--json")
    assert code == 0 and json.loads(out)["warnings"] == warnings


@pytest.mark.parametrize("model, quantity", [("hypersurface-d3", "signature"),
                                             ("hypersurface-d3", "bk"),
                                             ("hypersurface-d3", "pontrjagin=4"),
                                             ("two-lines", "chern=2")])
def test_compute_empty_locus_warns(capsys, model, quantity):
    # (k-1)*codim = 6 exceeds each source dimension (4 and 2): no 4-tuple points
    code, out, err = run(capsys, "compute", model, "--k", "4", "--quantity", quantity)
    assert code == 0
    assert out.strip() == "0"
    empty = [line for line in err.splitlines() if "point manifold is empty" in line]
    assert len(empty) == 1
    assert "(k-1)*codim = 6" in empty[0] and "the value is 0" in empty[0]
    assert str(multiple_point_dimension(bundled_model(model), 1)) in empty[0]
    if quantity.startswith("pontrjagin"):
        assert "degree sum 4 does not match" in err
    code, out, _ = run(capsys, "compute", model, "--k", "4", "--quantity", quantity, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == ({} if quantity == "bk" else "0")
    assert [w for w in payload["warnings"] if "point manifold is empty" in w] == \
        [empty[0][len("warning: "):]]


def test_compute_reports_a_characteristic_number_warnings_once(capsys):
    m = bundled_model("hypersurface-d3")
    library = formulas.pontrjagin_number(m, 4, [4]).warnings
    assert len(library) == 2  # the degree sum and the empty locus
    code, out, err = run(capsys, "compute", "hypersurface-d3", "--k", "4",
                         "--quantity", "pontrjagin=4", "--json")
    assert code == 0
    assert json.loads(out)["warnings"] == library
    assert err.splitlines() == [f"warning: {w}" for w in library]


def test_compute_nonempty_locus_does_not_warn(capsys):
    # (k-1)*codim = 4 equals the source dimension: the triple points are
    # finite, and there are none, as the model is an embedding
    code, out, err = run(capsys, "compute", "hypersurface-d3", "--k", "3",
                         "--quantity", "signature", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == [0]
    assert payload["value"] == "0"
    m = bundled_model("hypersurface-d3")
    assert validate(m).ok
    embedding = zero_warning(m, 3)
    assert payload["warnings"] == [embedding] and "embedding" in embedding
    assert err == f"warning: {embedding}\n"
    assert "point manifold is empty" not in err


def test_compute_chern_without_data_errors(capsys):
    code, _, err = run(capsys, "compute", "hypersurface-d3", "--k", "1",
                       "--quantity", "chern=4")
    assert code == 3
    assert "Chern" in err


def test_compute_bad_quantity_exits_3(capsys):
    code, _, err = run(capsys, "compute", "line-in-plane", "--k", "1",
                       "--quantity", "bogus")
    assert code == 3


@pytest.mark.parametrize("quantity", ["bk", "pontrjagin=4", "chern=2"])
def test_compute_route_with_other_quantity_exits_3(capsys, quantity):
    code, out, err = run(capsys, "compute", "two-lines", "--k", "2",
                         "--quantity", quantity, "--route", "general")
    assert code == 3
    assert f"not to --quantity {quantity}" in err
    assert out == ""
    code, _, _ = run(capsys, "compute", "two-lines", "--k", "2",
                     "--quantity", quantity, "--route", "auto")
    assert code == 0


def test_an_unknown_route_exits_3_naming_the_routes_of_its_quantity(capsys):
    # one check, against signatures.QUANTITIES, for every quantity
    code, out, err = run(capsys, "compute", "two-lines", "--k", "2",
                         "--quantity", "signature", "--route", "bogus")
    assert (code, out) == (3, "")
    assert err == ("error: --route bogus applies not to --quantity signature: "
                   "general, via-N, collected, collected-source, herbert, auto\n")
    code, out, err = run(capsys, "compute", "two-lines", "--k", "2",
                         "--quantity", "chern=2", "--route", "collected")
    assert (code, out) == (3, "")
    assert err == "error: --route collected applies not to --quantity chern=2: auto\n"


def run_to_exit(capsys, *argv):
    """run, with argparse's SystemExit read as the exit code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("length", [256, 5000])
@pytest.mark.parametrize("command", ["validate", "compute"])
def test_a_long_model_reference_exits_2_with_a_short_message(capsys, command, length):
    # a name too long for the file system is not an existing file
    extra = ["--k", "1", "--quantity", "signature"] if command == "compute" else []
    code, out, err = run_to_exit(capsys, command, "m" * length, *extra)
    assert (code, out) == (2, "")
    assert f"({length} characters): not a bundled model name or an existing file" in err
    assert all(len(line) < 200 for line in err.splitlines()), err[:300]


LONG = "x" * 5000


@pytest.mark.parametrize("argv", [
    ["compute", "two-lines", "--k", "2", "--quantity", LONG],
    ["compute", "two-lines", "--k", "2", "--quantity", "pontrjagin=" + "4" * 5000],
    ["compute", "two-lines", "--k", "2", "--quantity", "pontrjagin=" + "4," * 2000 + "4",
     "--route", "general"],
    ["compute", "two-lines", "--k", "2", "--quantity", "signature", "--route", LONG],
    ["compute", "two-lines", "--k", "4" * 5000, "--quantity", "signature"],
    ["compute", "two-lines", "--k", LONG, "--quantity", "signature"],
    ["identities", "--max-k", "x" * 3000],
], ids=["quantity", "index-sequence", "quantity-of-a-route", "route", "k-digits", "k-text",
        "max-k"])
def test_a_long_refused_argument_is_shown_short(capsys, argv):
    code, out, err = run_to_exit(capsys, *argv)
    assert (code, out) == (3, "")
    assert "characters)" in err
    assert all(len(line) < 200 for line in err.splitlines()), err[:300]


def test_compute_invalid_model_exits_2(tmp_path, capsys):
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["euler"] = {"0": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "compute", str(path), "--k", "2",
                       "--quantity", "signature")
    assert code == 2


def test_a_pushed_class_below_the_top_degree_with_an_integral_exits_2(tmp_path, capsys):
    # t^2 lies below its component's declared top degree 8 and has no
    # source integral, but f_!(t^2) = h^3 has one: validate refuses the
    # model, so compute reports it invalid instead of a route disagreement
    M = GradedRing(["1", "t", "t^2"], [0, 2, 4],
                   {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {2: 1}}, {},
                   top_degree=8)
    N = truncated_polynomial_ring("h", 3)
    path = tmp_path / "low-class.json"
    save_model(truncated_model("low-class", M, N, 1, 1, M.element({0: 1, 2: 3}),
                               N.element({0: 1, 2: 3})), path)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "[FAIL] integration compatibility: on t^2: 1 != 0" in out.splitlines()
    code, out, err = run(capsys, "compute", str(path), "--k", "1", "--quantity", "signature")
    assert (code, out) == (2, "")
    assert err == "invalid model: integration compatibility: on t^2: 1 != 0\n"


@pytest.mark.parametrize("extra", [["--quantity", "bogus"],
                                   ["--quantity", "bk", "--route", "general"],
                                   ["--quantity", "signature", "--route", "bogus"]])
def test_compute_usage_error_precedes_validation(tmp_path, capsys, extra):
    # the usage error is reported, not the invalid model behind it
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj["euler"] = {"0": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "compute", str(path), "--k", "1", *extra)
    assert code == 3
    assert "invalid model" not in err
    assert out == ""


def test_compute_route_disagreement_exits_1(capsys, monkeypatch):
    # Herbert's hypothesis holds on two-lines, so auto runs herbert there
    from fractions import Fraction
    monkeypatch.setitem(formulas.SIGNATURE_ROUTES, "herbert", lambda m, k: Fraction(999))
    code, _, err = run(capsys, "compute", "two-lines", "--k", "2",
                       "--quantity", "signature", "--route", "auto")
    assert code == 1
    assert "disagreement" in err


def test_the_herbert_route_outside_its_hypothesis_exits_3(tmp_path, capsys):
    # neither f*f_! = 0 nor e pulled back on this union: the named route is
    # refused, and auto runs the chain and the subset kernel instead
    path = tmp_path / "union.json"
    save_model(disjoint_union([bundled_model("hypersurface-d1"),
                               bundled_model("hypersurface-d2")]), path)
    code, out, err = run(capsys, "compute", str(path), "--k", "1", "--quantity", "signature",
                         "--route", "herbert")
    assert (code, out) == (3, "")
    assert err == ("error: f*f_! is not zero and euler class 1*t@0 + 2*t@1 "
                   "is not pulled back from the target\n")
    code, out, _ = run(capsys, "compute", str(path), "--k", "1", "--quantity", "signature")
    assert code == 0 and out.strip() == str(
        formulas.signature(bundled_model("hypersurface-d1"), 1)
        + formulas.signature(bundled_model("hypersurface-d2"), 1))


def test_compute_json_payload(capsys):
    code, out, _ = run(capsys, "compute", "hypersurface-d4", "--k", "1",
                       "--quantity", "signature", "--json")
    payload = json.loads(out)
    assert payload["value"] == "-16"
    assert payload["dimension"] == [4]


def test_identities_pass(capsys):
    code, out, _ = run(capsys, "identities", "--max-k", "3")
    assert code == 0
    assert "all identities hold" in out


def test_identities_caps_the_series_order(capsys):
    # uncapped, order max(8, max_k) took minutes at --max-k 40
    start = time.perf_counter()
    code, out, _ = run(capsys, "identities", "--max-k", "40")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert "all identities hold" in out


def test_compute_on_an_empty_locus_at_k_one_million(capsys):
    # (k-1)*codim far above the source dimension: 0 before any route or
    # factorial(k) runs
    start = time.perf_counter()
    for quantity, routes in (("signature", (*formulas.SIGNATURE_ROUTES, "auto")),
                             ("bk", ("auto",))):
        for route in routes:
            code, out, err = run(capsys, "compute", "line-in-plane", "--k", "1000000",
                                 "--quantity", quantity, "--route", route, "--json")
            assert code == 0, (quantity, route, err)
            assert json.loads(out)["value"] in ("0", {}), (quantity, route)
            assert "point manifold is empty" in err
    assert time.perf_counter() - start < 1


def test_usage_error_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "line-in-plane"])  # missing required options
    assert exc.value.code == 3


def _malformed(tmp_path, edit):
    obj = model_to_dict(bundled_model("line-in-plane"))
    edit(obj)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _set_first_product_value(obj, coords):
    key = next(iter(obj["source"]["products"]))
    obj["source"]["products"][key] = coords


@pytest.mark.parametrize("edit", [
    lambda obj: _set_first_product_value(obj, {"7": "1"}),
    lambda obj: obj["source"]["integral"].update({"9": "1"}),
    lambda obj: obj["source"]["products"].update({"0,9": {"1": "1"}}),
    lambda obj: obj["source"]["components"][0].update({"indices": "01"}),
], ids=["product-value-index", "integral-index", "product-key-index", "indices-string"])
def test_malformed_ring_exits_2(tmp_path, capsys, edit):
    path = _malformed(tmp_path, edit)
    for argv in (["validate", path], ["compute", path, "--k", "1", "--quantity", "signature"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert "Traceback" not in err
        assert "source" in err


@pytest.mark.parametrize("name,ring,top", [
    ("two-lines", "target", []),
    ("two-lines", "target", {}),
    ("two-lines", "target", -2),
    ("two-lines", "target", 1.5),
    ("two-lines", "target", True),
    ("two-lines", "target", "4"),
    ("two-lines", "source", -2),
    ("hypersurface-d3", "target", 2),
], ids=["list", "object", "negative", "float", "bool", "string", "source-negative",
        "below-basis"])
def test_bad_ring_top_degree_exits_2(tmp_path, capsys, name, ring, top):
    obj = model_to_dict(bundled_model(name))
    obj[ring]["top_degree"] = top
    path = tmp_path / "top.json"
    path.write_text(json.dumps(obj))
    for argv in (["validate", str(path)],
                 ["compute", str(path), "--k", "1", "--quantity", "signature"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert "Traceback" not in err
        assert f"{ring}: top" in err


@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
def test_unreadable_model_file_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "model.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"name": "\xff\xfe"}')
    for argv in (["validate", str(path)],
                 ["compute", str(path), "--k", "1", "--quantity", "signature"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, (argv, err)
        assert "cannot read a model file" in err


@pytest.mark.parametrize("max_k", ["0", "-1"])
def test_identities_nonpositive_max_k_exits_3(capsys, max_k):
    code, out, err = run(capsys, "identities", "--max-k", max_k)
    assert code == 3
    assert "--max-k must be at least 1" in err
    assert "all identities hold" not in out
