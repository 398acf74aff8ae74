"""Seeded fuzz of model-file intake: random mutations of the bundled models'
JSON.  Through the CLI's validate and compute, in-process, every malformed
file must end as exit 2 (invalid model) or 3 (usage error), a well-formed
one as exit 0; nothing may raise, and exit 1 (route disagreement) must not
appear.  Through the library's `load_model` alone, a file must load or
raise `ModelFormatError`, never another exception.  Through the ring, class,
map and model constructors, and a class's degree selection and power, a junk
index, degree, shift, power, codimension, map image or ring must be refused with
`GradedAlgebraError` or `ModelError`.  Through `cli.main`, any command line
of a drawn model reference, k, quantity and route returns 0, 2 or 3, or
argparse exits 3; nothing escapes."""

import json
import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multipoint import cli
from multipoint.graded import GradedAlgebraError, GradedClass, GradedRing, TensorClass, cross
from multipoint.model import ImmersionModel, LinearMap, ModelError, validate
from multipoint.modelfile import ModelFormatError, load_model, model_to_dict, save_model
from multipoint.models import BUNDLED, bundled_model
from multipoint.signatures import SIGNATURE_ROUTES

MUTATIONS = 300
LOAD_MUTATIONS = 1000
VALUES = [None, True, False, 0, 1, -1, 2, 3, 4, 2000, 10**30, -(10**30), 1.5, "", "x",
          "0", "1", "-1", "2", "4", "1/2", "-3/4", "1/0", "1e3", " 1", [], [0, 1], {},
          {"0": "1"}, {"1": "1"}, {"9": "1"}, {"-1": "1"}, {"0,9": {"1": "1"}}]
KEYS = ["0", "1", "2", "9", "-1", "0,0", "0,1", "1,1", "0,9", "x", "top_degree",
        "components", "codim", "format_version"]


def _slots(node, out):
    """Every (container, key) pair in a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def _mutate(obj, rng):
    container, key = rng.choice(_slots(obj, []))
    roll = rng.random()
    if roll < 0.6:
        container[key] = rng.choice(VALUES)
    elif roll < 0.8:
        del container[key]
    elif isinstance(container, dict):
        container[rng.choice(KEYS)] = rng.choice(VALUES)
    else:
        container.append(rng.choice(VALUES))


def _mutated_files(rng, path, count):
    """Write `count` mutated model files to `path` in turn, yielding after each."""
    originals = [json.dumps(model_to_dict(bundled_model(name))) for name in sorted(BUNDLED)]
    for _ in range(count):
        obj = json.loads(rng.choice(originals))
        for _ in range(rng.randint(1, 3)):
            _mutate(obj, rng)
        path.write_text(json.dumps(obj))
        yield


def test_mutated_model_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261018)
    path = tmp_path / "mutated.json"
    for _ in _mutated_files(rng, path, MUTATIONS):
        k = str(rng.randint(1, 3))
        for argv in (["validate", str(path)],
                     ["compute", str(path), "--k", k, "--quantity", "signature"]):
            code = cli.main(argv)
            capsys.readouterr()
            assert code in (0, 2, 3), (argv, code, path.read_text()[:2000])


def test_mutated_model_files_load_or_raise_a_format_error(tmp_path):
    # the library side alone: no validation or CLI catches what the reader lets through
    rng = random.Random(20261019)
    path = tmp_path / "mutated.json"
    loaded = refused = 0
    for _ in _mutated_files(rng, path, LOAD_MUTATIONS):
        try:
            load_model(path)
        except ModelFormatError:
            refused += 1
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on {path.read_text()[:2000]}")
        else:
            loaded += 1
    assert loaded and refused


@pytest.mark.parametrize("top", [2000, 10**30])
@pytest.mark.parametrize("ring", ["source", "target"])
def test_declared_top_degree_does_not_size_the_series(tmp_path, capsys, ring, top):
    # the classes vanish above the largest basis degree, so a large declared
    # top degree changes neither the cost nor the answers
    obj = model_to_dict(bundled_model("line-in-plane"))
    obj[ring]["top_degree"] = top
    path = tmp_path / "top.json"
    path.write_text(json.dumps(obj))
    for argv, want in ((["validate", str(path)], None),
                       (["compute", str(path), "--k", "1", "--quantity", "signature"], "0"),
                       (["compute", str(path), "--k", "1", "--quantity", "bk"], None)):
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        if want is not None:
            assert out.strip() == want


def test_huge_pontrjagin_degrees_exit_cleanly_and_quickly(tmp_path, capsys):
    # a Pontrjagin or Chern part in a huge basis degree must not size the
    # L-class series: validate refuses it, and compute exits 2, in time
    rng = random.Random(20261020)
    path = tmp_path / "huge.json"
    codes = []

    def run():
        for _ in range(40):
            obj = model_to_dict(bundled_model(rng.choice(sorted(BUNDLED))))
            ring = rng.choice(["source", "target"])
            i = rng.randrange(1, len(obj[ring]["degrees"]))
            obj[ring]["degrees"][i] = rng.choice([2000, 4 * 10 ** 6, 10 ** 30])
            obj[ring]["top_degree"] = max(obj[ring]["degrees"])
            key = rng.choice(["pontrjagin", "pontrjagin", "chern"]) + "_" + ring
            if obj.get(key) is not None:
                obj[key][str(i)] = rng.choice(["1", "-2", "1/3"])
            path.write_text(json.dumps(obj))
            k = str(rng.randint(1, 3))
            for argv in (["validate", str(path)],
                         ["compute", str(path), "--k", k, "--quantity", "signature"],
                         ["compute", str(path), "--k", k, "--quantity", "pontrjagin=4"]):
                codes.append((argv[0], cli.main(argv)))
                capsys.readouterr()

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), f"stalled after {len(codes)} commands"
    assert len(codes) == 120 and {code for _, code in codes} <= {2, 3}


# text without "/", so no drawn name reaches a device such as /dev/zero;
# without a leading "-", which argparse reads as an option ("-h" prints help);
# and encodable in UTF-8, since the captured stderr is strict where the
# interpreter's own stderr writes a backslash escape
_NAME_CHARS = st.characters(codec="utf-8", blacklist_characters="/")
_NAME = st.text(_NAME_CHARS).filter(lambda t: not t.startswith("-"))
_LONG_NAME = st.text(_NAME_CHARS, min_size=250, max_size=5000).map(lambda t: "x" + t)


@st.composite
def compute_argv(draw, saved):
    """A compute command line; each of k, the quantity and the route is
    text one time in four, so that most lines reach the model."""
    def valid_or_text(valid):
        return draw(st.one_of(valid, valid, valid, st.text()))

    model = draw(st.one_of(st.sampled_from(sorted(BUNDLED)), st.just(saved), _NAME, _LONG_NAME))
    k = valid_or_text(st.one_of(st.integers(1, 6).map(str), st.just(str(10 ** 6))))
    J = ",".join(map(str, draw(st.lists(st.integers(-2, 12), max_size=3))))
    quantity = valid_or_text(st.sampled_from(["signature", "bk", f"pontrjagin={J}",
                                              f"chern={J}"]))
    route = valid_or_text(st.sampled_from(["auto", *SIGNATURE_ROUTES]))
    json_flag = ["--json"] if draw(st.booleans()) else []
    return ["compute", model, "--k", k, "--quantity", quantity, "--route", route, *json_flag]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_main_never_escapes_and_never_exits_1_on_bad_argv(tmp_path, capsys, data):
    # every fixture use is read-only: the saved model is written once
    saved = tmp_path / "saved.json"
    if not saved.exists():
        save_model(bundled_model("hypersurface-d3"), saved)
    argv = data.draw(compute_argv(str(saved)))
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
        assert code == 3, argv
    capsys.readouterr()
    assert code in (0, 2, 3), argv


# ---------------------------------------------------------------------------
# Constructor fuzz
# ---------------------------------------------------------------------------

# None is left out: it is the default of a ring's top degree
NOT_INT = st.one_of(st.floats(allow_nan=False), st.booleans(), st.text(max_size=3),
                    st.fractions(max_denominator=3))


def _bad_index(n):
    """Anything that is not a basis index of a basis of n."""
    return st.one_of(NOT_INT, st.integers(max_value=-1), st.integers(min_value=n))


BAD_DEGREE = st.one_of(NOT_INT, st.none(), st.integers(max_value=-1),
                       st.integers().map(lambda d: 2 * d + 1))
BAD_CODIM = st.one_of(BAD_DEGREE, st.just(0))


def _ring_args(m):
    """The constructor arguments of the target ring of m, to be corrupted."""
    ring = m.target
    return dict(labels=list(ring.labels), degrees=list(ring.degrees),
                products={k: dict(v) for k, v in ring.products.items()},
                integral=dict(ring.integral), top_degree=ring.top_degree,
                unit=dict(ring.unit_coords), components=list(ring.components))


@st.composite
def junk_calls(draw):
    """A constructor or operator call with one argument corrupted: (the
    argument, the junk put in it, the call)."""
    m = bundled_model(draw(st.sampled_from(["line-in-plane", "two-lines", "line-in-quadric"])))
    other = bundled_model("hypersurface-d3")  # rings unequal to every ring of m
    ring, n = m.target, len(m.target.labels)
    bad = _bad_index(n)
    kind = draw(st.sampled_from([
        "degree", "top_degree", "component_top", "component_index", "product_key",
        "product_slot", "product_value", "integral", "unit", "class", "tensor_slot",
        "tensor_arity", "map_domain", "map_codomain", "map_image", "codim",
        "model_class_ring", "model_map_ring", "select_degrees", "power"]))
    args = _ring_args(m)
    fields = dict(source=m.source, target=m.target, pullback=m.pullback,
                  pushforward=m.pushforward, codim=m.codim, euler=m.euler,
                  pontrjagin_source=m.pontrjagin_source, pontrjagin_target=m.pontrjagin_target,
                  chern_source=m.chern_source, chern_target=m.chern_target)
    if kind == "degree":
        junk = draw(BAD_DEGREE)
        args["degrees"][draw(st.integers(0, n - 1))] = junk
    elif kind == "top_degree":
        junk = args["top_degree"] = draw(NOT_INT)
    elif kind == "component_top":
        junk = draw(NOT_INT)
        args["components"][0] = args["components"][0]._replace(top_degree=junk)
    elif kind == "component_index":
        junk, comp = draw(bad), args["components"][0]
        args["components"][0] = comp._replace(indices=comp.indices[1:] + (junk,))
    # a junk key equal to a valid one (0.0, True) would only overwrite the
    # valid key's value, so a corrupted map holds the junk key alone
    elif kind == "product_key":
        junk = draw(st.one_of(bad, st.tuples(bad, st.integers(0, n - 1))))
        args["products"] = {junk: {0: 1}}
    elif kind == "product_slot":
        junk = (draw(st.integers(0, n - 1)), draw(bad))
        args["products"] = {junk: {0: 1}}
    elif kind == "product_value":
        junk = draw(bad)
        args["products"] = {(0, 0): {junk: 1}}
    elif kind in ("integral", "unit"):
        junk = draw(bad)
        args[kind] = {junk: 1}
    elif kind == "class":
        junk = draw(bad)
        return kind, junk, lambda: GradedClass(ring, {junk: 1})
    elif kind == "tensor_slot":
        arity = draw(st.integers(1, 3))
        junk = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity))
        junk[draw(st.integers(0, arity - 1))] = draw(bad)
        junk = tuple(junk)
        return kind, junk, lambda: TensorClass(ring, arity, {junk: 1})
    elif kind == "tensor_arity":
        junk = draw(st.one_of(NOT_INT, st.integers(max_value=0)))
        return kind, junk, lambda: TensorClass(ring, junk, {})
    elif kind == "map_domain":
        junk = draw(bad)
        return kind, junk, lambda: LinearMap.from_coords(ring, ring, {junk: {0: 1}})
    elif kind == "map_codomain":
        junk = draw(bad)
        return kind, junk, lambda: LinearMap.from_coords(ring, ring, {0: {junk: 1}})
    elif kind == "map_image":
        # an image is a coordinate mapping; a class of any ring is not one
        junk = draw(st.one_of(st.sampled_from([ring, other.target, other.source]).map(
            lambda r: r.unit()), NOT_INT, st.none(), st.lists(st.integers(0, 2), max_size=2)))
        return kind, junk, lambda: LinearMap(ring, ring, {0: junk})
    elif kind == "select_degrees":
        junk = draw(BAD_DEGREE.filter(lambda d: d is not None))
        x = draw(st.sampled_from([m.pontrjagin_target, cross([m.pontrjagin_target] * 2)]))
        J = draw(st.lists(st.sampled_from([0, 2, 4]), max_size=2))
        J.insert(draw(st.integers(0, len(J))), junk)
        return kind, junk, lambda: x.select_degrees(J)
    elif kind == "power":
        junk = draw(st.one_of(NOT_INT, st.integers(max_value=-1)))
        return kind, junk, lambda: m.pontrjagin_target ** junk
    elif kind == "codim":
        junk = fields["codim"] = draw(BAD_CODIM)
    elif kind == "model_class_ring":
        name = draw(st.sampled_from(["euler", "pontrjagin_source", "pontrjagin_target",
                                     "chern_source", "chern_target"]))
        wrong = m.target if name.endswith("source") or name == "euler" else m.source
        junk = draw(st.sampled_from([wrong, other.source, other.target]))
        # a basis element past the right ring's basis where the wrong ring has one
        fields[name] = junk.basis_class(len(junk.labels) - 1)
    else:
        name = draw(st.sampled_from(["pullback", "pushforward"]))
        junk = fields[name] = draw(st.sampled_from([
            other.pullback, other.pushforward, m.pushforward if name == "pullback" else m.pullback]))
    if kind in fields or kind.startswith("model"):
        return kind, junk, lambda: ImmersionModel(**fields)
    return kind, junk, lambda: GradedRing(**args)


@settings(max_examples=400, deadline=None)
@given(junk_calls())
def test_constructors_refuse_junk_with_their_own_errors(call):
    # a float, bool, string, negative or past-the-basis index, a degree or
    # codimension that is not an int of the right parity, a power that is
    # not an int, a map image that is not a coordinate mapping, and
    # a class or map of another ring are each
    # refused by the constructor or operator; whatever one let through is
    # printed and validated, as a user of it would
    kind, junk, build = call
    try:
        built = build()
    except (GradedAlgebraError, ModelError):
        return
    repr(built)
    if isinstance(built, ImmersionModel):
        str(validate(built))
    pytest.fail(f"{kind}: {junk!r} was accepted")
