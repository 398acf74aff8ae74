"""What a fresh interpreter loads: the package exports lazily, a
bundled-model compute never compiles the model-file reader, the oracle,
the partitions, the random models or the series algebra, nor imports
dataclasses; a signature or bk compute compiles neither the formulas nor
the disjoint union, a validate compiles no formula and examples no ring.
The names the benchmark harness reads keep resolving wherever their code
lives."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multipoint
from multipoint.modelfile import save_model
from multipoint.models import bundled_model

SRC = str(Path(multipoint.__file__).resolve().parent.parent)
BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")


def _loaded_modules(code: str) -> set:
    """sys.modules of a fresh interpreter after running ``code``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    script = code + "\nimport sys\nprint('MODULES', *sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    last = proc.stdout.strip().splitlines()[-1].split()
    assert last[0] == "MODULES"
    return set(last[1:])


def test_bundled_compute_loads_only_what_it_runs():
    bare = _loaded_modules("")
    loaded = _loaded_modules(
        "from multipoint import cli\n"
        "assert cli.main(['compute', 'line-in-plane', '--k', '2',"
        " '--quantity', 'signature']) == 0")
    assert "multipoint.signatures" in loaded
    for name in ("formulas", "union", "oracle", "modelfile", "series", "partitions",
                 "random_models"):
        assert f"multipoint.{name}" not in loaded, name
    for name in ("dataclasses", "inspect"):
        assert name in bare or name not in loaded, name


def _compute(*argv: str) -> set:
    """The modules a fresh interpreter loads for one compute through cli.main."""
    return _loaded_modules("from multipoint import cli\n"
                           f"assert cli.main(['compute', *{list(argv)!r}]) == 0")


@pytest.mark.parametrize("argv", [
    *(("hypersurface-d3", "--k", "2", "--quantity", "signature", "--route", route)
      for route in ("auto", "general", "via-N", "collected", "collected-source")),
    ("hypersurface-d3", "--k", "2", "--quantity", "bk"),
    ("line-in-plane", "--k", "2", "--quantity", "bk", "--json"),
], ids=lambda argv: "-".join(argv[4::2]))
def test_a_signature_or_bk_compute_loads_neither_formulas_nor_union(argv):
    loaded = _compute(*argv)
    assert "multipoint.signatures" in loaded
    assert "multipoint.formulas" not in loaded and "multipoint.union" not in loaded


@pytest.mark.parametrize("quantity", ["pontrjagin=4", "chern=2,2"])
def test_a_characteristic_number_loads_the_formulas(quantity):
    loaded = _compute("line-in-quadric", "--k", "1", "--quantity", quantity)
    assert "multipoint.formulas" in loaded and "multipoint.union" not in loaded


def test_the_bundled_union_loads_the_union_module_only():
    loaded = _compute("two-lines", "--k", "2", "--quantity", "bk")
    assert "multipoint.union" in loaded and "multipoint.formulas" not in loaded


def test_bundled_validate_loads_no_formula():
    loaded = _loaded_modules(
        "from multipoint import cli\n"
        "assert cli.main(['validate', 'line-in-plane']) == 0")
    assert "multipoint.model" in loaded
    for name in ("formulas", "signatures", "union", "partitions", "random_models"):
        assert f"multipoint.{name}" not in loaded, name


def test_a_model_file_loads_no_bundled_model(tmp_path):
    # a bundled name is read from cli.MODEL_NOTES, so a file path compiles
    # the model-file reader and not the bundled models
    path = tmp_path / "m.json"
    save_model(bundled_model("hypersurface-d3"), path)
    for argv in (["validate", str(path)],
                 ["compute", str(path), "--k", "1", "--quantity", "signature"]):
        loaded = _loaded_modules(f"from multipoint import cli\nassert cli.main({argv!r}) == 0")
        assert "multipoint.modelfile" in loaded and "multipoint.models" not in loaded, argv


def test_examples_loads_no_ring_module():
    # examples prints cli.MODEL_NOTES, whose keys a test pins to models.BUNDLED
    for argv in ("['examples']", "['examples', '--json']"):
        loaded = _loaded_modules(f"from multipoint import cli\nassert cli.main({argv}) == 0")
        assert sorted(m for m in loaded if m.startswith("multipoint")) == \
            ["multipoint", "multipoint.cli"], argv


def test_the_package_signature_loads_no_formulas():
    loaded = _loaded_modules("import multipoint\nmultipoint.signature")
    assert "multipoint.signatures" in loaded and "multipoint.formulas" not in loaded


# module -> {name: the module that defines it}, for each module attribute
# the benchmark harness (workloads, reference and tracer) reads
HARNESS_READS = {
    "models": {"random_truncated_model": "random_models", "BUNDLED": "models",
               "bundled_model": "models", "truncated_polynomial_ring": "models"},
    "graded": {"cross": "graded", "signature_class": "graded"},
    "formulas": {
        "_characteristic_number": "formulas", "cross": "graded",
        "transfer_to_source": "formulas", "transfer_to_target": "formulas",
        "pontrjagin_number": "formulas", "chern_number": "formulas",
        # moved to the signature kernel, and still read from formulas
        "SIGNATURE_ROUTES": "signatures", "signature_via_source": "signatures",
        "signature_via_target": "signatures", "signature_collected": "signatures",
        "signature_collected_source": "signatures", "signature": "signatures",
        "virtual_signature_class": "signatures", "multiple_point_dimension": "signatures"},
    "model": {"validate": "model", "ImmersionModel": "model", "LinearMap": "model"},
    "cli": {"main": "cli", "MODEL_NOTES": "cli"},
    "partitions": {"all_partitions": "partitions", "type_vectors": "partitions",
                   "marked_type_vectors": "partitions"},
}


def test_names_the_benchmark_reads_resolve_to_their_home():
    for module, names in HARNESS_READS.items():
        mod = importlib.import_module(f"multipoint.{module}")
        for name, home in names.items():
            value = getattr(importlib.import_module(f"multipoint.{home}"), name)
            assert getattr(mod, name) is value, (module, name)
    with pytest.raises(AttributeError, match="no_such_model"):
        importlib.import_module("multipoint.models").no_such_model


def test_formulas_rebinds_only_signature_names_the_benchmark_reads():
    # the names formulas binds from signatures other than by an import are
    # there for the harness: each is read as formulas.<name> (or through an
    # alias of formulas), or is a route function named in tracing.ROUTES
    formulas = importlib.import_module("multipoint.formulas")
    signatures = importlib.import_module("multipoint.signatures")
    tree = ast.parse(Path(formulas.__file__).read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    rebound = {name for name, value in vars(formulas).items()
               if getattr(signatures, name, None) is value
               and name not in imported and not name.startswith("__")}
    text = "\n".join(p.read_text() for p in Path(BENCHMARKS).glob("*.py"))
    aliases = {"formulas", *re.findall(r"^\s*(\w+) = formulas$", text, re.M)}
    read = set(re.findall(rf"\b(?:{'|'.join(aliases)})\.(\w+)", text))
    tracing = ast.parse(Path(BENCHMARKS, "tracing.py").read_text())
    routes = next(node.value for node in tracing.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["ROUTES"])
    read |= set(ast.literal_eval(routes).values())
    assert rebound and rebound <= read, sorted(rebound - read)


def test_the_benchmark_tracer_installs():
    # the tracer reads its names unconditionally: a moved one fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCHMARKS]))
    proc = subprocess.run([sys.executable, "-c", "from tracing import Tracer\nTracer().install()"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_dataclasses():
    bare = _loaded_modules("")
    modules = [p.stem for p in Path(multipoint.__file__).parent.glob("*.py")
               if p.stem != "__init__"]
    loaded = _loaded_modules("".join(f"import multipoint.{m}\n" for m in modules))
    assert {f"multipoint.{m}" for m in modules} <= loaded
    assert "dataclasses" in bare or "dataclasses" not in loaded


def test_import_multipoint_loads_no_submodule():
    loaded = _loaded_modules("import multipoint")
    assert not [m for m in loaded if m.startswith("multipoint.")]


def test_exports_resolve_to_their_home_module():
    assert multipoint.__all__ == sorted(multipoint._HOME)
    for name in multipoint.__all__:
        home = importlib.import_module(f"multipoint.{multipoint._HOME[name]}")
        assert getattr(multipoint, name) is getattr(home, name), name
    assert set(multipoint.__all__) <= set(dir(multipoint))
    namespace = {}
    exec("from multipoint import *", namespace)
    assert namespace["signature"] is importlib.import_module("multipoint.formulas").signature


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        multipoint.no_such_name
    assert not hasattr(multipoint, "dataclass")
