"""What a fresh interpreter loads: the package exports lazily, a
bundled-model compute never compiles the model-file reader, the oracle,
the partitions, the random models or the series algebra, nor imports
dataclasses, and a validate compiles no formula.  The names the benchmark
harness reads keep resolving wherever their code lives."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multipoint

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
    assert "multipoint.formulas" in loaded
    for name in ("oracle", "modelfile", "series", "partitions", "random_models"):
        assert f"multipoint.{name}" not in loaded, name
    for name in ("dataclasses", "inspect"):
        assert name in bare or name not in loaded, name


def test_bundled_validate_loads_no_formula():
    loaded = _loaded_modules(
        "from multipoint import cli\n"
        "assert cli.main(['validate', 'line-in-plane']) == 0")
    assert "multipoint.model" in loaded
    for name in ("formulas", "collected", "partitions", "random_models"):
        assert f"multipoint.{name}" not in loaded, name


# module -> {name: the module that defines it}, for each module attribute
# the benchmark harness (workloads, reference and tracer) reads
HARNESS_READS = {
    "models": {"random_truncated_model": "random_models", "BUNDLED": "models",
               "bundled_model": "models", "truncated_polynomial_ring": "models"},
    "graded": {"cross": "graded"},
    "formulas": {"_characteristic_number": "formulas", "cross": "graded"},
    "partitions": {"all_partitions": "partitions", "type_vectors": "partitions",
                   "marked_type_vectors": "partitions", "log_coefficient": "polynomials"},
    "series": {"log_coefficient": "polynomials"},
}


def test_names_the_benchmark_reads_resolve_to_their_home():
    for module, names in HARNESS_READS.items():
        mod = importlib.import_module(f"multipoint.{module}")
        for name, home in names.items():
            value = getattr(importlib.import_module(f"multipoint.{home}"), name)
            assert getattr(mod, name) is value, (module, name)
    with pytest.raises(AttributeError, match="no_such_model"):
        importlib.import_module("multipoint.models").no_such_model


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
