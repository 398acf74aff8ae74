"""Every module of the package and of the tests reads each name it imports,
every top-level function and class of the package has a reader, and the
README's module table has one row per package module and its argument
table one name per entry check."""

import ast
import re
from itertools import dropwhile, takewhile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "multipoint").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str):
    """(line, name) of each imported name the module never reads;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "from functools import lru_cache, reduce\n"
              "import os.path\n"
              "reduce(max, [os.path.sep])\n")
    assert unused_imports(source) == [(2, "lru_cache")]


def test_readme_module_table_has_one_row_per_module():
    text = (ROOT / "README.md").read_text().split("Key modules:", 1)[1]
    table = takewhile(lambda line: line.startswith("|"), text.strip().splitlines())
    rows = [m.group(1) for line in table if (m := re.match(r"\| `multipoint\.(\w+)` \|", line))]
    modules = [p.stem for p in (ROOT / "src" / "multipoint").glob("*.py") if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_readme_argument_table_names_every_entry_check():
    from multipoint.signatures import _ENTRY_CHECKS
    text = (ROOT / "README.md").read_text().split("**Argument checks.**", 1)[1]
    lines = dropwhile(lambda line: not line.startswith("|"), text.splitlines())
    rows = list(takewhile(lambda line: line.startswith("|"), lines))[2:]  # past the header
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(names) == sorted(_ENTRY_CHECKS)


# package functions and classes that no code in src/ or benchmarks/ reads,
# each with the reason it stays
UNREAD = {
    "formulas.euler_zero": "special-case evaluator, kept until auto runs the special cases",
    "formulas.nullhomotopic": "special-case evaluator, kept until auto runs the special cases",
    "formulas.pulled_from_target": "special-case evaluator, kept until auto runs the special cases",
    "formulas.pulled_from_target_class":
        "special-case evaluator, kept until auto runs the special cases",
    "oracle.transfer_to_target_enumerated": "oracle entry point that tests compare against",
    "oracle.double_composition_enumerated": "oracle entry point that tests compare against",
    "partitions.trivial_partition": "partition value that tests build",
    "partitions.universal_partition": "partition value that tests build",
    "partitions.count_by_type_marked": "marked type count that tests compare against",
    "random_models.random_union_components": "random union components that tests build",
}


def read_names(tree: ast.AST, outside: ast.AST = None) -> set:
    """The names the code of tree reads, less the code of the node outside:
    loaded names and attributes, and strings (a getattr by name)."""
    skip = set(ast.walk(outside)) if outside else set()
    read = set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_every_package_function_and_class_has_a_reader():
    files = [*(ROOT / "src" / "multipoint").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    trees = {p: ast.parse(p.read_text()) for p in files}
    reads = {p: read_names(tree) for p, tree in trees.items()}
    unread = set()
    for path, tree in trees.items():
        if path.parent.name != "multipoint":
            continue
        elsewhere = set().union(*(r for p, r in reads.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name in elsewhere or name in read_names(tree, node)):
                continue
            unread.add(f"{path.stem}.{name}")
    assert unread == set(UNREAD)


def test_the_reader_scan_skips_the_body_of_the_name_it_reads():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "def g():\n    return getattr(m, 'h')\n")
    assert "f" not in read_names(tree, tree.body[0])
    assert {"getattr", "m", "h"} <= read_names(tree, tree.body[0])


def test_the_declared_python_floor_has_the_int_to_str_digit_limit():
    """graded.exact and its exponent guard call sys.get_int_max_str_digits,
    which CPython has from 3.10.7 (and 3.11.0) on; without it nothing bounds
    the power of ten that Fraction builds for a string like "1e99999999999".
    tomllib is 3.11+ only, so the field is read by a regex."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)(?:\.(\d+))?"$', text, re.M)
    assert floor, "requires-python is not a single >= floor"
    assert tuple(int(g or 0) for g in floor.groups()) >= (3, 10, 7)
