"""Every module of the package and of the tests reads each name it imports,
and the README's module table has one row per package module."""

import ast
import re
from itertools import takewhile
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
