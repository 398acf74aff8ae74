"""Every module of the package and of the tests reads each name it imports,
every top-level function and class and every method of the package has a
reader, the README's module table has one row per package module and its
argument table one name per entry check, and its library example runs and
gives the values its comments state."""

import ast
import re
from fractions import Fraction
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
    from conftest import CHECKED_PARAMETERS
    text = (ROOT / "README.md").read_text().split("**Argument checks.**", 1)[1]
    lines = dropwhile(lambda line: not line.startswith("|"), text.splitlines())
    rows = list(takewhile(lambda line: line.startswith("|"), lines))[2:]  # past the header
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(names) == sorted(CHECKED_PARAMETERS)


def test_readme_library_example_gives_its_commented_values():
    text = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, stated, got = block.splitlines(), {}, [], []
    for node in ast.parse(block).body:
        comment = lines[node.lineno - 1].partition("  # ")[2]
        if isinstance(node, ast.Expr) and comment:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            stated.append(comment.split()[0])
            got.append(f"Fraction({value})" if isinstance(value, Fraction) else str(value))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert stated == ["Fraction(1)", "2*h^2", "Fraction(-48)", "Fraction(2)"]
    assert got == stated


# package functions, classes and methods that no code in src/ or
# benchmarks/ reads, each with the reason it stays
UNREAD = {
    "oracle.transfer_to_target_enumerated": "oracle entry point that tests compare against",
    "oracle.double_composition_enumerated": "oracle entry point that tests compare against",
    "partitions.trivial_partition": "partition value that tests build",
    "partitions.universal_partition": "partition value that tests build",
    "partitions.count_by_type_marked": "marked type count that tests compare against",
    "partitions.SetPartition.type_vector": "type vector of a partition that tests compare against",
    "random_models.random_union_components": "random union components that tests build",
    "signatures.zero_warning": "public entry point; the package reads its body, _zero_reason",
    "signatures.transfer_of_unit": "public entry point; herbert reads _closed_form itself",
}


def read_names(tree: ast.AST, outside: ast.AST = None) -> tuple:
    """The names the code of tree reads, less the code of the node outside:
    (loaded names, loaded attributes and strings (a getattr by name))."""
    skip = set(ast.walk(outside)) if outside else set()
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return names, attributes


def unread_definitions(package: dict, readers: list) -> set:
    """The top-level functions and classes and the methods of the modules
    of package ({module name: tree}) that no code reads, as
    "module.name" or "module.Class.method".  Code is every other module
    of package, the trees of readers, and the module itself outside the
    definition.  A method is read only through an attribute or a string:
    a local variable of the same name is not a reader."""
    reads = {name: read_names(tree) for name, tree in package.items()}
    outside = [read_names(tree) for tree in readers]
    unread = set()
    for module, tree in package.items():
        elsewhere = [r for name, r in reads.items() if name != module] + outside
        top = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs = [(f"{module}.{node.name}", node, False) for node in top]
        defs += [(f"{module}.{cls.name}.{node.name}", node, True) for cls in top
                 if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        for qualname, node, method in defs:
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in attributes or not method and name in names
                       for names, attributes in [*elsewhere, read_names(tree, node)]):
                unread.add(qualname)
    return unread


def test_every_package_function_and_class_has_a_reader():
    package = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "multipoint").glob("*.py")}
    readers = [ast.parse(p.read_text()) for p in (ROOT / "benchmarks").glob("*.py")]
    assert unread_definitions(package, readers) == set(UNREAD)


def test_the_reader_scan_skips_the_body_of_the_name_it_reads():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "def g():\n    return getattr(m, 'h')\n")
    names, attributes = read_names(tree, tree.body[0])
    assert "f" not in names | attributes
    assert {"getattr", "m"} <= names and "h" in attributes


def test_a_local_of_a_method_name_does_not_read_the_method():
    # C.size is read as an attribute and C.count through getattr; C.find
    # only shares its name with a local of another method
    source = ("class C:\n"
              "    def size(self):\n        return 1\n"
              "    def count(self):\n        return 2\n"
              "    def find(self):\n        return 3\n"
              "    def check(self):\n"
              "        find = self.size() + getattr(self, 'count')()\n"
              "        return find\n"
              "C().check()\n")
    assert unread_definitions({"mod": ast.parse(source)}, []) == {"mod.C.find"}
    top = "def find():\n    return 3\nfind()\n"
    assert unread_definitions({"mod": ast.parse(top)}, []) == set()


def test_the_declared_python_floor_has_the_int_to_str_digit_limit():
    """graded.exact and its exponent guard call sys.get_int_max_str_digits,
    which CPython has from 3.10.7 (and 3.11.0) on; without it nothing bounds
    the power of ten that Fraction builds for a string like "1e99999999999".
    tomllib is 3.11+ only, so the field is read by a regex."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)(?:\.(\d+))?"$', text, re.M)
    assert floor, "requires-python is not a single >= floor"
    assert tuple(int(g or 0) for g in floor.groups()) >= (3, 10, 7)
