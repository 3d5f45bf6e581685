"""Every name a package module imports is used in that module, and every
private module-level name is used somewhere in the package.

Standard library only: each src/loglimit/*.py but __init__.py (which
re-exports) is parsed with ast, and an imported name that the module never
reads fails, unless its import line carries `noqa: F401`.  Such a line
exists only to keep a name bound for the benchmark's call tracer, so each
name it imports must be an attribute of that module that the tracer wraps
(an entry of PATCHES in perfbench/tracing.py, which is parsed, not
imported), and one that the module reads fails as a stale marker: a
tracer-only binding that became a real call loses its `noqa`.  A
module-level function, class or constant whose name starts with one
underscore fails when no module of src/loglimit reads that name outside
the statement that defines it: a helper that a refactor left behind.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "loglimit"
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imports(source: str) -> tuple[list[tuple[str, int, bool]], set[str]]:
    """(name, line, whether the line carries `noqa: F401`) of each name that
    `source` imports, __future__ features aside, and the names it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((name, alias.lineno, "noqa: F401" in lines[alias.lineno - 1]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, used


def unused_imports(source: str) -> list[str]:
    """The imported names of `source` that it never reads, with their lines;
    `noqa: F401` lines aside."""
    imported, used = _imports(source)
    return [f"{name} (line {line})" for name, line, noqa in imported
            if not noqa and name not in used]


def stale_noqa_imports(source: str) -> list[str]:
    """The names imported on the `noqa: F401` lines of `source` that it also
    reads, with their lines."""
    imported, used = _imports(source)
    return [f"{name} (line {line})" for name, line, noqa in imported if noqa and name in used]


def traced_attributes(source: str) -> set[tuple[str, str]]:
    """The (dotted owner, attribute) pairs of the PATCHES tuple in `source`:
    the first two strings of each of its entries."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCHES" for t in stmt.targets):
            return {(entry.elts[0].value, entry.elts[1].value) for entry in stmt.value.elts}
    raise ValueError("no PATCHES assignment")


def untraced_noqa_imports(module: str, source: str, traced: set[tuple[str, str]]) -> list[str]:
    """The names imported on the `noqa: F401` lines of loglimit.<module>,
    whose source is `source`, that no (owner, attribute) pair of `traced`
    wraps as loglimit.<module>.<name>, with their lines."""
    imported, _ = _imports(source)
    return [f"{name} (line {line})" for name, line, noqa in imported
            if noqa and (f"loglimit.{module}", name) not in traced]


def _read_names(node: ast.AST) -> set[str]:
    """The names that node reads, bare (`_f`) or as attributes (`grid._f`)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (one leading underscore) defined in
    sources, module name -> source, that no top-level statement of any of
    them reads other than the one defining the name, as 'module.name'."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    reads = [_read_names(stmt) for _, stmt in statements]
    unreferenced = []
    for k, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in r for j, r in enumerate(reads) if j != k)):
                unreferenced.append(f"{module}.{name}")
    return unreferenced


def test_every_module_is_checked():
    assert len(MODULES) >= 8 and SRC / "flow.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_noqa_imports_are_traced(path):
    traced = traced_attributes(TRACING.read_text())
    assert untraced_noqa_imports(path.stem, path.read_text(), traced) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_stale_noqa_import(path):
    assert stale_noqa_imports(path.read_text()) == []


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unreferenced_private_names(sources) == []


def test_guard_catches_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom sys import argv  # noqa: F401\nprint(sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]


def test_guard_catches_a_stale_noqa_import():
    # gap_l2 is called, so its marker is stale; a stays a tracer-only binding,
    # and b, read only as another object's attribute, is not read either
    source = ("from .flow import gap_l2  # noqa: F401\nfrom .grid import (\n"
              "    a,  # noqa: F401\n    b,  # noqa: F401\n)\nimport os\n"
              "def f(s, e):\n    return gap_l2(s, e) + os.b\n")
    assert stale_noqa_imports(source) == ["gap_l2 (line 1)"]
    assert unused_imports(source) == []


def test_guard_catches_an_untraced_noqa_import():
    # b is kept bound for no tracer entry; c's entry wraps another module
    tracing = ('PATCHES = (\n    ("loglimit.m", "a", "x.a", None),\n'
               '    ("loglimit.other", "c", "x.c", _tag),\n)\n')
    traced = traced_attributes(tracing)
    assert traced == {("loglimit.m", "a"), ("loglimit.other", "c")}
    source = ("from .grid import a  # noqa: F401\nfrom .norms import (\n"
              "    b,  # noqa: F401\n    c,  # noqa: F401\n    d,\n)\nprint(d)\n")
    assert untraced_noqa_imports("m", source, traced) == ["b (line 3)", "c (line 4)"]


def test_guard_catches_an_unreferenced_private_name():
    # _dead only calls itself; _Old, read by _dead alone, passes until _dead
    # goes; _LIMIT and _used are read in the other module; public names pass
    sources = {
        "a": "_LIMIT: int = 3\n_SCALE = 2\n_y = 0\nclass _Old:\n    pass\n"
             "def _dead(k):\n    return _dead(k - 1) if k else _Old\n"
             "def _used():\n    return 1\ndef public():\n    return 2\n",
        "b": "import a\nfrom a import _used\n_y = 1\n"
             "def f():\n    return _used() + a._LIMIT\n",
    }
    assert unreferenced_private_names(sources) == ["a._SCALE", "a._y", "a._dead", "b._y"]
