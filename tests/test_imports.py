"""Every name a package module imports is used in that module.

Standard library only: each src/loglimit/*.py but __init__.py (which
re-exports) is parsed with ast, and an imported name that the module never
reads fails, unless its import line carries `noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "loglimit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The imported names of `source` that it never reads, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_module_is_checked():
    assert len(MODULES) >= 8 and SRC / "flow.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_catches_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom sys import argv  # noqa: F401\nprint(sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]
