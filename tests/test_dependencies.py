"""The library imports only the standard library and numpy."""

import ast
import sys
from pathlib import Path

import so3tp

_ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path: Path):
    """Top-level package names of every absolute import in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    modules = sorted(Path(so3tp.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    found = {(path.name, name) for path in modules for name in _absolute_imports(path)
             if name not in _ALLOWED}
    assert found == set()
