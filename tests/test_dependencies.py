"""The library imports only the standard library and numpy and reads two environment knobs.

Of the tests, only ``test_oracle`` imports sympy or mpmath, the test-only
oracles of the ``test`` extra.

The grid modules ``sht``, ``tsh`` and ``tenprod`` import no exact-valued
function: nothing from ``exact`` and no exact CG or 9j from ``angular``.
Their coupling weights are the float ``angular.cg_block``; path
coefficients are ``rules``'.
"""

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


def _skip_imports(path: Path):
    """Top-level package names of every ``pytest.importorskip("name")`` in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip" \
                and node.args and isinstance(node.args[0], ast.Constant):
            yield node.args[0].value.split(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    modules = sorted(Path(so3tp.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    found = {(path.name, name) for path in modules for name in _absolute_imports(path)
             if name not in _ALLOWED}
    assert found == set()


def test_only_the_oracle_tests_import_sympy_or_mpmath():
    # sympy and mpmath are test-only oracles: the library never imports them,
    # and of the tests only the oracle module does
    root = Path(__file__).resolve().parent.parent
    tests = sorted((root / "tests").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    assert len(tests) > 10
    found = {path.relative_to(root).as_posix() for path in tests
             if {"sympy", "mpmath"} & (set(_absolute_imports(path)) | set(_skip_imports(path)))}
    assert found == {"tests/test_oracle.py"}


_EXACT_VALUED = {"cg", "cg_float", "cg_zero", "wigner_9j", "wigner_9j_spin1"}


def _relative_imports(path: Path):
    """(module, name) of every name a module imports from within the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield from ((node.module, alias.name) for alias in node.names)


def test_grid_modules_import_no_exact_valued_function():
    package = Path(so3tp.__file__).parent
    found = {(name, module, alias) for name in ("sht.py", "tsh.py", "tenprod.py")
             for module, alias in _relative_imports(package / name)
             if module == "exact" or (module is None and alias == "exact")
             or (module == "angular" and alias in _EXACT_VALUED)}
    assert found == set()


class _EnvironmentReads(ast.NodeVisitor):
    """Names of the functions (or ``<module>``) that touch os.environ or os.getenv."""

    def __init__(self):
        self.scope, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "os" \
                and node.attr in ("environ", "getenv"):
            self.found.append(self.scope[-1])
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "os" and any(a.name in ("environ", "getenv") for a in node.names):
            self.found.append(self.scope[-1])


def test_environment_is_read_only_for_the_budget_and_the_reported_threads():
    # a new environment knob must be added here on purpose
    reads = set()
    for path in sorted(Path(so3tp.__file__).parent.rglob("*.py")):
        visitor = _EnvironmentReads()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        reads |= {(path.name, scope) for scope in visitor.found}
    assert reads == {("bench.py", "run_bench"), ("cli.py", "_environment")}
