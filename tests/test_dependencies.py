"""The library imports only the standard library and numpy and reads two environment knobs.

Of ``numpy.linalg`` it calls only the Wigner d eigenbasis: the float CG
tensors come from a recurrence, with no eigensolver beside it.

Of the tests, only ``test_oracle`` imports sympy or mpmath, the test-only
oracles of the ``test`` extra.

Exact arithmetic is one module: every exact-valued function lives in
``exact``, next to ``SqrtRational``.  The grid modules ``sht``, ``tsh``
and ``tenprod`` import nothing from it, and from ``angular`` and ``rules``
only names those modules define.  Their coupling weights are the float
entries that ``angular.cg_block`` gathers; path coefficients are ``rules``'.  ``angular`` and
``rules`` name no ``SqrtRational`` or ``Fraction`` and import ``exact``
only inside the module ``__getattr__`` that forwards perfbench's six
exact names.  The runtime cache-miss tests, such as
``test_float_coefficients_evaluate_no_exact_symbol``, stay the dynamic
cross-check.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _relative_imports(path: Path):
    """(module, name) of every name a module imports from within the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield from ((node.module, alias.name) for alias in node.names)


def _top_level_names(path: Path) -> set:
    """Names a module binds by its own top-level statements."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_grid_modules_import_no_exact_valued_function():
    # a name forwarded by a module __getattr__ is not defined there, so this
    # also keeps the grid modules off the forwarders
    package = Path(so3tp.__file__).parent
    defined = {module: _top_level_names(package / f"{module}.py") for module in ("angular", "rules")}
    found = {(name, module, alias) for name in ("sht.py", "tsh.py", "tenprod.py")
             for module, alias in _relative_imports(package / name)
             if module == "exact" or (module is None and alias == "exact")
             or (module in defined and alias not in defined[module])}
    assert found == set()


@pytest.mark.parametrize("name", ["angular.py", "rules.py"])
def test_float_modules_hold_no_exact_arithmetic(name):
    path = Path(so3tp.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert named & {"SqrtRational", "Fraction"} == set()
    # the module __getattr__ imports exact in its body, never at module level
    top_level = {(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
    assert {pair for pair in top_level if "exact" in pair} == set()


def test_import_direction_holds_in_a_fresh_interpreter():
    src = str(Path(so3tp.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", "import so3tp.exact; "
                           "from so3tp.rules import generalized_gaunt_exact"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_names_forward_to_exact():
    from so3tp import angular, exact, rules

    for module, names in ((angular, ("cg", "cg_float", "cg_zero", "wigner_9j")),
                          (rules, ("generalized_gaunt", "generalized_gaunt_exact"))):
        for name in names:
            assert getattr(module, name) is getattr(exact, name)
    assert angular.cg.cache_info().maxsize == 65536
    assert rules.generalized_gaunt_exact.cache_info().maxsize == 1024
    for module, name in ((angular, "_wigner_9j_cached"), (angular, "not_a_name"),
                         (rules, "gaunt_coefficient"), (rules, "SqrtRational")):
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)


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


class _LinalgUses(_EnvironmentReads):
    """Names of the functions (or ``<module>``) that reach ``numpy.linalg``."""

    def visit_Attribute(self, node):
        if node.attr == "linalg":
            self.found.append(self.scope[-1])
        self.generic_visit(node)

    def visit_Import(self, node):
        if any(alias.name.startswith("numpy.linalg") for alias in node.names):
            self.found.append(self.scope[-1])

    def visit_ImportFrom(self, node):
        if (node.module or "").startswith("numpy.linalg") \
                or (node.module == "numpy" and any(a.name == "linalg" for a in node.names)):
            self.found.append(self.scope[-1])


def test_only_the_wigner_d_eigenbasis_calls_numpy_linalg():
    # the float CG tensors come from a recurrence in j3: one float CG path,
    # with no eigensolver beside it
    uses = set()
    for path in sorted(Path(so3tp.__file__).parent.rglob("*.py")):
        visitor = _LinalgUses()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        uses |= {(path.name, scope) for scope in visitor.found}
    assert uses == {("angular.py", "_jy_eigenvectors")}


class _ConcatenateUses(_EnvironmentReads):
    """Names of the functions (or ``<module>``) that name ``concatenate``."""

    def visit_Attribute(self, node):
        if node.attr == "concatenate":
            self.found.append(self.scope[-1])
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "concatenate":
            self.found.append(self.scope[-1])

    def visit_ImportFrom(self, node):
        if any(alias.name == "concatenate" for alias in node.names):
            self.found.append(self.scope[-1])


def test_only_the_block_packer_concatenates_in_the_grid_modules():
    # ``sht._Blocks._layout`` is the one code that lays out a block set for
    # a kernel: ``tenprod`` and ``tsh`` concatenate nothing
    package = Path(so3tp.__file__).parent
    uses = set()
    for name in ("sht.py", "tsh.py", "tenprod.py"):
        visitor = _ConcatenateUses()
        visitor.visit(ast.parse((package / name).read_text(), filename=name))
        uses |= {(name, scope) for scope in visitor.found}
    assert uses == {("sht.py", "_layout")}
