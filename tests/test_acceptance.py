"""Acceptance gate: every criterion at its stated tolerance.

The criteria map onto the ``full`` presets of the verification suite,
which exist precisely at these bounds; the whole suite runs once per
session and each criterion asserts on its named checks.  One pass/fail
line prints per criterion (visible with ``pytest -s``).
"""

import time

import pytest

from so3tp.verify import run_verify

CRITERIA = {
    1: ("generalized Gaunt formula: single-block grid products vs closed form, "
        "j,l <= 3, s <= 1, 1e-10", ["tsh_product_expansion"]),
    2: ("selection-rule iff: flags <=> exact nonzero coefficient, exhaustive "
        "j,l <= 6", ["selection_rule_iff"]),
    3: ("completeness: valid nonzero orbital assignment for every triangle "
        "j <= 10", ["ell_assignment"]),
    4: ("CGTP simulation via one vector-signal product, all triangles j <= 4, "
        "20 pairs, 1e-10", ["cgtp_simulation"]),
    5: ("equivariance of all tensor product operations, 10 rotations, L <= 4, "
        "1e-10", ["tpo_equivariance"]),
    6: ("MIMO flop scaling slopes over L in {8,16,32} and simulation scaling "
        "within 0.5 of L^5", ["mimo_scaling_slopes", "cgtp_simulation_scaling"]),
    7: ("transform exactness: round trips to 1e-12 (scalar and spin <= 2, "
        "L <= 32), orthonormality to 1e-12 (L <= 8)",
        ["scalar_round_trip", "tsh_round_trip", "sh_orthonormality",
         "tsh_orthonormality"]),
    8: ("exact 9j vs spin-1 closed forms, all grids a,b,c <= 6, 1e-12",
        ["nine_j_table"]),
}

RUNTIME_CAPS = {"tsh_product_expansion": 120.0, "selection_rule_iff": 300.0}


@pytest.fixture(scope="session")
def full_run():
    t0 = time.perf_counter()
    results, ok = run_verify("full", seed=0)
    elapsed = time.perf_counter() - t0
    return {r.name: r for r in results}, ok, elapsed


def report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {CRITERIA.get(n, ('', 0))[0]}"
    if detail:
        line += f" [{detail}]"
    print(line)


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(criterion, full_run):
    by_name, _ok, _elapsed = full_run
    text, names = CRITERIA[criterion]
    checks = [by_name[name] for name in names]
    ok = all(c.passed for c in checks)
    detail = "; ".join(f"{c.name}: max_dev={c.max_dev:.2e} tol={c.tolerance:.0e} "
                       f"({c.seconds:.1f}s)" for c in checks)
    report(criterion, ok, detail)
    for c in checks:
        assert c.passed, f"criterion {criterion}: {c.name} worst case {c.worst_case}"
        cap = RUNTIME_CAPS.get(c.name)
        if cap is not None:
            assert c.seconds <= cap, f"{c.name} took {c.seconds:.1f}s > {cap}s"


def test_criterion_9_runtimes(full_run):
    _by_name, ok, full_elapsed = full_run
    t0 = time.perf_counter()
    _results, quick_ok = run_verify("quick", seed=0)
    quick_elapsed = time.perf_counter() - t0
    passed = quick_ok and ok and quick_elapsed <= 60.0 and full_elapsed <= 900.0
    report(9, passed, f"quick {quick_elapsed:.1f}s (cap 60s), "
                      f"full {full_elapsed:.1f}s (cap 900s)")
    assert quick_ok and quick_elapsed <= 60.0, f"quick took {quick_elapsed:.1f}s"
    assert ok and full_elapsed <= 900.0, f"full took {full_elapsed:.1f}s"
