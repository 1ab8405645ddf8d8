"""Tests for the verification suite runner."""

import re
import zlib

import numpy as np
import pytest

from so3tp import angular, exact, verify

# The tolerance contract: every check's name and tolerance, in run order.
# 0.0 marks an exact-arithmetic or count check that yields 1.0 per failure.
TOLERANCES = {
    "cg_orthogonality": 0.0,
    "cg_reorder_symmetry": 0.0,
    "cg_block_vs_exact": 1e-13,
    "wigner_d_unitarity": 1e-12,
    "wigner_d_product": 1e-10,
    "nine_j_table": 1e-12,
    "nine_j_row_swap": 0.0,
    "sh_orthonormality": 1e-12,
    "scalar_round_trip": 1e-12,
    "d_to_sh_reduction": 1e-10,
    "gaunt_vs_quadrature": 1e-11,
    "to_sphere_equivariance": 1e-10,
    "tsh_round_trip": 1e-12,
    "tsh_orthonormality": 1e-12,
    "tsh_equivariance": 1e-10,
    "tsh_eval_spin0": 1e-14,
    "tsh_product_expansion": 1e-10,
    "gtp_gaunt_formula": 1e-11,
    "gtp_symmetry": 1e-13,
    "vstp_antisymmetry": 1e-12,
    "cgtp_simulation": 1e-10,
    "tpo_equivariance": 1e-10,
    "tpo_bilinearity": 1e-12,
    "cgtp_flop_counts": 0.0,
    "selection_rule_iff": 0.0,
    "ell_assignment": 0.0,
    "interactable": 0.0,
    "gtp_exclusion": 0.0,
    "expressivity": 0.0,
    "bench_flops_sanity": 0.0,
    "mimo_scaling_slopes": 0.0,
    "cgtp_simulation_scaling": 0.0,
}


def test_tolerances_pinned():
    assert verify.CHECK_NAMES == list(TOLERANCES)
    assert {name: tol for name, _fn, tol, _presets in verify._CHECKS} == TOLERANCES


def _fake_check(pairs, summary=None, draws=None):
    def check(p, rng):
        if draws is not None:
            draws.append(rng.random())
        yield from pairs
        return summary
    return check


def test_runner_picks_worst_case_and_summary(monkeypatch):
    both = {"quick": {}, "full": {}}
    draws = []
    monkeypatch.setattr(verify, "_CHECKS", [
        ("ties_keep_first", _fake_check(
            [(0.5, "a"), (np.float64(2.0), "first"), (2.0, "second"), (1.0, "c")],
            draws=draws), 3.0, both),
        ("summary_unused", _fake_check([(0.0, "zero"), (1e-3, "hit")], "all good"), 1e-2, both),
        ("summary_used", _fake_check([(0.0, "zero"), (0.0, "also zero")], "all good"), 0.0, both),
        ("nothing_yielded", _fake_check([]), 0.0, both),
        ("nan_fails", _fake_check([(1.0, "a"), (float("nan"), "nan"), (5.0, "b")], "s"),
         10.0, both),
        ("over_tolerance", _fake_check([(0.2, "too far")]), 0.1, both),
        ("full_only", _fake_check([(9.0, "x")]), 0.0, {"quick": None, "full": {}}),
    ])
    results, ok = verify.run_verify("quick", seed=5)
    assert not ok
    got = {r.name: (r.max_dev, r.worst_case, r.passed) for r in results}
    assert list(got) == ["ties_keep_first", "summary_unused", "summary_used",
                         "nothing_yielded", "nan_fails", "over_tolerance"]
    assert got["ties_keep_first"] == (2.0, "first", True)
    assert type(results[0].max_dev) is float
    assert got["summary_unused"] == (1e-3, "hit", True)
    assert got["summary_used"] == (0.0, "all good", True)
    assert got["nothing_yielded"] == (0.0, "", True)
    assert np.isnan(got["nan_fails"][0]) and got["nan_fails"][1:] == ("nan", False)
    assert got["over_tolerance"] == (0.2, "too far", False)
    assert all(r.seconds >= 0.0 for r in results)
    seeded = np.random.default_rng([5, zlib.crc32(b"ties_keep_first")])
    assert draws == [seeded.random()]


def test_only_rejects_unknown_names():
    with pytest.raises(ValueError, match="sh_orthonormalty"):
        verify.run_verify("quick", only=["sh_orthonormality", "sh_orthonormalty"])


def test_only_rejects_a_bare_string():
    # a string is a collection of letters, not of check names
    with pytest.raises(ValueError, match="only takes a collection of check names"):
        verify.run_verify("quick", only="cg_orthogonality")


def test_only_skips_full_only_check_at_quick():
    assert verify.run_verify("quick", only=["mimo_scaling_slopes"]) == ([], True)


def test_sh_orthonormality_case_prints_plain_ints():
    results, _ = verify.run_verify("quick", only=["sh_orthonormality"])
    assert re.fullmatch(r"basis pair \(\d+, \d+\)", results[0].worst_case)


# Each invariant has one implementation, its check; the unit tests do not
# restate it.  Every check with a quick preset runs here as its own case,
# and test_acceptance runs them all at full.
QUICK_CHECKS = [name for name, _fn, _tol, presets in verify._CHECKS
                if presets["quick"] is not None]


def test_quick_skips_only_the_scaling_gates():
    assert set(verify.CHECK_NAMES) - set(QUICK_CHECKS) == {"mimo_scaling_slopes",
                                                           "cgtp_simulation_scaling"}


@pytest.mark.parametrize("name", QUICK_CHECKS)
def test_quick_check_passes(name):
    results, ok = verify.run_verify("quick", seed=0, only=[name])
    [r] = results
    assert ok and r.name == name, (r.max_dev, r.worst_case)


def test_deterministic_given_seed():
    r1, _ = verify.run_verify("quick", seed=3, only=["tpo_equivariance"])
    r2, _ = verify.run_verify("quick", seed=3, only=["tpo_equivariance"])
    assert r1[0].max_dev == r2[0].max_dev


def test_only_filter():
    results, ok = verify.run_verify("quick", only=["sh_orthonormality"])
    assert ok and len(results) == 1
    assert results[0].name == "sh_orthonormality"


def test_invalid_level_rejected():
    with pytest.raises(ValueError):
        verify.run_verify("medium")


def test_report_formatting():
    results, _ = verify.run_verify("quick", only=["sh_orthonormality", "gtp_symmetry"])
    text = verify.format_report(results, "quick")
    assert "verification level: quick" in text
    assert "2/2 checks passed" in text
    assert "PASS" in text


def test_report_prints_failing_case():
    results, _ = verify.run_verify("quick", only=["sh_orthonormality"])
    results[0].passed = False
    results[0].worst_case = "synthetic failure"
    text = verify.format_report(results, "quick")
    assert "FAIL" in text and "synthetic failure" in text


def test_fault_injection_in_nine_j(monkeypatch):
    # corrupting the fast path must break the table-vs-exact-9j check
    from so3tp import angular

    real = angular.wigner_9j_spin1

    def corrupted(a, lam, b, mu, c, nu):
        v = real(a, lam, b, mu, c, nu)
        return v + 1e-6 if (a, b, c) == (1, 1, 1) and (lam, mu, nu) == (1, 1, 1) else v

    monkeypatch.setattr(angular, "wigner_9j_spin1", corrupted)
    results, ok = verify.run_verify("quick", only=["nine_j_table"])
    assert not ok
    assert "(1,1,1)" in results[0].worst_case.replace(" ", "")


def test_interactable_evaluates_no_exact_coefficient():
    # the check needs only the rule flags, not the exact 9j behind each coefficient
    exact.generalized_gaunt_exact.cache_clear()
    exact._wigner_9j_cached.cache_clear()
    results, ok = verify.run_verify("quick", only=["interactable"])
    assert ok and [r.name for r in results] == ["interactable"]
    assert exact._wigner_9j_cached.cache_info().misses == 0
