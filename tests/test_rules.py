"""Tests for selection rules, ell assignment, and expressivity counting."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3tp import exact, rules
from so3tp.angular import triangle_delta
from so3tp.rules import (
    NotInteractable,
    PathKey,
    RuleReport,
    TriangleViolation,
    expressivity_count,
    find_pair_ells,
    find_valid_ells,
    interactable,
    vstp_rule_flags,
    vstp_rules,
)
from so3tp.exact import cg_float, gaunt_coefficient, generalized_gaunt, generalized_gaunt_exact
from so3tp.tenprod import simulate_cgtp_path


# ---------------------------------------------------------------- coefficient

def test_generalized_gaunt_reduces_to_classical():
    # all-spin-zero paths reduce to the classical Gaunt prefactor times C^{l3,0}
    for l1, l2, l3 in [(0, 0, 0), (1, 1, 2), (2, 2, 2), (0, 1, 1), (3, 3, 4)]:
        gg = generalized_gaunt(PathKey(l1, l1, 0, l2, l2, 0, l3, l3, 0))
        expect = (math.sqrt((2 * l1 + 1) * (2 * l2 + 1) / (4 * math.pi * (2 * l3 + 1)))
                  * cg_float(l1, 0, l2, 0, l3, 0))
        assert gg == pytest.approx(expect, abs=1e-14)
        # consistency with the triple-product integral
        if cg_float(l1, 0, l2, 0, l3, 0):
            ratio = gaunt_coefficient(l1, 0, l2, 0, l3, 0) / cg_float(l1, 0, l2, 0, l3, 0)
            assert gg == pytest.approx(ratio, abs=1e-14)


def test_generalized_gaunt_odd_path_vanishes():
    assert generalized_gaunt(PathKey(1, 1, 1, 1, 1, 1, 1, 1, 1)) == 0.0
    assert generalized_gaunt_exact(PathKey(1, 1, 1, 1, 1, 1, 1, 1, 1)).is_zero()


def test_generalized_gaunt_requires_full_key():
    with pytest.raises(ValueError):
        generalized_gaunt(PathKey(1, None, None, 1, None, None, 1, None, None))


# ---------------------------------------------------------------- rule flags

def test_rule_examples():
    r = vstp_rules(PathKey(1, 0, 1, 1, 1, 1, 1, 1, 1))
    assert r.passed and abs(r.coefficient) > 0
    r = vstp_rules(PathKey(1, 1, 1, 1, 1, 1, 1, 1, 1))
    assert not r.passed and not r.r4 and not r.r5 and r.r1 and r.r2 and r.r3
    r = vstp_rules(PathKey(2, 2, 1, 1, 1, 1, 1, 1, 1))
    assert not r.passed and not r.r5


def test_rule_report_is_a_frozen_dataclass():
    # vstp_rules builds its reports unchecked; they keep the class's contract
    report = vstp_rules(PathKey(1, 0, 1, 1, 1, 1, 1, 1, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.passed = False
    same = RuleReport(**{f.name: getattr(report, f.name) for f in dataclasses.fields(RuleReport)})
    assert report == same and hash(report) == hash(same) and repr(report) == repr(same)
    flipped = dataclasses.replace(report, r5=False)
    assert flipped.r5 is False and flipped.coefficient == report.coefficient and report.r5


def test_rule_rejects_non_unit_spins():
    with pytest.raises(ValueError):
        vstp_rules(PathKey(1, 1, 0, 1, 1, 0, 1, 1, 0))


def test_rule_rejects_none_spins():
    # a key carries all nine labels; a missing spin is not read as 1
    with pytest.raises(ValueError, match="spin-"):
        vstp_rules(PathKey(1, 0, None, 1, 1, None, 1, 1, None))


def test_all_diagonal_distinct_paths_vanish():
    # fully diagonal paths with distinct degrees: every pairwise pattern
    # passes, but the coupling vanishes by column-swap antisymmetry
    for js in [(1, 2, 3), (2, 3, 4), (1, 3, 4)]:
        p = PathKey(js[0], js[0], 1, js[1], js[1], 1, js[2], js[2], 1)
        r = vstp_rules(p)
        assert not r.r5 and not r.passed
        assert generalized_gaunt_exact(p).is_zero()


def test_rule_iff_exhaustive_small():
    # flags <=> exact nonzero coefficient, exhaustive over j, l <= 3
    for j1, l1, j2, l2, j3, l3 in itertools.product(range(4), repeat=6):
        p = PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1)
        rep = vstp_rules(p)
        nz = not generalized_gaunt_exact(p).is_zero()
        assert rep.passed == nz, p
        assert rep.passed == (abs(rep.coefficient) > 0), p


COEFFICIENT_RTOL = 1e-15  # vstp_rules' stated accuracy against exact arithmetic


def _same_float(a: float, b: float) -> bool:
    """Bit-for-bit equality, so 0.0 and -0.0 differ."""
    return a.hex() == b.hex()


def _coefficient_error(path):
    """Relative error of vstp_rules' float coefficient against exact arithmetic.

    The coefficient must be 0.0 exactly where the exact value is zero, and
    ``_path_coefficient``'s float bit for bit, sign of a zero included,
    where every row is a triangle (r1); +0.0 otherwise.
    """
    got = vstp_rules(path).coefficient
    j1, l1, _, j2, l2, _, j3, l3, _ = path
    if triangle_delta(j1, l1, 1) and triangle_delta(j2, l2, 1) and triangle_delta(j3, l3, 1):
        assert _same_float(got, rules._path_coefficient.__wrapped__(j1, l1, j2, l2, j3, l3)), path
    else:
        assert _same_float(got, 0.0), path
    exact = generalized_gaunt_exact(path)
    if exact.is_zero():
        assert got == 0.0, path
        return 0.0
    want = float(exact) / math.sqrt(4.0 * math.pi)
    return abs(got - want) / abs(want)


def test_vstp_rules_coefficient_matches_exact_on_every_path_to_degree_6():
    worst = max(_coefficient_error(PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1))
                for j1, l1, j2, l2, j3, l3 in itertools.product(range(7), repeat=6))
    assert 0.0 < worst <= COEFFICIENT_RTOL


def test_vstp_rules_takes_numpy_labels_where_int64_products_overflow():
    # the 9j radicand's integer products exceed int64 near degree 130
    for js in [(128, 129, 130), (130, 130, 129), (129, 128, 128)]:
        ls = find_valid_ells(*js)
        labels = (js[0], ls[0], 1, js[1], ls[1], 1, js[2], ls[2], 1)
        rep = vstp_rules(PathKey(*map(np.int64, labels)))
        assert rep == vstp_rules(PathKey(*labels)) and rep.passed
        want = rules._path_coefficient.__wrapped__(js[0], ls[0], js[1], ls[1], js[2], ls[2])
        assert _same_float(rep.coefficient, want)


@pytest.mark.parametrize("degree", [64, 128])
def test_vstp_rules_coefficient_matches_exact_at_high_degree(degree):
    # a seeded sample of paths whose rows are all triangles, near the degree
    rng = np.random.default_rng(degree)
    paths = []
    while len(paths) < 12:
        j1, j2 = degree, int(rng.integers(degree // 2, degree + 1))
        j3 = int(rng.integers(j1 - j2, degree + 1))
        l1, l2, l3 = (j + int(rng.integers(-1, 2)) for j in (j1, j2, j3))
        paths.append(PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1))
    assert sum(vstp_rules(p).passed for p in paths) >= 3
    assert max(map(_coefficient_error, paths)) <= COEFFICIENT_RTOL


def test_vstp_rules_rejects_negative_and_non_integer_labels():
    for bad, message in [(PathKey(1, 0, 1, 1, -1, 1, 1, 1, 1), "non-negative"),
                         (PathKey(5, 0, 1, -1, 1, 1, 1, 1, 1), "non-negative"),
                         (PathKey(1, 1, 1, 1, 1, 1, -1, 0, 1), "non-negative"),
                         (PathKey(1, 1, 1, 1, 1, 1, 1, -1, 1), "non-negative"),
                         (PathKey(1, 0, 1, 1, 1.5, 1, 1, 1, 1), r"l2=1\.5 must be an integer"),
                         (PathKey(1, 0, 1.0, 1, 1, 1, 1, 1, 1), r"s1=1\.0 must be an integer")]:
        with pytest.raises(ValueError, match=message):
            vstp_rules(bad)
    for js, ls in [((1, 1, 1), (1, 1, -1)), ((-1, 1, 1), (0, 1, 1)), ((2, 1, 2), (2, -1, 1))]:
        with pytest.raises(ValueError, match="non-negative"):
            vstp_rule_flags(js, ls)


def test_float_coefficients_evaluate_no_exact_symbol(rng):
    # vstp_rules on fresh paths and a cold simulate_cgtp_path reach no exact
    # CG, 9j or generalized Gaunt value, and vstp_rules leaves the products'
    # coefficient cache alone
    caches = (exact.cg, exact._wigner_9j_cached, exact.generalized_gaunt_exact)
    for cache in caches + (rules._path_coefficient,):
        cache.cache_clear()
    triples = [js for js in itertools.product(range(5), repeat=3)
               if js != (0, 0, 0) and triangle_delta(*js)]
    for j1, j2, j3 in triples:
        l1, l2, l3 = find_valid_ells(j1, j2, j3)
        assert vstp_rules(PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1)).passed
    assert vstp_rules(PathKey(100, 99, 1, 100, 100, 1, 100, 101, 1)).passed
    assert rules._path_coefficient.cache_info().currsize == 0
    for j1, j2, j3 in triples:
        x, y = (rng.standard_normal(2 * j + 1) + 0j for j in (j1, j2))
        simulate_cgtp_path(x, y, j3)
    assert rules._path_coefficient.cache_info().currsize == len(triples)
    assert [cache.cache_info().misses for cache in caches] == [0, 0, 0]


# ---------------------------------------------------------------- ell assignment

def test_find_valid_ells_examples():
    # distinct even-sum degrees: the all-diagonal assignment vanishes by
    # column-swap antisymmetry, so the top two degrees are offset
    assert find_valid_ells(1, 2, 3) == (1, 3, 2)
    assert find_valid_ells(1, 1, 1) == (0, 1, 1)
    with pytest.raises(NotInteractable):
        find_valid_ells(0, 0, 0)
    with pytest.raises(TriangleViolation):
        find_valid_ells(1, 2, 4)
    with pytest.raises(ValueError):
        find_valid_ells(-1, 1, 1)


@pytest.mark.parametrize("args, message", [
    ((1.0, 2, 3), "j1=1.0 must be an integer"),
    ((1, -2, 3), "j2=-2 must be non-negative"),
    ((1, 2, "3"), "j3='3' must be an integer"),
])
def test_find_valid_ells_checks_before_its_cache(args, message):
    # answers are cached; a float equal to a cached integer is still named,
    # and no error is cached
    find_valid_ells(1, 2, 3)
    size = find_valid_ells.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            find_valid_ells(*args)
    with pytest.raises(TriangleViolation):
        find_valid_ells(1, 2, 4)
    assert find_valid_ells.cache_info().currsize == size
    assert find_valid_ells.cache_info().maxsize == 1024
    assert find_valid_ells(np.int64(1), 2, 3) == find_valid_ells(1, 2, 3) == (1, 3, 2)


def test_find_valid_ells_deterministic_and_permutation_consistent():
    assert find_valid_ells(2, 1, 1) == find_valid_ells(2, 1, 1)
    for js in [(1, 2, 3), (2, 1, 1), (1, 1, 2), (3, 3, 3)]:
        ells = find_valid_ells(*js)
        path = PathKey(js[0], ells[0], 1, js[1], ells[1], 1, js[2], ells[2], 1)
        assert vstp_rules(path).passed


# ---------------------------------------------------------------- pair rule

def _admitted_l3(j1, l1, j2, l2, j3):
    """The least l3 <= l1 + l2 passing all five rules for the path, or None."""
    return next((l3 for l3 in range(l1 + l2 + 1)
                 if all(vstp_rule_flags((j1, j2, j3), (l1, l2, l3)))), None)


def _admits_every_j3(j1, l1, j2, l2):
    return all(_admitted_l3(j1, l1, j2, l2, j3) is not None
               for j3 in range(abs(j1 - j2), j1 + j2 + 1))


def test_find_pair_ells_examples():
    assert find_pair_ells(3, 2) == (2, 2)
    assert find_pair_ells(1, 1) == (0, 1)
    assert find_pair_ells(0, 4) == (1, 3)
    assert find_pair_ells(4, 0) == (3, 1)
    with pytest.raises(NotInteractable):
        find_pair_ells(0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        find_pair_ells(-1, 2)


def test_find_pair_ells_admits_every_j3_at_the_least_orbital_sum():
    for j1, j2 in itertools.product(range(17), repeat=2):
        if (j1, j2) == (0, 0):
            continue
        l1, l2 = find_pair_ells(j1, j2)
        assert _admits_every_j3(j1, l1, j2, l2), (j1, j2)
        for a, b in itertools.product(range(max(0, j1 - 1), j1 + 2),
                                      range(max(0, j2 - 1), j2 + 2)):
            if a + b < l1 + l2:
                assert not _admits_every_j3(j1, a, j2, b), (j1, j2, a, b)


def test_find_pair_ells_paths_have_nonzero_exact_coefficients():
    for j1, j2 in itertools.product(range(7), repeat=2):
        if (j1, j2) == (0, 0):
            continue
        l1, l2 = find_pair_ells(j1, j2)
        for j3 in range(abs(j1 - j2), j1 + j2 + 1):
            l3 = _admitted_l3(j1, l1, j2, l2, j3)
            path = PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1)
            assert not generalized_gaunt_exact(path).is_zero(), path


# ---------------------------------------------------------------- interactable

def test_interactable_examples():
    assert interactable(1, 1, 1)
    assert not interactable(1, 2, 4)
    assert not interactable(0, 0, 0)


def test_rules_entry_points_take_integer_degrees_only():
    for call, bad, name in [(lambda: find_pair_ells(1.5, 2), "1.5", "j1"),
                            (lambda: find_valid_ells(1.0, 1, 1), "1.0", "j1"),
                            (lambda: interactable(1, 1.5, 1), "1.5", "j2")]:
        with pytest.raises(ValueError, match=f"{name}={bad} must be an integer"):
            call()
    assert find_pair_ells(np.int64(3), np.int64(2)) == (2, 2)
    assert find_valid_ells(*map(np.int64, (1, 1, 1))) == find_valid_ells(1, 1, 1)
    assert interactable(np.int64(1), np.int64(1), np.int64(1))


def test_vstp_rules_names_a_non_integer_label_cold_and_cached():
    # generalized_gaunt_exact's cache would answer j3 = 2.0 once j3 = 2 is cached
    bad = PathKey(2, 1, 1, 2, 2, 1, 2.0, 2, 1)
    for call in (vstp_rules, generalized_gaunt_exact):
        with pytest.raises(ValueError, match=r"j3=2\.0 must be an integer"):
            call(bad)
    report = vstp_rules(PathKey(2, 1, 1, 2, 2, 1, 2, 2, 1))
    generalized_gaunt_exact(PathKey(2, 1, 1, 2, 2, 1, 2, 2, 1))  # vstp_rules caches no exact value
    for call in (vstp_rules, generalized_gaunt_exact):
        with pytest.raises(ValueError, match=r"j3=2\.0 must be an integer"):
            call(bad)
    assert vstp_rules(PathKey(*map(np.int64, (2, 1, 1, 2, 2, 1, 2, 2, 1)))) == report
    assert generalized_gaunt_exact.cache_info().currsize > 0


# ---------------------------------------------------------------- expressivity

def test_expressivity_examples():
    assert expressivity_count(0, 2) == 3
    assert expressivity_count(1, 1) == 4
    assert expressivity_count(1, 0) == 1


def test_expressivity_count_names_a_non_integer_argument():
    with pytest.raises(ValueError, match=r"spin s=0\.5 must be an integer"):
        expressivity_count(0.5, 2)
    with pytest.raises(ValueError, match=r"band limit L=2\.0 must be an integer"):
        expressivity_count(1, 2.0)


@given(st.integers(0, 4), st.integers(0, 32))
@settings(max_examples=60)
def test_expressivity_matches_enumeration(s, L):
    brute = sum(1 for l in range(L + 1) for j in range(0, l + s + 1)
                if triangle_delta(j, l, s))
    assert expressivity_count(s, L) == brute

