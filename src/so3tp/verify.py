"""Named invariant suites behind ``verify --quick`` / ``verify --full``.

Each check is a generator over one library invariant at preset bounds.
It yields ``(deviation, case)`` pairs (exact checks yield 1.0 per
failing case) and may return a summary string.  ``run_verify`` seeds,
times and names every check and judges its worst deviation against the
tolerance in the check's ``_CHECKS`` row.  ``quick`` keeps every suite
at small degree bounds and takes about a second; ``full`` runs the
exhaustive bounds the invariants are stated at, including the benchmark
scaling gates.

Checks resolve library functions through their modules at call time, so
a monkeypatched (faulted) function is picked up -- useful for testing
that the suite actually detects broken symmetries.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import angular, bench, rules, sht, tenprod, tsh
from .exact import SqrtRational, term_add_into, term_mul
from .flops import FlopCounter
from .rules import PathKey

__all__ = ["CheckResult", "run_verify", "format_report", "CHECK_NAMES"]


@dataclass
class CheckResult:
    name: str
    max_dev: float
    tolerance: float
    passed: bool
    worst_case: str
    seconds: float


def _random_angles(rng, n):
    return [tuple(rng.uniform(0.0, 2.0 * np.pi, 3)) for _ in range(n)]


def rotated_node_angles(grid, a, b, c):
    """(theta, phi) of R^-1 v at every node v of ``grid``, R = rotation_matrix(a, b, c)."""
    back = grid.unit_vectors @ angular.rotation_matrix(a, b, c)  # row-vector form of R^-1 v
    return np.arccos(np.clip(back[..., 2], -1, 1)), np.arctan2(back[..., 1], back[..., 0])


# ---------------------------------------------------------------- angular

def check_cg_orthogonality(p, rng):
    jmax = p["jmax"]
    for j1 in range(jmax + 1):
        for j2 in range(jmax + 1):
            keys = [(j3, m3) for j3 in range(abs(j1 - j2), j1 + j2 + 1)
                    for m3 in range(-j3, j3 + 1)]
            for (j3, m3), (j3p, m3p) in itertools.combinations_with_replacement(keys, 2):
                acc = {}
                for m1 in range(-j1, j1 + 1):
                    m2 = m3 - m1
                    if abs(m2) > j2 or m2 != m3p - m1:
                        continue
                    term_add_into(acc, term_mul(
                        angular.cg(j1, m1, j2, m2, j3, m3).as_term(),
                        angular.cg(j1, m1, j2, m2, j3p, m3p).as_term()))
                total = SqrtRational.from_sum(acc)
                expect = SqrtRational(1, Fraction(1)) if (j3, m3) == (j3p, m3p) \
                    else SqrtRational(0, Fraction(0))
                if total != expect:
                    yield 1.0, f"(j1,j2)=({j1},{j2}) ({j3},{m3})x({j3p},{m3p}) -> {total}"


def check_cg_reorder(p, rng):
    nmax = p["jmax"]
    for l in range(nmax + 1):
        for s in range(nmax + 1):
            for j in range(abs(l - s), min(l + s, nmax) + 1):
                for mj in range(-j, j + 1):
                    for ml in range(-l, l + 1):
                        ms = mj - ml
                        if abs(ms) > s:
                            continue
                        lhs = angular.cg(l, ml, s, ms, j, mj)
                        rhs = SqrtRational(1, Fraction(2 * j + 1, 2 * s + 1)) \
                            * angular.cg(j, mj, l, -ml, s, ms)
                        if (l - ml) % 2:
                            rhs = -rhs
                        if lhs != rhs:
                            yield 1.0, f"(j,mj,l,ml,s,ms)=({j},{mj},{l},{ml},{s},{ms})"


def check_cg_block(p, rng):
    jsum = p["jsum"]
    pairs = [(j1, j2) for j1 in range(jsum + 1) for j2 in range(jsum + 1 - j1)]
    for j1, j2 in pairs + list(p["edge"]):
        for _ in range(p["samples"]):
            j3 = int(rng.integers(abs(j1 - j2), j1 + j2 + 1))
            m1 = int(rng.integers(-j1, j1 + 1))
            m2 = int(rng.integers(-j2, j2 + 1))
            m3 = m1 + m2
            expect = angular.cg_float(j1, m1, j2, m2, j3, m3) if abs(m3) <= j3 else 0.0
            dev = abs(angular.cg_block(j1, j2, j3)[m1 + j1, m2 + j2] - expect)
            yield dev, f"(j1,m1,j2,m2,j3)=({j1},{m1},{j2},{m2},{j3})"


def check_d_unitarity(p, rng):
    for j in range(p["jmax"] + 1):
        for a, b, c in _random_angles(rng, p["rotations"]):
            D = angular.wigner_d_matrix(j, a, b, c)
            dev = float(np.abs(D @ D.conj().T - np.eye(2 * j + 1)).max())
            yield dev, f"j={j} angles=({a:.3f},{b:.3f},{c:.3f})"


def check_d_product(p, rng):
    lmax = p["lmax"]
    for a, b, c in _random_angles(rng, p["rotations"]):
        Ds = {l: angular.wigner_d_matrix(l, a, b, c) for l in range(2 * lmax + 1)}
        for l1 in range(lmax + 1):
            for l2 in range(lmax + 1):
                for m1, n1, m2, n2 in itertools.product(range(-l1, l1 + 1), range(-l1, l1 + 1),
                                                        range(-l2, l2 + 1), range(-l2, l2 + 1)):
                    lhs = Ds[l1][m1 + l1, n1 + l1] * Ds[l2][m2 + l2, n2 + l2]
                    m3, n3 = m1 + m2, n1 + n2
                    rhs = sum(angular.cg_float(l1, m1, l2, m2, l3, m3)
                              * angular.cg_float(l1, n1, l2, n2, l3, n3)
                              * Ds[l3][m3 + l3, n3 + l3]
                              for l3 in range(abs(l1 - l2), l1 + l2 + 1)
                              if abs(m3) <= l3 and abs(n3) <= l3)
                    dev = abs(lhs - rhs)
                    yield dev, f"l=({l1},{l2}) m=({m1},{n1},{m2},{n2})"


def check_nine_j_table(p, rng):
    nmax = p["abc_max"]
    for a in range(nmax + 1):
        for b in range(nmax + 1):
            for c in range(nmax + 1):
                for lam, mu, nu in itertools.product((-1, 0, 1), repeat=3):
                    if a + lam < 0 or b + mu < 0 or c + nu < 0:
                        continue
                    t = angular.wigner_9j_spin1(a, lam, b, mu, c, nu)
                    g = float(angular.wigner_9j(((a + lam, a, 1), (b + mu, b, 1), (c + nu, c, 1))))
                    yield abs(t - g), f"(a,b,c)=({a},{b},{c}) (lam,mu,nu)=({lam},{mu},{nu})"


def check_nine_j_row_swap(p, rng):
    nmax = p["entry_max"]
    rows = list(itertools.product(range(nmax + 1), repeat=3))
    for r1 in rows:
        for r2 in rows:
            r3 = tuple((r1[k] + r2[k]) % (nmax + 1) for k in range(3))
            grid = (r1, r2, r3)
            v = angular.wigner_9j(grid)
            swapped = angular.wigner_9j((r2, r1, r3))
            S = sum(sum(r) for r in grid)
            expect = v if S % 2 == 0 else -v
            if swapped != expect:
                yield 1.0, f"grid={grid}"


# ---------------------------------------------------------------- sht

def check_sh_orthonormality(p, rng):
    L = p["L"]
    grid = sht.make_grid(L)
    th, ph = grid.angles
    w = grid.weights
    basis = np.stack([sht.sh_eval(l, m, th, ph) for l in range(L + 1) for m in range(-l, l + 1)])
    gram = np.einsum("atp,btp,tp->ab", basis.conj(), basis, w)
    err = np.abs(gram - np.eye(basis.shape[0]))
    case = f"basis pair {tuple(int(i) for i in np.unravel_index(err.argmax(), gram.shape))}"
    yield err.max(), case
    return case


def check_scalar_round_trip(p, rng):
    for L in p["L_list"]:
        x = sht.random_coeffs(L, rng)
        z = sht.from_sphere(sht.to_sphere(x, sht.make_grid(L)), L)
        for l in range(L + 1):
            dev = float(np.abs(x.block(l) - z.block(l)).max())
            yield dev, f"L={L} l={l}"


def check_d_to_sh(p, rng):
    for a, b, c in _random_angles(rng, p["rotations"]):
        z = angular.rotation_matrix(a, b, c) @ np.array([0.0, 0.0, 1.0])
        th = math.acos(max(-1.0, min(1.0, z[2])))
        ph = math.atan2(z[1], z[0])
        for l in range(p["lmax"] + 1):
            D = angular.wigner_d_matrix(l, a, b, c)
            for m in range(-l, l + 1):
                rhs = math.sqrt(4 * math.pi / (2 * l + 1)) * np.conj(sht.sh_eval(l, m, th, ph))
                yield abs(D[m + l, l] - rhs), f"l={l} m={m}"


def check_gaunt_quadrature(p, rng):
    lmax = p["lmax"]
    for l1 in range(lmax + 1):
        for l2 in range(lmax + 1):
            grid = sht.make_grid(l1 + l2)
            th, ph = grid.angles
            w = grid.weights
            for m1 in range(-l1, l1 + 1):
                y1 = sht.sh_eval(l1, m1, th, ph)
                for m2 in range(-l2, l2 + 1):
                    y12 = y1 * sht.sh_eval(l2, m2, th, ph)
                    for l3 in range(l1 + l2 + 1):
                        m3 = m1 + m2
                        if abs(m3) > l3:
                            continue
                        bf = complex((y12 * np.conj(sht.sh_eval(l3, m3, th, ph)) * w).sum())
                        dev = abs(bf - sht.gaunt_coefficient(l1, m1, l2, m2, l3, m3))
                        yield dev, f"({l1},{m1},{l2},{m2},{l3},{m3})"


def check_to_sphere_equivariance(p, rng):
    L = p["L"]
    grid = sht.make_grid(L)
    x = sht.random_coeffs(L, rng)
    for a, b, c in _random_angles(rng, p["rotations"]):
        f_rot = sht.to_sphere(sht.rotate_coeffs(x, a, b, c), grid)
        th_b, ph_b = rotated_node_angles(grid, a, b, c)
        direct = sum(x.block(l)[m + l] * sht.sh_eval(l, m, th_b, ph_b)
                     for l in range(L + 1) for m in range(-l, l + 1))
        yield float(np.abs(f_rot.values - direct).max()), f"angles=({a:.3f},{b:.3f},{c:.3f})"


# ---------------------------------------------------------------- tsh

def check_tsh_round_trip(p, rng):
    for s, L in p["cases"]:
        x = tsh.random_tsh_coeffs(s, L, rng)
        z = tsh.tsh_decode(tsh.tsh_encode(x, sht.make_grid(L)), L)
        for j, l in x.blocks:
            dev = float(np.abs(x.block(j, l) - z.block(j, l)).max())
            yield dev, f"s={s} L={L} block=({j},{l})"


def check_tsh_orthonormality(p, rng):
    for s, L in p["cases"]:
        dev = tsh.tsh_orthonormality_check(s, L)
        yield dev, f"s={s} L={L}"


def check_tsh_equivariance(p, rng):
    for s in range(p["smax"] + 1):
        L = max(p["L"], s)
        grid = sht.make_grid(L)
        x = tsh.random_tsh_coeffs(s, L, rng)
        for a, b, c in _random_angles(rng, p["rotations"]):
            f_rot = tsh.tsh_encode(tsh.rotate_tsh_coeffs(x, a, b, c), grid).values
            th_b, ph_b = rotated_node_angles(grid, a, b, c)
            expect = tsh.tsh_evaluate(x, th_b, ph_b) @ angular.wigner_d_matrix(s, a, b, c).T
            yield float(np.abs(f_rot - expect).max()), f"s={s}"


def check_tsh_eval_scalar(p, rng):
    for _ in range(40):
        l = int(rng.integers(0, p["lmax"] + 1))
        m = int(rng.integers(-l, l + 1))
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        dev = abs(tsh.tsh_eval(l, m, l, 0, th, ph)[0] - sht.sh_eval(l, m, th, ph))
        yield dev, f"(l,m)=({l},{m})"


# ---------------------------------------------------------------- tenprod

def _cg_contract(u, v, j3):
    j1 = (len(u) - 1) // 2
    j2 = (len(v) - 1) // 2
    out = np.zeros(2 * j3 + 1, dtype=complex)
    for m1 in range(-j1, j1 + 1):
        for m2 in range(-j2, j2 + 1):
            if abs(m1 + m2) <= j3:
                out[m1 + m2 + j3] += angular.cg_float(j1, m1, j2, m2, j3, m1 + m2) \
                    * u[m1 + j1] * v[m2 + j2]
    return out


def check_product_expansion(p, rng):
    """Grid products of single blocks against the closed-form expansion."""
    nmax = p["jlmax"]
    smax = p["smax"]
    for s1 in range(smax + 1):
        for s2 in range(smax + 1):
            for s3 in range(abs(s1 - s2), s1 + s2 + 1):
                pairs1 = [(j, l) for j, l in tsh.valid_pairs(s1, nmax) if j <= nmax]
                pairs2 = [(j, l) for j, l in tsh.valid_pairs(s2, nmax) if j <= nmax]
                for j1, l1 in pairs1:
                    u = sht.random_block(j1, rng)
                    for j2, l2 in pairs2:
                        v = sht.random_block(j2, rng)
                        X = tsh.TshCoeffs(s=s1, L=l1, blocks={(j1, l1): u})
                        Y = tsh.TshCoeffs(s=s2, L=l2, blocks={(j2, l2): v})
                        res = tenprod.istp(X, Y, s3, l1 + l2, sht.make_grid(l1 + l2))
                        for (j3, l3), z in res.output.items():
                            coef = rules.generalized_gaunt(
                                PathKey(j1, l1, s1, j2, l2, s2, j3, l3, s3))
                            expect = (coef * _cg_contract(u, v, j3)
                                      if angular.triangle_delta(j1, j2, j3) else
                                      np.zeros(2 * j3 + 1))
                            dev = float(np.abs(z - expect).max())
                            yield dev, f"path=({j1},{l1},{s1};{j2},{l2},{s2};{j3},{l3},{s3})"


def check_gtp_formula(p, rng):
    nmax = p["lmax"]
    for l1 in range(nmax + 1):
        u = sht.random_block(l1, rng)
        for l2 in range(nmax + 1):
            v = sht.random_block(l2, rng)
            X = sht.IrrepCoeffs(L=l1, blocks={(l1, None): u})
            Y = sht.IrrepCoeffs(L=l2, blocks={(l2, None): v})
            res = tenprod.gtp(X, Y, l1 + l2, sht.make_grid(l1 + l2))
            for l3 in range(l1 + l2 + 1):
                expect = np.zeros(2 * l3 + 1, dtype=complex)
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        if abs(m1 + m2) <= l3:
                            expect[m1 + m2 + l3] += sht.gaunt_coefficient(
                                l1, m1, l2, m2, l3, m1 + m2) * u[m1 + l1] * v[m2 + l2]
                dev = float(np.abs(res.output.block(l3) - expect).max())
                yield dev, f"(l1,l2,l3)=({l1},{l2},{l3})"


def check_gtp_symmetry(p, rng):
    L = p["L"]
    g = sht.make_grid(2 * L)
    x, y = sht.random_coeffs(L, rng), sht.random_coeffs(L, rng)
    r1 = tenprod.gtp(x, y, 2 * L, g).output
    r2 = tenprod.gtp(y, x, 2 * L, g).output
    for l in range(2 * L + 1):
        yield float(np.abs(r1.block(l) - r2.block(l)).max()), f"l={l}"


def check_vstp_antisymmetry(p, rng):
    L = p["L"]
    g = sht.make_grid(2 * L)
    x = tsh.random_tsh_coeffs(1, L, rng)
    y = tsh.random_tsh_coeffs(1, L, rng)
    rxx = tenprod.vstp(x, x, 2 * L, g).output
    for key, vec in rxx.items():
        yield float(np.abs(vec).max()), f"vstp(x,x) block {key}"
    rxy = tenprod.vstp(x, y, 2 * L, g).output
    ryx = tenprod.vstp(y, x, 2 * L, g).output
    for key in rxy.blocks:
        dev = float(np.abs(rxy.blocks[key] + ryx.blocks[key]).max())
        yield dev, f"antisymmetry block {key}"


def check_cgtp_simulation(p, rng):
    jmax = p["jmax"]
    for j1 in range(jmax + 1):
        for j2 in range(jmax + 1):
            for j3 in range(abs(j1 - j2), min(j1 + j2, jmax) + 1):
                for _ in range(p["pairs"]):
                    u = sht.random_block(j1, rng)
                    v = sht.random_block(j2, rng)
                    sim = tenprod.simulate_cgtp_path(u, v, j3)
                    ref = tenprod.cgtp_path(u, v, j3)
                    dev = float(np.abs(sim - ref).max())
                    yield dev, f"(j1,j2,j3)=({j1},{j2},{j3})"


def check_tpo_equivariance(p, rng):
    L = p["L"]
    grid = sht.make_grid(2 * L)
    xs, ys = sht.random_coeffs(L, rng), sht.random_coeffs(L, rng)
    xv, yv = tsh.random_tsh_coeffs(1, L, rng), tsh.random_tsh_coeffs(1, L, rng)
    for a, b, c in _random_angles(rng, p["rotations"]):
        lhs = tenprod.cgtp_full(sht.rotate_coeffs(xs, a, b, c),
                                sht.rotate_coeffs(ys, a, b, c), 2 * L).output
        rhs = sht.rotate_coeffs(tenprod.cgtp_full(xs, ys, 2 * L).output, a, b, c)
        for key in lhs.blocks:
            yield float(np.abs(lhs.blocks[key] - rhs.blocks[key]).max()), f"cgtp block {key}"
        lhs = tenprod.gtp(sht.rotate_coeffs(xs, a, b, c),
                          sht.rotate_coeffs(ys, a, b, c), 2 * L, grid).output
        rhs = sht.rotate_coeffs(tenprod.gtp(xs, ys, 2 * L, grid).output, a, b, c)
        for key in lhs.blocks:
            yield float(np.abs(lhs.blocks[key] - rhs.blocks[key]).max()), f"gtp block {key}"
        lhs = tenprod.vstp(tsh.rotate_tsh_coeffs(xv, a, b, c),
                           tsh.rotate_tsh_coeffs(yv, a, b, c), 2 * L, grid).output
        rhs = tsh.rotate_tsh_coeffs(tenprod.vstp(xv, yv, 2 * L, grid).output, a, b, c)
        for key in lhs.blocks:
            yield float(np.abs(lhs.blocks[key] - rhs.blocks[key]).max()), f"vstp block {key}"
        x0 = tsh.TshCoeffs(s=0, L=L, blocks={(l, l): xs.block(l) for l in range(L + 1)})
        x0r = tsh.rotate_tsh_coeffs(x0, a, b, c)
        xvr = tsh.rotate_tsh_coeffs(xv, a, b, c)
        yvr = tsh.rotate_tsh_coeffs(yv, a, b, c)
        for spins, u, v, ur, vr in [((0, 1, 1), x0, yv, x0r, yvr),
                                    ((1, 0, 1), xv, x0, xvr, x0r),
                                    ((1, 1, 0), xv, yv, xvr, yvr)]:
            lhs = tenprod.istp(ur, vr, spins[2], 2 * L, grid).output
            rhs = tsh.rotate_tsh_coeffs(
                tenprod.istp(u, v, spins[2], 2 * L, grid).output, a, b, c)
            for key in lhs.blocks:
                yield (float(np.abs(lhs.blocks[key] - rhs.blocks[key]).max()),
                       f"istp{spins} block {key}")


def check_bilinearity(p, rng):
    L = p["L"]
    grid = sht.make_grid(2 * L)
    x1 = tsh.random_tsh_coeffs(1, L, rng)
    x2 = tsh.random_tsh_coeffs(1, L, rng)
    y = tsh.random_tsh_coeffs(1, L, rng)
    a, b = 1.3 - 0.4j, -0.8 + 0.9j
    combo = tsh.TshCoeffs(s=1, L=L, blocks={k: a * x1.block(*k) + b * x2.block(*k)
                                            for k in x1.blocks})
    lhs = tenprod.vstp(combo, y, 2 * L, grid).output
    r1 = tenprod.vstp(x1, y, 2 * L, grid).output
    r2 = tenprod.vstp(x2, y, 2 * L, grid).output
    for key in lhs.blocks:
        dev = float(np.abs(lhs.blocks[key] - a * r1.blocks[key] - b * r2.blocks[key]).max())
        yield dev, f"block {key}"


def check_flop_counts(p, rng):
    for j1 in range(p["jmax"] + 1):
        for j2 in range(p["jmax"] + 1):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                u = rng.standard_normal(2 * j1 + 1) + 0j
                v = rng.standard_normal(2 * j2 + 1) + 0j
                fl = FlopCounter()
                tenprod.cgtp_path(u, v, j3, mode="naive", flops=fl)
                if fl.count != (2 * j1 + 1) * (2 * j2 + 1) * (2 * j3 + 1):
                    yield 1.0, f"naive ({j1},{j2},{j3}): {fl.count}"
                fl = FlopCounter()
                tenprod.cgtp_path(u, v, j3, mode="sparse", flops=fl)
                brute = sum(1 for m1 in range(-j1, j1 + 1) for m2 in range(-j2, j2 + 1)
                            if abs(m1 + m2) <= j3)
                if fl.count != brute:
                    yield 1.0, f"sparse ({j1},{j2},{j3}): {fl.count} != {brute}"


# ---------------------------------------------------------------- rules

def check_selection_iff(p, rng):
    nmax = p["jlmax"]
    for j1, l1, j2, l2, j3, l3 in itertools.product(range(nmax + 1), repeat=6):
        path = PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1)
        rep = rules.vstp_rules(path)
        nz = not rules.generalized_gaunt_exact(path).is_zero()
        if rep.passed != nz:
            yield 1.0, f"path={tuple(path)} flags={rep.passed} nonzero={nz}"
    return f"0 mismatches over {(nmax + 1) ** 6} paths"


def check_ell_assignment(p, rng):
    jmax = p["jmax"]
    n = 0
    for j1 in range(jmax + 1):
        for j2 in range(jmax + 1):
            for j3 in range(jmax + 1):
                if not angular.triangle_delta(j1, j2, j3):
                    continue
                if (j1, j2, j3) == (0, 0, 0):
                    try:
                        rules.find_valid_ells(0, 0, 0)
                        yield 1.0, "(0,0,0) did not raise NotInteractable"
                    except rules.NotInteractable:
                        pass
                    continue
                n += 1
                ells = rules.find_valid_ells(j1, j2, j3)
                path = PathKey(j1, ells[0], 1, j2, ells[1], 1, j3, ells[2], 1)
                if not rules.vstp_rules(path).passed or \
                        rules.generalized_gaunt_exact(path).is_zero():
                    yield 1.0, f"js=({j1},{j2},{j3}) ells={ells}"
    return f"all {n} triangles assigned"


def check_interactable(p, rng):
    jmax = p["jmax"]
    for j1 in range(jmax + 1):
        for j2 in range(jmax + 1):
            for j3 in range(jmax + 1):
                lmax = max(j1, j2, j3) + 1
                found = any(
                    rules.vstp_rules(PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1)).passed
                    for l1 in range(lmax + 1) for l2 in range(lmax + 1)
                    for l3 in range(lmax + 1))
                if rules.interactable(j1, j2, j3) != found:
                    yield 1.0, f"({j1},{j2},{j3})"


def check_gtp_exclusion(p, rng):
    nmax = p["lmax"]
    for l1, l2, l3 in itertools.product(range(nmax + 1), repeat=3):
        path = PathKey(l1, l1, 0, l2, l2, 0, l3, l3, 0)
        nz = not rules.generalized_gaunt_exact(path).is_zero()
        expect = bool(angular.triangle_delta(l1, l2, l3)) and (l1 + l2 + l3) % 2 == 0
        if nz != expect:
            yield 1.0, f"(l1,l2,l3)=({l1},{l2},{l3})"


def check_expressivity(p, rng):
    for L in range(p["Lmax"] + 1):
        if rules.expressivity_count(0, L) != L + 1:
            yield 1.0, f"s=0 L={L}"
    for s in range(p["smax"] + 1):
        brute = sum(1 for l in range(p["Lmax"] + 1) for j in range(l + s + 1)
                    if angular.triangle_delta(j, l, s))
        if rules.expressivity_count(s, p["Lmax"]) != brute:
            yield 1.0, f"s={s} enumeration"
        ratio = rules.expressivity_count(s, 64) / ((2 * s + 1) * 65)
        if abs(ratio - 1.0) > 0.1:
            yield 1.0, f"s={s} ratio={ratio:.3f}"


# ---------------------------------------------------------------- bench

def check_flops_sanity(p, rng):
    Ls = p["L_list"]
    for method in bench.METHODS:
        recs = bench.run_bench(method, "MIMO", Ls, repeats=2, seed=7,
                               flop_budget=10 ** 11)
        flops = [r.flops for r in recs]
        if any(b < a for a, b in zip(flops, flops[1:])):
            yield 1.0, f"{method} not monotone: {flops}"
    for setting in bench.SETTINGS:
        naive = bench.run_bench("cgtp_naive", setting, Ls, 1, 7, flop_budget=10 ** 11)
        sparse = bench.run_bench("cgtp_sparse", setting, Ls, 1, 7, flop_budget=10 ** 11)
        for a, b in zip(sparse, naive):
            if a.flops > b.flops:
                yield 1.0, f"{setting} L={a.L}: sparse {a.flops} > naive {b.flops}"


def check_scaling_slopes(p, rng):
    Ls = p["L_list"]
    windows = {"cgtp_naive": (5.5, 6.5), "cgtp_sparse": (4.5, 5.5),
               "gtp_grid": (2.5, 3.5), "vstp_grid": (2.5, 3.5)}
    details = []
    for method, (lo, hi) in windows.items():
        recs = bench.run_bench(method, "MIMO", Ls, repeats=1, seed=11,
                               flop_budget=10 ** 11)
        slope = float(np.polyfit(np.log([r.L for r in recs]),
                                 np.log([r.flops for r in recs]), 1)[0])
        details.append(f"{method}={slope:.3f}")
        if not lo <= slope <= hi:
            yield 1.0, f"{method} slope {slope:.3f} not in [{lo},{hi}]"
    return " ".join(details)


def check_simulation_scaling(p, rng):
    Ls = p["L_list"]
    counts = [bench.simulate_cgtp_all_paths(L, seed=13) for L in Ls]
    slope = float(np.polyfit(np.log(Ls), np.log(counts), 1)[0])
    case = f"slope={slope:.3f} over L={list(Ls)}"
    yield max(0.0, abs(slope - 5.0) - 0.5), case
    return case


# ---------------------------------------------------------------- runner

_CHECKS = [
    ("cg_orthogonality", check_cg_orthogonality, 0.0,
     {"quick": {"jmax": 2}, "full": {"jmax": 3}}),
    ("cg_reorder_symmetry", check_cg_reorder, 0.0,
     {"quick": {"jmax": 2}, "full": {"jmax": 3}}),
    ("cg_block_vs_exact", check_cg_block, 1e-13,
     {"quick": {"jsum": 24, "samples": 4, "edge": ()},
      "full": {"jsum": 24, "samples": 16, "edge": ((128, 2), (2, 128), (65, 65))}}),
    ("wigner_d_unitarity", check_d_unitarity, 1e-12,
     {"quick": {"jmax": 4, "rotations": 10}, "full": {"jmax": 8, "rotations": 50}}),
    ("wigner_d_product", check_d_product, 1e-10,
     {"quick": {"lmax": 2, "rotations": 5}, "full": {"lmax": 2, "rotations": 20}}),
    ("nine_j_table", check_nine_j_table, 1e-12,
     {"quick": {"abc_max": 2}, "full": {"abc_max": 6}}),
    ("nine_j_row_swap", check_nine_j_row_swap, 0.0,
     {"quick": {"entry_max": 2}, "full": {"entry_max": 3}}),
    ("sh_orthonormality", check_sh_orthonormality, 1e-12,
     {"quick": {"L": 8}, "full": {"L": 8}}),
    ("scalar_round_trip", check_scalar_round_trip, 1e-12,
     {"quick": {"L_list": (8,)}, "full": {"L_list": (8, 32)}}),
    ("d_to_sh_reduction", check_d_to_sh, 1e-10,
     {"quick": {"lmax": 3, "rotations": 5}, "full": {"lmax": 4, "rotations": 20}}),
    ("gaunt_vs_quadrature", check_gaunt_quadrature, 1e-11,
     {"quick": {"lmax": 2}, "full": {"lmax": 4}}),
    ("to_sphere_equivariance", check_to_sphere_equivariance, 1e-10,
     {"quick": {"L": 2, "rotations": 3}, "full": {"L": 4, "rotations": 10}}),
    ("tsh_round_trip", check_tsh_round_trip, 1e-12,
     {"quick": {"cases": ((0, 8), (1, 8))},
      "full": {"cases": ((0, 16), (1, 16), (2, 16), (1, 32), (2, 32))}}),
    ("tsh_orthonormality", check_tsh_orthonormality, 1e-12,
     {"quick": {"cases": ((0, 3), (1, 3))},
      "full": {"cases": ((0, 4), (1, 4), (2, 5))}}),
    ("tsh_equivariance", check_tsh_equivariance, 1e-10,
     {"quick": {"smax": 1, "L": 2, "rotations": 3},
      "full": {"smax": 1, "L": 4, "rotations": 10}}),
    ("tsh_eval_spin0", check_tsh_eval_scalar, 1e-14,
     {"quick": {"lmax": 4}, "full": {"lmax": 8}}),
    ("tsh_product_expansion", check_product_expansion, 1e-10,
     {"quick": {"jlmax": 2, "smax": 1}, "full": {"jlmax": 3, "smax": 1}}),
    ("gtp_gaunt_formula", check_gtp_formula, 1e-11,
     {"quick": {"lmax": 2}, "full": {"lmax": 3}}),
    ("gtp_symmetry", check_gtp_symmetry, 1e-13,
     {"quick": {"L": 2}, "full": {"L": 4}}),
    ("vstp_antisymmetry", check_vstp_antisymmetry, 1e-12,
     {"quick": {"L": 2}, "full": {"L": 4}}),
    ("cgtp_simulation", check_cgtp_simulation, 1e-10,
     {"quick": {"jmax": 2, "pairs": 5}, "full": {"jmax": 4, "pairs": 20}}),
    ("tpo_equivariance", check_tpo_equivariance, 1e-10,
     {"quick": {"L": 2, "rotations": 3}, "full": {"L": 4, "rotations": 10}}),
    ("tpo_bilinearity", check_bilinearity, 1e-12,
     {"quick": {"L": 2}, "full": {"L": 4}}),
    ("cgtp_flop_counts", check_flop_counts, 0.0,
     {"quick": {"jmax": 3}, "full": {"jmax": 6}}),
    ("selection_rule_iff", check_selection_iff, 0.0,
     {"quick": {"jlmax": 3}, "full": {"jlmax": 6}}),
    ("ell_assignment", check_ell_assignment, 0.0,
     {"quick": {"jmax": 5}, "full": {"jmax": 10}}),
    ("interactable", check_interactable, 0.0,
     {"quick": {"jmax": 4}, "full": {"jmax": 8}}),
    ("gtp_exclusion", check_gtp_exclusion, 0.0,
     {"quick": {"lmax": 3}, "full": {"lmax": 6}}),
    ("expressivity", check_expressivity, 0.0,
     {"quick": {"smax": 2, "Lmax": 16}, "full": {"smax": 2, "Lmax": 64}}),
    ("bench_flops_sanity", check_flops_sanity, 0.0,
     {"quick": {"L_list": (2, 4)}, "full": {"L_list": (2, 4, 8)}}),
    ("mimo_scaling_slopes", check_scaling_slopes, 0.0,
     {"quick": None, "full": {"L_list": (8, 16, 32)}}),
    ("cgtp_simulation_scaling", check_simulation_scaling, 0.0,
     {"quick": None, "full": {"L_list": (8, 16, 32)}}),
]

CHECK_NAMES = [row[0] for row in _CHECKS]


def run_verify(level: str = "quick", seed: int = 0, only=None):
    """Run the invariant suites; returns (results, all_passed).

    ``quick`` uses bounded parameters and skips the benchmark scaling
    gates; ``full`` runs the exhaustive bounds.  ``only`` optionally
    restricts to a subset of check names and raises ``ValueError`` on a
    name that is not a check.  A full-only check named in ``only`` is
    still skipped at ``quick``.  Each check's RNG is seeded from
    ``[seed, crc32(name)]``.  A check's worst case is its summary (the
    generator's return value) when no deviation is above zero.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    if only is not None:
        unknown = sorted(set(only) - {row[0] for row in _CHECKS})
        if unknown:
            raise ValueError(f"unknown verify checks {unknown}")
    results = []
    for name, fn, tolerance, presets in _CHECKS:
        params = presets[level]
        if params is None or (only is not None and name not in only):
            continue
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        t0 = time.perf_counter()
        cases, max_dev, worst_case = fn(params, rng), 0.0, ""
        while True:
            try:
                dev, case = next(cases)
            except StopIteration as stop:
                summary = stop.value
                break
            dev = float(dev)
            # the first strictly largest deviation wins; a NaN outranks every number
            if dev > max_dev or (math.isnan(dev) and not math.isnan(max_dev)):
                max_dev, worst_case = dev, case
        if max_dev == 0.0 and summary is not None:
            worst_case = summary
        results.append(CheckResult(name=name, max_dev=max_dev, tolerance=tolerance,
                                   passed=max_dev <= tolerance, worst_case=worst_case,
                                   seconds=time.perf_counter() - t0))
    return results, all(r.passed for r in results)


def format_report(results, level: str) -> str:
    lines = [f"verification level: {level}"]
    width = max(len(r.name) for r in results) if results else 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  max_dev={r.max_dev:.3e}  "
                     f"tol={r.tolerance:.1e}  [{r.seconds:6.2f}s]")
        if not r.passed:
            lines.append(f"      worst case: {r.worst_case}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
