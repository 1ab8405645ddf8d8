"""The benchmark's workloads.

Each workload owns a seeded input stream, its op (the public library
call a user makes), a reference check that does not reuse the code under
test, a traced replay of the op as the sequence of public calls it is
made of, and the MAC count the op must repeat exactly.

Interface shared by every workload (``Workload`` holds the defaults):

* ``inputs(seed, part, parts)``: endless (or, for ``rules_exact``,
  exhaustible) iterator of op inputs for worker ``part`` of ``parts``;
  the same arguments give the same inputs.
* ``prepare(tracer)``: set-up the benchmark performs before the first
  op (e.g. building the product grid).  ``setup_ops`` ops follow it to
  finish lazy set-up.
* ``run(inp)`` / ``traced(inp, tracer)``: one op, returning
  ``(output, macs)``.
* ``prepare_reference(seed)`` then ``check(inp, out)``: the relative
  error against the reference; non-finite outputs give ``nan``.
* ``mac_key(inp)``: ops with equal keys must report equal MACs, and the
  MACs of one full ``cycle`` must sum to ``cycle_macs``.
"""

from __future__ import annotations

import math

import numpy as np

from so3tp import angular, rules, sht, tenprod, tsh
from so3tp.flops import FlopCounter


def _cvec(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _rel_err(got, want) -> float:
    """max |got - want| / max |want|; nan when ``got`` is not finite."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    if not np.all(np.isfinite(got)):
        return math.nan
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    diff = float(np.max(np.abs(got - want))) if want.size else 0.0
    return diff / scale if scale > 0 else diff


def spin1_keys(L: int) -> list[tuple[int, int]]:
    """All (j, l) with l <= L and the triangle {j, l, 1}, ascending l then j."""
    return [(j, l) for l in range(L + 1) for j in range(abs(l - 1), l + 2)]


def random_spin1(L: int, rng: np.random.Generator) -> tsh.TshCoeffs:
    """MIMO spin-1 input: a complex normal block on every (j, l) key."""
    return tsh.TshCoeffs(s=1, L=L, blocks={(j, l): _cvec(2 * j + 1, rng)
                                           for j, l in spin1_keys(L)})


def random_irreps(L: int, rng: np.random.Generator) -> sht.IrrepCoeffs:
    """MIMO coefficient-space input: one complex normal block per degree."""
    return sht.IrrepCoeffs(L=L, blocks={(l, None): _cvec(2 * l + 1, rng)
                                        for l in range(L + 1)})


def _vstp_stages(tr, x, y, grid, L3, flops):
    """``tenprod.istp`` at spin 1, split into the public calls it makes."""
    fx = tr.call("tsh.tsh_encode", tsh.tsh_encode, x, grid, flops=flops)
    fy = tr.call("tsh.tsh_encode", tsh.tsh_encode, y, grid, flops=flops)
    prod = tr.call("tenprod.pointwise_spin_tp", tenprod.pointwise_spin_tp, fx, fy, 1,
                   flops=flops)
    return tr.call("tsh.tsh_decode", tsh.tsh_decode, prod, L3, flops=flops)


class Workload:
    """Defaults shared by the workloads below."""

    cycle = 1
    setup_ops = 1

    def prepare(self, tr) -> None:
        pass

    def prepare_reference(self, seed: int) -> None:
        pass

    def traced(self, inp, tr):
        return tr.call(self.root, self._replay, inp, tr)

    def mac_key(self, inp):
        return 0


class GridMimo(Workload):
    """Spin-1 ``tenprod.vstp``, MIMO: every (j, l) key up to L in both inputs."""

    name = "grid_mimo"
    root = "tenprod.vstp"
    tolerance = 1e-10

    def __init__(self, L: int = 32, Lg: int = 64, L3: int = 64, Lg_ref: int = 65,
                 cycle_macs: int = 7_879_010):
        self.L, self.Lg, self.L3, self.Lg_ref = L, Lg, L3, Lg_ref
        self.cycle_macs = cycle_macs

    def inputs(self, seed: int, part: int = 0, parts: int = 1):
        rng = np.random.default_rng([seed, part])
        while True:
            yield random_spin1(self.L, rng), random_spin1(self.L, rng)

    def prepare(self, tr) -> None:
        self.grid = tr.call("sht.make_grid", sht.make_grid, self.Lg)

    def run(self, inp):
        res = tenprod.vstp(inp[0], inp[1], self.L3, self.grid)
        return res.output, res.flops

    def _replay(self, inp, tr):
        fl = FlopCounter()
        out = _vstp_stages(tr, inp[0], inp[1], self.grid, self.L3, fl)
        return out, fl.count

    def prepare_reference(self, seed: int) -> None:
        self.ref_grid = sht.make_grid(self.Lg_ref)

    def check(self, inp, out) -> float:
        # The product of two band-L signals is band-limited at 2L = L3, so
        # re-encoding the output on a grid of another degree must equal the
        # pointwise product sampled on that grid.
        x, y = inp
        g = self.ref_grid
        lhs = tsh.tsh_encode(out, g).values
        rhs = tenprod.pointwise_spin_tp(tsh.tsh_encode(x, g), tsh.tsh_encode(y, g), 1).values
        return _rel_err(lhs, rhs)


class CgtpSim(Workload):
    """``tenprod.simulate_cgtp_path`` over every triangle-valid (j1, j2, j3), j <= J."""

    name = "cgtp_sim"
    root = "tenprod.simulate_cgtp_path"
    tolerance = 1e-10

    def __init__(self, J: int = 10, cycle_macs: int = 36_442_041):
        self.paths = [(j1, j2, j3) for j1 in range(J + 1) for j2 in range(J + 1)
                      for j3 in range(abs(j1 - j2), min(j1 + j2, J) + 1)]
        self.cycle = len(self.paths)
        self.setup_ops = self.cycle
        self.cycle_macs = cycle_macs

    def inputs(self, seed: int, part: int = 0, parts: int = 1):
        rng = np.random.default_rng([seed, part])
        k = 0
        while True:
            j1, j2, j3 = self.paths[k]
            yield k, _cvec(2 * j1 + 1, rng), _cvec(2 * j2 + 1, rng), j3
            k = (k + 1) % self.cycle

    def run(self, inp):
        _, x, y, j3 = inp
        fl = FlopCounter()
        z = tenprod.simulate_cgtp_path(x, y, j3, flops=fl)
        return z, fl.count

    def _replay(self, inp, tr):
        _, x, y, j3 = inp
        j1, j2 = (x.size - 1) // 2, (y.size - 1) // 2
        if (j1, j2, j3) == (0, 0, 0):
            return x * y, 1
        l1, l2, l3 = tr.call("rules.find_valid_ells", rules.find_valid_ells, j1, j2, j3)
        grid = tr.call("sht.make_grid", sht.make_grid, l1 + l2)
        X = tsh.TshCoeffs(s=1, L=l1, blocks={(j1, l1): x})
        Y = tsh.TshCoeffs(s=1, L=l2, blocks={(j2, l2): y})
        fl = FlopCounter()
        out = _vstp_stages(tr, X, Y, grid, l3, fl)
        coef = tr.call("rules.generalized_gaunt", rules.generalized_gaunt,
                       rules.PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1))
        if abs(coef) < 1e-13:
            raise tenprod.NumericalDegeneracy(f"path coefficient {coef}")
        return out.block(j3, l3) / coef, fl.count

    def check(self, inp, out) -> float:
        _, x, y, j3 = inp
        return _rel_err(out, tenprod.cgtp_path(x, y, j3, mode="sparse"))

    def mac_key(self, inp):
        return inp[0]


class CgtpCoeff(Workload):
    """``tenprod.cgtp_full`` sparse, MIMO: one block per degree up to L, outputs to L3."""

    name = "cgtp_coeff"
    root = "tenprod.cgtp_full"
    tolerance = 1e-10

    def __init__(self, L: int = 16, L3: int = 32, cycle_macs: int = 1_135_889,
                 pool: int = 16, sample: int = 8):
        self.L, self.L3 = L, L3
        self.cycle_macs = cycle_macs
        self.pool_size, self.sample = pool, sample
        self.paths = [(j1, j2, j3) for j1 in range(L + 1) for j2 in range(L + 1)
                      for j3 in range(abs(j1 - j2), min(j1 + j2, L3) + 1)]

    def inputs(self, seed: int, part: int = 0, parts: int = 1):
        rng = np.random.default_rng([seed, part])
        while True:
            yield random_irreps(self.L, rng), random_irreps(self.L, rng)

    def run(self, inp):
        res = tenprod.cgtp_full(inp[0], inp[1], self.L3, mode="sparse")
        return res.output, res.flops

    def _replay(self, inp, tr):
        xs = inp[0].single_per_degree()
        ys = inp[1].single_per_degree()
        fl = FlopCounter()
        out = sht.IrrepCoeffs(L=self.L3, blocks={})
        for j1, xv in sorted(xs.items()):
            for j2, yv in sorted(ys.items()):
                for j3 in range(abs(j1 - j2), min(j1 + j2, self.L3) + 1):
                    z = tr.call("tenprod.cgtp_path", tenprod.cgtp_path, xv, yv, j3,
                                mode="sparse", flops=fl)
                    out.set_block(j3, z, tag=(j1, j2))
        return out, fl.count

    def prepare_reference(self, seed: int) -> None:
        # Exact CG values cost ~0.1 ms each, so the per-op sample is drawn
        # from a seeded pool of paths whose tables are built once here.  One
        # path from each size stratum keeps the pool's cost and memory, which
        # land in the workload's peak RSS, the same for every seed.
        rng = np.random.default_rng([seed, 1])
        by_size = np.argsort([(2 * j1 + 1) * (2 * j2 + 1) for j1, j2, _ in self.paths],
                             kind="stable")
        picks = [rng.choice(stratum) for stratum in np.array_split(by_size, self.pool_size)]
        self.pool = [self.paths[i] for i in sorted(picks)]
        self.tables = {p: self._cg_table(*p) for p in self.pool}
        self.check_rng = np.random.default_rng([seed, 2])

    @staticmethod
    def _cg_table(j1: int, j2: int, j3: int):
        """(C[m1, m2] from exact CG, output index m1 + m2 + j3, in-range mask)."""
        m1 = np.arange(-j1, j1 + 1)[:, None]
        m2 = np.arange(-j2, j2 + 1)[None, :]
        m3 = m1 + m2
        valid = np.abs(m3) <= j3
        C = np.zeros(valid.shape)
        for a, b in zip(*np.nonzero(valid)):
            C[a, b] = angular.cg_float(j1, a - j1, j2, b - j2, j3, a - j1 + b - j2)
        return C, (m3 + j3)[valid], valid

    def check(self, inp, out) -> float:
        values = np.concatenate([v for _, v in out.items()])
        if not np.all(np.isfinite(values)):
            return math.nan
        xs, ys = inp[0].single_per_degree(), inp[1].single_per_degree()
        worst = 0.0
        for i in self.check_rng.choice(len(self.pool), size=self.sample, replace=False):
            j1, j2, j3 = p = self.pool[i]
            C, idx, valid = self.tables[p]
            terms = (C * np.multiply.outer(xs[j1], ys[j2]))[valid]
            want = (np.bincount(idx, terms.real, minlength=2 * j3 + 1)
                    + 1j * np.bincount(idx, terms.imag, minlength=2 * j3 + 1))
            got = out.get(j3, (j1, j2))
            worst = max(worst, _rel_err(got, want) if got is not None else math.inf)
        return worst


class RulesExact(Workload):
    """``rules.vstp_rules`` on distinct spin-1 paths, every degree <= D."""

    name = "rules_exact"
    root = "rules_exact.op"
    setup_ops = 0
    cycle_macs = 0
    tolerance = 1e-12

    def __init__(self, D: int = 10):
        tri = angular.triangle_delta
        self.paths = [
            rules.PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1)
            for j1 in range(D + 1) for j2 in range(D + 1)
            for j3 in range(abs(j1 - j2), min(j1 + j2, D) + 1)
            for l1 in range(max(j1 - 1, 0), min(j1 + 1, D) + 1)
            for l2 in range(max(j2 - 1, 0), min(j2 + 1, D) + 1)
            for l3 in range(max(j3 - 1, 0), min(j3 + 1, D) + 1)
            if tri(l1, l2, l3)
        ]

    def inputs(self, seed: int, part: int = 0, parts: int = 1):
        """Each path at most once per run, whose workers share out one seeded
        order; the stream ends when the worker's share is used.

        The order deals the paths of every total degree evenly through the
        stream, so each run's prefix holds the same mix of path sizes (and
        costs) whatever the seed.
        """
        rng = np.random.default_rng(seed)
        size = np.array([sum(p) for p in self.paths])
        shuffled = rng.permutation(len(self.paths))
        place = np.empty(len(self.paths))
        for s in np.unique(size):
            members = shuffled[size[shuffled] == s]
            place[members] = (np.arange(len(members)) + rng.random()) / len(members)
        for i in np.argsort(place, kind="stable")[part::parts]:
            yield self.paths[i]

    def run(self, inp):
        return rules.vstp_rules(inp), 0

    def _replay(self, p, tr):
        tr.call("angular.wigner_9j", angular.wigner_9j,
                ((p.j1, p.l1, 1), (p.j2, p.l2, 1), (p.j3, p.l3, 1)))
        tr.call("angular.cg_zero", angular.cg_zero, p.l1, p.l2, p.l3)
        return tr.call("rules.vstp_rules", rules.vstp_rules, p), 0

    def check(self, p, report) -> float:
        """Zero error iff the verdict matches exact arithmetic; else the float
        deviation of the 9j and of the coefficient from the closed forms."""
        if report.passed != (not rules.generalized_gaunt_exact(p).is_zero()):
            return math.inf
        spin1 = angular.wigner_9j_spin1(p.l1, p.j1 - p.l1, p.l2, p.j2 - p.l2,
                                        p.l3, p.j3 - p.l3)
        nine = float(angular.wigner_9j(((p.j1, p.l1, 1), (p.j2, p.l2, 1), (p.j3, p.l3, 1))))
        dims = (2 * p.j1 + 1) * (2 * p.j2 + 1) * (2 * p.l1 + 1) * (2 * p.l2 + 1) * 3
        coef = (math.sqrt(dims / (4.0 * math.pi)) * spin1
                * angular.cg_float(p.l1, 0, p.l2, 0, p.l3, 0))
        if not math.isfinite(report.coefficient):
            return math.nan
        return max(abs(nine - spin1), abs(report.coefficient - coef))


WORKLOADS = {w.name: w for w in (GridMimo, CgtpSim, CgtpCoeff, RulesExact)}
