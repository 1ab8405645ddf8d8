"""FLOP-instrumented benchmark harness.

Measures MAC counts and advisory walltimes for the tensor product
implementations across three I/O settings:

* SISO -- one coupling path, degrees pinned to the band limit L;
* SIMO -- fixed single inputs of degree L, every admissible output;
* MIMO -- single-copy inputs for every degree (or every valid (j, l)
  key) up to L, outputs up to 2L.

Scaling claims are judged on MAC counts: they are deterministic,
machine-independent, and identical across repeats; walltime is recorded
as the median over repeats for orientation only.  Grid methods size the
quadrature grid at the product band limit (Lg = 2L), so their counts
follow the transform cost.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .angular import triangle_delta
from .flops import FlopCounter
from .sht import make_grid, random_block, random_coeffs
from .tenprod import cgtp_full, cgtp_path, istp, sparse_pair_count, vstp
from .tsh import TshCoeffs, random_tsh_coeffs

__all__ = [
    "METHODS",
    "SETTINGS",
    "BenchRecord",
    "SlopeFit",
    "FlopBudgetExceeded",
    "run_bench",
    "fit_slope",
    "emit_csv",
    "parse_csv",
    "emit_svg",
    "simulate_cgtp_all_paths",
]

METHODS = ("cgtp_naive", "cgtp_sparse", "gtp_grid", "vstp_grid", "istp_grid")
SETTINGS = ("SISO", "SIMO", "MIMO")

# istp_grid benchmarks the generic spin pipeline at a representative
# spin above the scalar/vector specializations
_ISTP_SPIN = 2

# the default budget admits the stock L = 4..32 MIMO grid for every
# method (naive CGTP at L = 32 projects ~2.3e9 MACs)
_BUDGET_ENV = "SO3TP_FLOP_BUDGET"
_DEFAULT_BUDGET = 4_000_000_000


class FlopBudgetExceeded(RuntimeError):
    """Projected cell cost exceeds the configured flop budget."""


@dataclass(frozen=True)
class BenchRecord:
    method: str
    setting: str
    L: int
    flops: int
    walltime_s: float
    repeats: int


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(flops) against log(L)."""

    slope: float
    intercept: float
    r2: float
    L_range: tuple[int, int]


def _run_cgtp(mode: str, setting: str, L: int, rng: np.random.Generator) -> int:
    if setting == "MIMO":
        return cgtp_full(random_coeffs(L, rng), random_coeffs(L, rng), 2 * L, mode=mode).flops
    fl = FlopCounter()
    x, y = random_block(L, rng), random_block(L, rng)
    for j3 in ([L] if setting == "SISO" else range(2 * L + 1)):
        cgtp_path(x, y, j3, mode=mode, flops=fl)
    return fl.count


def _run_grid(s: int, setting: str, L: int, rng: np.random.Generator) -> int:
    grid = make_grid(2 * L)
    if setting == "MIMO":
        x = random_tsh_coeffs(s, L, rng)
        y = random_tsh_coeffs(s, L, rng)
    else:
        x = TshCoeffs(s=s, L=L, blocks={(L, L): random_block(L, rng)})
        y = TshCoeffs(s=s, L=L, blocks={(L, L): random_block(L, rng)})
    return istp(x, y, s, L if setting == "SISO" else 2 * L, grid).flops


def _run_cell(method: str, setting: str, L: int, rng: np.random.Generator) -> int:
    if method == "cgtp_naive":
        return _run_cgtp("naive", setting, L, rng)
    if method == "cgtp_sparse":
        return _run_cgtp("sparse", setting, L, rng)
    if method == "gtp_grid":
        return _run_grid(0, setting, L, rng)
    if method == "vstp_grid":
        return _run_grid(1, setting, L, rng)
    if method == "istp_grid":
        return _run_grid(_ISTP_SPIN, setting, L, rng)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def _transform_estimate(L_band: int, Lg: int) -> int:
    n_theta, n_phi = Lg + 1, 2 * Lg + 1
    return n_theta * (L_band + 1) ** 2 + n_theta * n_phi * (2 * L_band + 1)


def projected_flops(method: str, setting: str, L: int) -> int:
    """Cheap upper-bound estimate used by the budget guard."""
    if method.startswith("cgtp"):
        naive = method == "cgtp_naive"

        def path(j1, j2, j3):
            return ((2 * j1 + 1) * (2 * j2 + 1) * (2 * j3 + 1) if naive
                    else sparse_pair_count(j1, j2, j3))

        if setting == "SISO":
            return path(L, L, L)
        if setting == "SIMO":
            return sum(path(L, L, j3) for j3 in range(2 * L + 1))
        return sum(path(j1, j2, j3)
                   for j1 in range(L + 1) for j2 in range(L + 1)
                   for j3 in range(abs(j1 - j2), min(j1 + j2, 2 * L) + 1))
    s = {"gtp_grid": 0, "vstp_grid": 1, "istp_grid": _ISTP_SPIN}[method]
    Lg = 2 * L
    n_components = 2 * s + 1
    transforms = 3 * n_components * _transform_estimate(Lg, Lg)
    pointwise = (Lg + 1) * (2 * Lg + 1) * (2 * s + 1) ** 2
    coupling = 3 * n_components * (2 * s + 1) * (L + 1) ** 2
    return transforms + pointwise + coupling


def run_bench(method: str, setting: str, L_list, repeats: int, seed: int,
              flop_budget: int | None = None) -> list[BenchRecord]:
    """One record per L: deterministic MAC count plus median walltime.

    ``L_list`` must be ascending.  A cell whose projected cost exceeds the
    flop budget (argument, else the SO3TP_FLOP_BUDGET environment
    variable, else 4e9) raises FlopBudgetExceeded before running.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; choose from {SETTINGS}")
    if list(L_list) != sorted(L_list):
        raise ValueError("L_list must be ascending")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if flop_budget is None:
        flop_budget = int(os.environ.get(_BUDGET_ENV, _DEFAULT_BUDGET))
    records = []
    for idx, L in enumerate(L_list):
        projected = projected_flops(method, setting, L)
        if projected > flop_budget:
            raise FlopBudgetExceeded(
                f"{method}/{setting} at L={L}: projected {projected} MACs "
                f"exceeds budget {flop_budget} (override via {_BUDGET_ENV})")
        flops = None
        times = []
        for _rep in range(repeats):
            rng = np.random.default_rng([seed, idx, L])
            t0 = time.perf_counter()
            count = _run_cell(method, setting, L, rng)
            times.append(time.perf_counter() - t0)
            if flops is None:
                flops = count
            elif count != flops:
                raise AssertionError(f"flops varied across repeats: {flops} vs {count}")
        records.append(BenchRecord(method=method, setting=setting, L=L, flops=flops,
                                   walltime_s=float(np.median(times)), repeats=repeats))
    return records


def fit_slope(records) -> SlopeFit:
    """Least-squares fit of log(flops) vs log(L) over >= 4 records."""
    records = list(records)
    if len(records) < 4:
        raise ValueError("need at least 4 records to fit a slope")
    Ls = np.array([r.L for r in records], dtype=float)
    flops = np.array([r.flops for r in records], dtype=float)
    if (flops <= 0).any() or (Ls <= 0).any():
        raise ValueError("records must have positive L and flops")
    if np.unique(Ls).size < 2:
        raise ValueError("degenerate L range")
    logL, logF = np.log(Ls), np.log(flops)
    slope, intercept = np.polyfit(logL, logF, 1)
    resid = logF - (slope * logL + intercept)
    ss_tot = float(((logF - logF.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return SlopeFit(slope=float(slope), intercept=float(intercept), r2=r2,
                    L_range=(int(Ls.min()), int(Ls.max())))


_CSV_COLUMNS = ("method", "setting", "L", "flops", "walltime_s", "repeats")


def emit_csv(records, path) -> None:
    records = list(records)
    if not records:
        raise ValueError("no records to emit")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in records:
            writer.writerow([r.method, r.setting, r.L, r.flops, repr(r.walltime_s), r.repeats])


def parse_csv(path) -> list[BenchRecord]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != _CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns {reader.fieldnames}")
        for row in reader:
            out.append(BenchRecord(method=row["method"], setting=row["setting"],
                                   L=int(row["L"]), flops=int(row["flops"]),
                                   walltime_s=float(row["walltime_s"]),
                                   repeats=int(row["repeats"])))
    return out


def emit_svg(records, path) -> None:
    """Log-log chart of flops vs L, one polyline per (method, setting)."""
    records = list(records)
    if not records:
        raise ValueError("no records to plot")
    width, height, margin = 640, 440, 56
    series: dict[tuple[str, str], list[BenchRecord]] = {}
    for r in records:
        series.setdefault((r.method, r.setting), []).append(r)
    xs = np.log10([r.L for r in records])
    ys = np.log10([max(r.flops, 1) for r in records])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(v):
        return margin + (v - x_lo) / x_span * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / y_span * (height - 2 * margin)

    palette = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910",
               "#16a085", "#7f8c8d", "#2c3e50")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">log10 L</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2:.1f})">log10 flops</text>',
    ]
    for i, (key, rs) in enumerate(sorted(series.items())):
        rs = sorted(rs, key=lambda r: r.L)
        color = palette[i % len(palette)]
        pts = " ".join(f"{sx(math.log10(r.L)):.2f},{sy(math.log10(max(r.flops, 1))):.2f}"
                       for r in rs)
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for r in rs:
            lines.append(f'<circle cx="{sx(math.log10(r.L)):.2f}" '
                         f'cy="{sy(math.log10(max(r.flops, 1))):.2f}" r="3" fill="{color}"/>')
        label = "/".join(key)
        if len(rs) >= 2:
            fit = np.polyfit(np.log([r.L for r in rs]), np.log([r.flops for r in rs]), 1)
            label += f" (slope {fit[0]:.2f})"
        lines.append(f'<text x="{width - margin + 4}" y="{margin + 16 * i}" font-size="11" '
                     f'fill="{color}" text-anchor="end">{label}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def simulate_cgtp_all_paths(L: int, seed: int) -> int:
    """MACs spent simulating every coupling path of 0..L inputs via vector signals.

    For each degree pair (j1, j2), one vector-signal product runs per
    admissible orbital pair (l1, l2) -- at most nine -- and each product
    yields all its (j3, l3) outputs at once.  Returns the total MAC count.
    """
    rng = np.random.default_rng([seed, L])
    fl = FlopCounter()
    fl.add(1)  # the (0,0,0) scalar path
    for j1 in range(L + 1):
        for j2 in range(L + 1):
            x = random_block(j1, rng)
            y = random_block(j2, rng)
            for l1 in range(max(0, j1 - 1), j1 + 2):
                if not triangle_delta(j1, l1, 1):
                    continue
                for l2 in range(max(0, j2 - 1), j2 + 2):
                    if not triangle_delta(j2, l2, 1):
                        continue
                    X = TshCoeffs(s=1, L=l1, blocks={(j1, l1): x})
                    Y = TshCoeffs(s=1, L=l2, blocks={(j2, l2): y})
                    res = vstp(X, Y, l1 + l2, make_grid(l1 + l2))
                    fl.add(res.flops)
    return fl.count
