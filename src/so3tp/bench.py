"""FLOP-instrumented benchmark harness.

Measures MAC counts and advisory walltimes for the tensor product
implementations across three I/O settings:

* SISO -- one coupling path, degrees pinned to the band limit L;
* SIMO -- fixed single inputs of degree L, every admissible output;
* MIMO -- single-copy inputs for every degree (or every valid (j, l)
  key) up to L, outputs up to 2L.

Each cell is one library call (``cgtp_path``, ``cgtp_full`` or ``istp``).
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

from .angular import _as_integers
from .flops import FlopCounter
from .sht import IrrepCoeffs, make_grid, random_block, transform_macs
from .tenprod import cgtp_full, cgtp_path, istp, pair_macs
from .tsh import TshCoeffs, valid_pairs

__all__ = [
    "METHODS",
    "SETTINGS",
    "BenchRecord",
    "SlopeFit",
    "FlopBudgetExceeded",
    "run_bench",
    "fit_slope",
    "emit_csv",
    "emit_svg",
]

SETTINGS = ("SISO", "SIMO", "MIMO")

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
    if setting == "SISO":
        fl = FlopCounter()
        cgtp_path(random_block(L, rng), random_block(L, rng), L, mode=mode, flops=fl)
        return fl.count
    degrees = range(L + 1) if setting == "MIMO" else [L]
    x = IrrepCoeffs(L=L, blocks={(j, None): random_block(j, rng) for j in degrees})
    y = IrrepCoeffs(L=L, blocks={(j, None): random_block(j, rng) for j in degrees})
    return cgtp_full(x, y, 2 * L, mode=mode).flops


def _run_grid(s: int, setting: str, L: int, rng: np.random.Generator) -> int:
    keys = valid_pairs(s, L) if setting == "MIMO" else [(L, L)]
    x = TshCoeffs(s=s, L=L, blocks={(j, l): random_block(j, rng) for j, l in keys})
    y = TshCoeffs(s=s, L=L, blocks={(j, l): random_block(j, rng) for j, l in keys})
    return istp(x, y, s, L if setting == "SISO" else 2 * L, make_grid(2 * L)).flops


def _project_cgtp(mode: str, setting: str, L: int) -> int:
    if setting == "MIMO":
        return sum(pair_macs(mode, j1, j2, abs(j1 - j2), min(j1 + j2, 2 * L))
                   for j1 in range(L + 1) for j2 in range(L + 1))
    lo, hi = (L, L) if setting == "SISO" else (0, 2 * L)
    return pair_macs(mode, L, L, lo, hi)


def _project_grid(s: int, setting: str, L: int) -> int:
    def coupling(keys):  # the CG coupling of (j, l) blocks to spin components; none at s = 0
        return sum(pair_macs("sparse", l, s, j, j) for j, l in keys) if s else 0

    L3 = L if setting == "SISO" else 2 * L
    keys = valid_pairs(s, L) if setting == "MIMO" else [(L, L)]
    encode = coupling(keys) + (2 * s + 1) * transform_macs(2 * L, L)
    pointwise = pair_macs("sparse", s, s, s, s) * (2 * L + 1) * (4 * L + 1)
    decode = (2 * s + 1) * transform_macs(2 * L, L3) + coupling(valid_pairs(s, L3))
    return 2 * encode + pointwise + decode


# method -> (cell runner, cost projection, the CGTP mode or grid spin both
# take); istp_grid benchmarks the generic spin pipeline at a representative
# spin above the scalar/vector specializations
_METHOD_TABLE = {
    "cgtp_naive": (_run_cgtp, _project_cgtp, "naive"),
    "cgtp_sparse": (_run_cgtp, _project_cgtp, "sparse"),
    "gtp_grid": (_run_grid, _project_grid, 0),
    "vstp_grid": (_run_grid, _project_grid, 1),
    "istp_grid": (_run_grid, _project_grid, 2),
}
METHODS = tuple(_METHOD_TABLE)


def projected_flops(method: str, setting: str, L: int) -> int:
    """MACs a cell counts, composed from the kernels' closed forms; the budget guard reads it."""
    _run, project, arg = _METHOD_TABLE[method]
    return project(arg, setting, L)


def run_bench(method: str, setting: str, L_list, repeats: int, seed: int) -> list[BenchRecord]:
    """One record per L: deterministic MAC count plus median walltime.

    ``L_list`` must be ascending integers >= 1 (fits take log L), ``repeats``
    a positive integer and ``seed`` an integer >= 0.
    A cell whose ``projected_flops`` exceeds the flop budget (the
    SO3TP_FLOP_BUDGET environment variable, an integer, else 4e9) raises
    FlopBudgetExceeded before running.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; choose from {SETTINGS}")
    _as_integers([*L_list, repeats, seed], ("L",) * len(L_list) + ("repeats", "seed"))
    if list(L_list) != sorted(L_list):
        raise ValueError("L_list must be ascending")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if any(L < 1 for L in L_list):
        raise ValueError(f"every L must be at least 1, got L={min(L_list)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got seed={seed}")
    try:
        flop_budget = int(os.environ.get(_BUDGET_ENV, _DEFAULT_BUDGET))
    except ValueError as exc:
        raise ValueError(f"{_BUDGET_ENV} must be an integer: {exc}") from exc
    run, _, arg = _METHOD_TABLE[method]
    records = []
    for idx, L in enumerate(L_list):
        projected = projected_flops(method, setting, L)
        if projected > flop_budget:
            raise FlopBudgetExceeded(
                f"{method}/{setting} at L={L}: projected {projected} MACs "
                f"exceeds budget {flop_budget} (override via {_BUDGET_ENV})")
        counts, times = [], []
        for _rep in range(repeats):
            rng = np.random.default_rng([seed, idx, L])
            t0 = time.perf_counter()
            counts.append(run(arg, setting, L, rng))
            times.append(time.perf_counter() - t0)
        if len(set(counts)) > 1:
            raise AssertionError(f"flops varied across repeats: {counts}")
        records.append(BenchRecord(method=method, setting=setting, L=L, flops=counts[0],
                                   walltime_s=float(np.median(times)), repeats=repeats))
    return records


def _log_log_fit(Ls, counts) -> tuple[float, float]:
    """Least-squares (slope, intercept) of log(counts) against log(Ls)."""
    slope, intercept = np.polyfit(np.log(Ls), np.log(counts), 1)
    return float(slope), float(intercept)


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
    slope, intercept = _log_log_fit(Ls, flops)
    logL, logF = np.log(Ls), np.log(flops)
    resid = logF - (slope * logL + intercept)
    ss_tot = float(((logF - logF.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return SlopeFit(slope=slope, intercept=intercept, r2=r2,
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
            slope = _log_log_fit([r.L for r in rs], [r.flops for r in rs])[0]
            label += f" (slope {slope:.2f})"
        lines.append(f'<text x="{width - margin + 4}" y="{margin + 16 * i}" font-size="11" '
                     f'fill="{color}" text-anchor="end">{label}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

