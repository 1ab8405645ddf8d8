"""Tests for the FLOP-instrumented benchmark harness."""

import csv
import itertools

import numpy as np
import pytest

from so3tp import rules, tenprod
from so3tp.bench import (
    METHODS,
    BenchRecord,
    FlopBudgetExceeded,
    emit_csv,
    emit_svg,
    fit_slope,
    projected_flops,
    run_bench,
)
from so3tp.rules import find_pair_ells
from so3tp.sht import make_grid, random_block
from so3tp.tenprod import cgtp_path, pair_macs, simulate_cgtp_all_paths, vstp
from so3tp.tsh import TshCoeffs


def test_siso_naive_flops_closed_form():
    for L in (1, 2, 4):
        recs = run_bench("cgtp_naive", "SISO", [L], repeats=1, seed=0)
        assert recs[0].flops == (2 * L + 1) ** 3
    recs = run_bench("cgtp_sparse", "SISO", [1], repeats=1, seed=0)
    assert recs[0].flops == pair_macs("sparse", 1, 1, 1, 1)


def test_mimo_naive_flops_is_path_sum():
    recs = run_bench("cgtp_naive", "MIMO", [1], repeats=1, seed=0)
    assert recs[0].flops == 1 + 9 + 9 + 9 + 27 + 45


# MAC counts at L = 2, 4, 8 for every method and setting; a refactor must
# reproduce them exactly
_PINNED_FLOPS = {
    ("cgtp_naive", "SISO"): (125, 729, 4913),
    ("cgtp_naive", "SIMO"): (625, 6561, 83521),
    ("cgtp_naive", "MIMO"): (1225, 27225, 938961),
    ("cgtp_sparse", "SISO"): (19, 61, 217),
    ("cgtp_sparse", "SIMO"): (85, 489, 3281),
    ("cgtp_sparse", "MIMO"): (195, 2501, 47241),
    # spin 0 is the identity coupling, so gtp counts no coupling MACs and
    # its SIMO and MIMO products cost the same
    ("gtp_grid", "SISO"): (855, 4959, 33303),
    ("gtp_grid", "SIMO"): (1115, 6687, 45815),
    ("gtp_grid", "MIMO"): (1115, 6687, 45815),
    ("vstp_grid", "SISO"): (2830, 15726, 102910),
    ("vstp_grid", "SIMO"): (3738, 21382, 142254),
    ("vstp_grid", "MIMO"): (3830, 21706, 143474),
    ("istp_grid", "SISO"): (5070, 27462, 176214),
    ("istp_grid", "SIMO"): (6690, 37342, 243654),
    ("istp_grid", "MIMO"): (6906, 38158, 246870),
}


@pytest.mark.parametrize("method,setting", sorted(_PINNED_FLOPS))
def test_flops_pinned(method, setting):
    recs = run_bench(method, setting, [2, 4, 8], repeats=1, seed=0)
    assert tuple(r.flops for r in recs) == _PINNED_FLOPS[(method, setting)]


def test_flops_pinned_cgtp_coeff_shape():
    # MIMO L=16 decoded at L3=32: the shape of the perfbench cgtp_coeff workload
    recs = run_bench("cgtp_sparse", "MIMO", [16], repeats=1, seed=0)
    assert recs[0].flops == 1_135_889


# ---------------------------------------------------------------- full CGTP simulation

def test_simulation_runs_one_product_per_degree_pair(monkeypatch):
    calls, grids = [], []
    pair_product = tenprod._pair_product

    def counting_pair_product(x, y, l1, l2, L3, flops):
        j1, j2 = (x.size - 1) // 2, (y.size - 1) // 2
        calls.append((j1, j2))
        packed = pair_product(x, y, l1, l2, L3, flops)
        # grids[-1] is the degree of the grid this product ran on
        assert (l1, l2) == find_pair_ells(j1, j2) and L3 == grids[-1] == l1 + l2
        return packed

    def recording_make_grid(Lg):
        grids.append(Lg)
        return make_grid(Lg)

    monkeypatch.setattr(tenprod, "_pair_product", counting_pair_product)
    monkeypatch.setattr(tenprod, "make_grid", recording_make_grid)
    simulate_cgtp_all_paths(4)
    assert sorted(calls) == [p for p in itertools.product(range(5), repeat=2) if p != (0, 0)]


def test_simulation_flops_pinned():
    # one spin-1 product per degree pair, plus one MAC for the scalar path
    assert simulate_cgtp_all_paths(8) == 2_022_593
    assert simulate_cgtp_all_paths(16) == 54_006_145


def test_pair_product_recovers_every_path():
    # each j3 of a pair comes back from the pair's one product: its
    # (j3, l3) block with the largest path coefficient, divided by it
    rng = np.random.default_rng(5)
    for j1, j2 in itertools.product(range(7), repeat=2):
        if (j1, j2) == (0, 0):
            continue
        x, y = random_block(j1, rng), random_block(j2, rng)
        l1, l2 = find_pair_ells(j1, j2)
        out = vstp(TshCoeffs(s=1, L=l1, blocks={(j1, l1): x}),
                   TshCoeffs(s=1, L=l2, blocks={(j2, l2): y}),
                   l1 + l2, make_grid(l1 + l2)).output
        for j3 in range(abs(j1 - j2), j1 + j2 + 1):
            coef, l3 = max(((rules._path_coefficient(j1, l1, j2, l2, j3, l3), l3)
                            for l3 in range(abs(j3 - 1), min(j3 + 1, l1 + l2) + 1)),
                           key=lambda c: abs(c[0]))
            z = out.block(j3, l3) / coef
            ref = cgtp_path(x, y, j3)
            assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref), (j1, j2, j3)


def test_flops_deterministic_and_data_independent():
    a = run_bench("vstp_grid", "MIMO", [2, 4], repeats=3, seed=1)
    b = run_bench("vstp_grid", "MIMO", [2, 4], repeats=1, seed=999)
    assert [r.flops for r in a] == [r.flops for r in b]
    assert all(r.repeats == 3 for r in a)


def test_run_bench_argument_errors():
    with pytest.raises(ValueError):
        run_bench("cgtp_naive", "MIMO", [4, 2], repeats=1, seed=0)  # not ascending
    with pytest.raises(ValueError):
        run_bench("cgtp_naive", "nope", [2], repeats=1, seed=0)
    with pytest.raises(ValueError):
        run_bench("nope", "MIMO", [2], repeats=1, seed=0)
    with pytest.raises(ValueError):
        run_bench("cgtp_naive", "MIMO", [2], repeats=0, seed=0)
    with pytest.raises(ValueError, match="repeats=1.5 must be an integer"):
        run_bench("cgtp_naive", "MIMO", [2], repeats=1.5, seed=0)


@pytest.mark.parametrize("L_list,seed,named", [([0, 1, 2], 0, "L=0"), ([-1, 2], 0, "L=-1"),
                                               ([1, 2], -3, "seed=-3"),
                                               ([2.5], 0, "L=2.5 must be an integer"),
                                               ([1, 2.0], 0, "L=2.0 must be an integer"),
                                               ([1, 2], 1.5, "seed=1.5 must be an integer")])
def test_run_bench_names_a_band_limit_below_one_or_a_negative_seed(L_list, seed, named):
    # log L in the slope fit and the chart needs L >= 1; numpy's seeding needs seed >= 0;
    # a float among them is named before any range check
    with pytest.raises(ValueError, match=named):
        run_bench("cgtp_sparse", "MIMO", L_list, repeats=1, seed=seed)


@pytest.mark.parametrize("L, message", [(-1, "L=-1 must be non-negative"),
                                        (2.5, "L=2.5 must be an integer")],
                         ids=["negative", "non_integer"])
def test_simulate_cgtp_all_paths_names_a_bad_band_limit(L, message):
    with pytest.raises(ValueError, match=message):
        simulate_cgtp_all_paths(L)


def test_flop_budget_guard(monkeypatch):
    # the environment variable is the one override; a budget equal to the
    # projection admits the cell
    budget = projected_flops("cgtp_naive", "MIMO", 8)
    monkeypatch.setenv("SO3TP_FLOP_BUDGET", str(budget))
    assert run_bench("cgtp_naive", "MIMO", [8], repeats=1, seed=0)[0].flops == budget
    monkeypatch.setenv("SO3TP_FLOP_BUDGET", "10")
    with pytest.raises(FlopBudgetExceeded, match="SO3TP_FLOP_BUDGET"):
        run_bench("cgtp_naive", "MIMO", [8], repeats=1, seed=0)


def test_flop_budget_that_is_not_an_integer_is_named(monkeypatch):
    monkeypatch.setenv("SO3TP_FLOP_BUDGET", "abc")
    with pytest.raises(ValueError, match="SO3TP_FLOP_BUDGET must be an integer.*'abc'"):
        run_bench("cgtp_sparse", "MIMO", [1], repeats=1, seed=0)


def test_projected_flops_tracks_actuals():
    Ls = [1, 2, 4, 8]
    for method in METHODS:
        for setting in ("SISO", "SIMO", "MIMO"):
            recs = run_bench(method, setting, Ls, repeats=1, seed=0)
            for L, rec in zip(Ls, recs):
                assert projected_flops(method, setting, L) == rec.flops, (method, setting, L)


def test_fit_slope_exact_power_law():
    recs = [BenchRecord("m", "MIMO", L, L ** 3, 0.0, 1) for L in (8, 16, 32, 64)]
    fit = fit_slope(recs)
    assert fit.slope == pytest.approx(3.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.L_range == (8, 64)


def test_fit_slope_preconditions():
    recs = [BenchRecord("m", "MIMO", L, L ** 2, 0.0, 1) for L in (8, 16, 32)]
    with pytest.raises(ValueError):
        fit_slope(recs)  # fewer than 4 records
    same = [BenchRecord("m", "MIMO", 8, 10 + i, 0.0, 1) for i in range(4)]
    with pytest.raises(ValueError):
        fit_slope(same)  # degenerate L range
    zero = [BenchRecord("m", "MIMO", L, 0, 0.0, 1) for L in (2, 4, 8, 16)]
    with pytest.raises(ValueError):
        fit_slope(zero)


def test_csv_round_trip(tmp_path):
    recs = run_bench("cgtp_sparse", "SISO", [1, 2, 4], repeats=2, seed=5)
    path = tmp_path / "bench.csv"
    emit_csv(recs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,setting,L,flops,walltime_s,repeats"
    assert len(lines) == 4
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [BenchRecord(method=row["method"], setting=row["setting"], L=int(row["L"]),
                        flops=int(row["flops"]), walltime_s=float(row["walltime_s"]),
                        repeats=int(row["repeats"])) for row in rows] == recs


def test_csv_single_record(tmp_path):
    recs = run_bench("cgtp_naive", "SISO", [1], repeats=1, seed=0)
    path = tmp_path / "one.csv"
    emit_csv(recs, path)
    assert len(path.read_text().splitlines()) == 2


def test_emit_empty_errors(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "x.csv")
    with pytest.raises(ValueError):
        emit_svg([], tmp_path / "x.svg")


def test_emit_svg_polyline_per_method(tmp_path):
    recs = (run_bench("cgtp_sparse", "SISO", [2, 4, 8], repeats=1, seed=0)
            + run_bench("gtp_grid", "SISO", [2, 4, 8], repeats=1, seed=0))
    path = tmp_path / "plot.svg"
    emit_svg(recs, path)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert text.startswith("<svg")
    assert "</svg>" in text


def test_emit_csv_unwritable_path(tmp_path):
    recs = run_bench("cgtp_naive", "SISO", [1], repeats=1, seed=0)
    with pytest.raises(OSError):
        emit_csv(recs, tmp_path / "missing_dir" / "x.csv")
