"""Tests of the benchmark's own logic, on small instances of each workload.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import math

import numpy as np
import pytest

import workloads
from spans import NullTracer, Span, Tracer, op_totals, self_time, union_length
from stats import PROBE_REF_S, cpu_probe, percentile, samples_needed, speed_normalised
from so3tp.flops import FlopCounter

SMALL = {
    "grid_mimo": lambda: workloads.GridMimo(L=3, Lg=6, L3=6, Lg_ref=7, cycle_macs=None),
    "cgtp_sim": lambda: workloads.CgtpSim(J=2, cycle_macs=None),
    "cgtp_coeff": lambda: workloads.CgtpCoeff(L=3, L3=6, cycle_macs=None, pool=4, sample=4),
    "rules_exact": lambda: workloads.RulesExact(D=2),
}


def ready(name, seed=0):
    wl = SMALL[name]()
    wl.prepare(NullTracer())
    wl.prepare_reference(seed)
    return wl


def first_inputs(wl, seed, n):
    it = wl.inputs(seed)
    return [next(it) for _ in range(n)]


def flat(inp):
    """Every number in an op input, for equality tests."""
    if isinstance(inp, tuple) and hasattr(inp, "_fields"):  # PathKey
        return np.array(inp, dtype=float)
    parts = []
    for item in inp if isinstance(inp, tuple) else (inp,):
        if hasattr(item, "blocks"):
            parts += [np.asarray(v) for _, v in item.items()]
        else:
            parts.append(np.atleast_1d(np.asarray(item)))
    return np.concatenate([p.astype(complex).ravel() for p in parts])


# -- percentile: a tail needs ten samples beyond it ------------------------

def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(100), 90) == 89
    assert percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert samples_needed(90) == 100
    assert samples_needed(50) == 20


def test_percentile_is_order_free_and_exact_at_integer_ranks():
    xs = list(range(200, 0, -1))
    assert percentile(xs, 90) == 180  # no float rounding pushes rank 180 to 181
    with pytest.raises(ValueError):
        percentile(xs, 90.0)


def test_speed_normalisation_removes_a_uniform_slowdown():
    lat = [0.010, 0.012, 0.011]
    probes = [100e-6, 110e-6, 100e-6, 105e-6]
    norm = speed_normalised(lat, probes)
    slowed = speed_normalised([t * 1.5 for t in lat], [p * 1.5 for p in probes])
    assert slowed == pytest.approx(norm)
    # the slower bracketing probe stands for the op
    assert norm[0] == pytest.approx(0.010 * PROBE_REF_S / 110e-6)
    with pytest.raises(ValueError):
        speed_normalised(lat, probes[:-1])
    assert 0 < cpu_probe() < 1


# -- inputs are a function of the seed -------------------------------------

@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    wl = SMALL[name]()
    a, b, c = (first_inputs(wl, seed, 5) for seed in (7, 7, 8))
    assert all(np.array_equal(flat(x), flat(y)) for x, y in zip(a, b))
    assert any(not np.array_equal(flat(x), flat(y)) for x, y in zip(a, c))


def test_rules_exact_never_repeats_a_path_and_mixes_sizes_evenly():
    wl = workloads.RulesExact(D=6)
    seen = list(wl.inputs(1))
    assert len(seen) == len(set(seen)) == len(wl.paths)
    shares = [list(wl.inputs(1, k, 3)) for k in range(3)]
    assert sorted(p for share in shares for p in share) == sorted(wl.paths)
    whole = np.mean([sum(p) for p in wl.paths])
    prefix = np.mean([sum(p) for p in seen[: len(seen) // 20]])
    assert abs(prefix - whole) < 0.02 * whole


# -- reference checks accept the program and reject a perturbed block -------

@pytest.mark.parametrize("name", ["grid_mimo", "cgtp_sim", "cgtp_coeff"])
def test_reference_check_rejects_perturbed_block(name):
    wl = ready(name)
    for inp in first_inputs(wl, 3, wl.cycle if name == "cgtp_sim" else 2):
        out, _ = wl.run(inp)
        assert wl.check(inp, out) <= wl.tolerance
        if name == "cgtp_sim":
            bad = out.copy()
            bad[0] += 1e-6 * (1 + abs(bad[0]))
        else:
            key = ((wl.pool[0][2], wl.pool[0][:2]) if name == "cgtp_coeff"
                   else next(iter(out.blocks)))
            bad = type(out)(**{**vars(out), "blocks": dict(out.blocks)})
            bad.blocks[key] = bad.blocks[key] + 1e-6
        assert not wl.check(inp, bad) <= wl.tolerance


@pytest.mark.parametrize("name", ["grid_mimo", "cgtp_sim", "cgtp_coeff"])
def test_reference_check_rejects_non_finite_output(name):
    wl = ready(name)
    inp = first_inputs(wl, 3, 2)[-1]
    out, _ = wl.run(inp)
    if name == "cgtp_sim":
        out = out.copy()
        out[-1] = np.nan
    else:
        key = next(iter(out.blocks))
        out.blocks[key] = np.full_like(out.blocks[key], np.nan)
    assert math.isnan(wl.check(inp, out))


def test_rules_check_rejects_flipped_verdict_and_wrong_coefficient():
    wl = ready("rules_exact")
    for p in first_inputs(wl, 5, 20):
        report, _ = wl.run(p)
        assert wl.check(p, report) <= wl.tolerance
        flipped = type(report)(**{**vars(report), "passed": not report.passed})
        assert wl.check(p, flipped) == math.inf
        off = type(report)(**{**vars(report), "coefficient": report.coefficient + 1e-9})
        assert not wl.check(p, off) <= wl.tolerance


# -- the traced replay is the op -------------------------------------------

@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_replay_matches_the_op(name):
    wl = ready(name)
    tracer = Tracer()
    for inp in first_inputs(wl, 4, wl.cycle if name == "cgtp_sim" else 3):
        out, macs = wl.run(inp)
        tracer.op = 0
        out_t, macs_t = wl.traced(inp, tracer)
        assert macs_t == macs
        assert wl.check(inp, out_t) <= wl.tolerance
    assert tracer.spans and all(s is not None for s in tracer.spans)


# -- self time is the span minus the union of its children ------------------

def _span(i, parent, start, end, name="child"):
    return Span(i, parent, 0, "loop", name, start, end, 0)


def test_self_time_subtracts_union_of_children():
    root = _span(0, None, 0, 100, "root")
    kids = [_span(1, 0, 10, 30), _span(2, 0, 20, 50), _span(3, 0, 60, 70),
            _span(4, 0, 90, 120)]  # overlapping, and one running past the root
    assert union_length([(10, 30), (20, 50), (60, 70)]) == 50
    assert self_time(root, kids) == 100 - (40 + 10 + 10)
    assert self_time(root, []) == 100
    (totals,) = op_totals([root] + kids)
    assert totals.self_ns["root"] == 40
    assert totals.duration_ns["child"] == 20 + 30 + 10 + 30


def test_tracer_nests_spans_and_records_macs():
    tracer = Tracer()
    tracer.op = 3

    def inner(flops):
        flops.add(5)

    def outer():
        fl = FlopCounter()
        tracer.call("inner", inner, flops=fl)
        tracer.call("inner", inner, flops=fl)

    tracer.call("outer", outer)
    outer_span, a, b = tracer.spans
    assert outer_span.parent is None and a.parent == b.parent == outer_span.span_id
    assert (a.macs, b.macs, outer_span.macs) == (5, 5, 0)
    (totals,) = op_totals(tracer.spans)
    assert totals.calls["inner"] == 2
    assert totals.self_ns["outer"] == (outer_span.end_ns - outer_span.start_ns
                                       - (a.end_ns - a.start_ns) - (b.end_ns - b.start_ns))
