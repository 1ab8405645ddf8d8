"""One workload in one fresh process: set-up, then a timed or traced loop.

Started by ``run.py`` with BLAS pinned to one thread in its environment.
Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace
        [--seconds S] [--min-ops N] [--part K --parts P]

``setup`` stops once lazy set-up is done.  ``run`` then times ops in a
closed loop with one client for ``--seconds`` of speed-normalised op time
and at least ``--min-ops`` ops, and reports every latency and probe.
``trace`` alternates untraced and traced rounds of ops for ``--seconds``
of wall time and reports per-layer metrics from the spans.
"""

import time

from stats import cpu_probe

PROBE0 = cpu_probe()
T0 = time.perf_counter()  # set-up is timed from here, before numpy or so3tp load

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from spans import NullTracer, Tracer, op_totals
from stats import percentile, samples_needed, speed_normalised

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# span name -> per-layer metric stems; "_ms" is the median per op of the
# spans' total time, "_macs" their MACs, "_ns_per_mac" time over MACs
# summed over all traced ops
LAYER_SPANS = {
    "tsh.tsh_encode": ("tsh.encode", True),
    "tsh.tsh_decode": ("tsh.decode", True),
    "tenprod.pointwise_spin_tp": ("tenprod.pointwise", True),
    "tenprod.cgtp_path": ("tenprod.cgtp_path", True),
    "rules.find_valid_ells": ("rules.find_ells", False),
    "rules.generalized_gaunt": ("rules.gaunt", False),
    "sht.make_grid": ("sht.make_grid", False),
    "angular.wigner_9j": ("angular.wigner_9j", False),
    "angular.cg_zero": ("angular.cg_zero", False),
}
# self time (span minus the union of its children) -> metric
SELF_SPANS = {
    "tenprod.vstp": "tenprod.vstp_self_ms",
    "tenprod.simulate_cgtp_path": "tenprod.vstp_self_ms",
    "tenprod.cgtp_full": "tenprod.cgtp_full_self_ms",
    "rules.vstp_rules": "rules.vstp_rules_self_ms",
}


def git_revision():
    """HEAD of the checkout's .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
    }


class MacLedger:
    """Ops with equal ``mac_key`` must report equal MACs; one cycle must sum
    to the workload's pinned count."""

    def __init__(self, wl):
        self.wl = wl
        self.seen = {}

    def ok(self, inp, macs) -> bool:
        return self.seen.setdefault(self.wl.mac_key(inp), macs) == macs

    def total_ok(self) -> bool:
        return sum(self.seen.values()) == self.wl.cycle_macs


def set_up(wl, inputs, tracer, ledger):
    """Benchmark set-up plus the lazy set-up ops; returns the set-up split."""
    from so3tp import angular

    t_import = time.perf_counter()
    cg_misses = angular.cg.cache_info().misses
    wl.prepare(tracer)
    t_ops = time.perf_counter()
    for i in range(wl.setup_ops):
        tracer.op = -1 - i
        inp = next(inputs)
        _, macs = wl.traced(inp, tracer) if isinstance(tracer, Tracer) else wl.run(inp)
        ledger.ok(inp, macs)
    tracer.op = None
    t_done = time.perf_counter()
    split = {
        "setup_s": t_done - T0,
        "setup_probes_s": [PROBE0, cpu_probe()],
        "setup.import_s": t_import - T0,
        "angular.cg_exact_evals": angular.cg.cache_info().misses - cg_misses,
    }
    if isinstance(tracer, Tracer):
        grids = [s for s in tracer.spans if s.name == "sht.make_grid"]
        in_ops = sum(s.end_ns - s.start_ns for s in grids if s.op is not None)
        split["sht.make_grid_s"] = sum(s.end_ns - s.start_ns for s in grids) / 1e9
        split["setup.first_product_s"] = (t_done - t_ops) - in_ops / 1e9
    return split


class Loop:
    """Closed loop, one client: inputs are made and outputs checked off the clock."""

    def __init__(self, wl, inputs, ledger):
        self.wl, self.inputs, self.ledger = wl, inputs, ledger
        self.attempted = 0
        self.failed = 0
        self.worst_err = 0.0
        self.reasons = {}

    def op(self, fn, *extra):
        """Run one op; returns its latency in seconds, or None when inputs ran out."""
        inp = next(self.inputs, None)
        if inp is None:
            return None
        self.attempted += 1
        t = time.perf_counter()
        try:
            out, macs = fn(inp, *extra)
        except Exception as exc:  # a failed op is counted, never raised past the loop
            dt = time.perf_counter() - t
            self._fail(type(exc).__name__)
            return dt
        dt = time.perf_counter() - t
        try:
            err = self.wl.check(inp, out)
        except Exception as exc:
            self._fail("check raised " + type(exc).__name__)
            return dt
        if not err <= self.wl.tolerance:  # nan fails too
            self._fail("non-finite output" if math.isnan(err) else "reference miss")
        elif not self.ledger.ok(inp, macs):
            self._fail("MAC drift")
        if math.isfinite(err):
            self.worst_err = max(self.worst_err, err)
        return dt

    def _fail(self, reason):
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def summary(self):
        ok = self.ledger.total_ok()
        return {"attempted": self.attempted, "failed": self.failed,
                "worst_rel_err": self.worst_err, "fail_reasons": self.reasons,
                "macs_ok": ok, "macs_per_op": self.wl.cycle_macs / self.wl.cycle}


def timed_loop(wl, loop, seconds, min_ops):
    """Whole cycles until ops have used ``seconds`` of speed-normalised time
    and ``min_ops`` ops are done.

    A CPU probe runs before the first op and after every op, off the clock.
    Stopping on normalised time keeps the work per run, and with it cache
    warmth and memory, independent of how fast the host lets the CPU run.
    """
    lat, probes = [], [cpu_probe()]
    busy = 0.0
    start = time.perf_counter()
    while busy < seconds or len(lat) % wl.cycle or len(lat) < min_ops:
        dt = loop.op(wl.run)
        if dt is None:
            break
        lat.append(dt)
        probes.append(cpu_probe())
        busy += speed_normalised([dt], probes[-2:])[0]
    return {"latencies_s": lat, "probes_s": probes, "loop_wall_s": time.perf_counter() - start}


def traced_loop(wl, loop, tracer, seconds):
    """Rounds of ``cycle`` untraced and ``cycle`` traced ops, the side that
    goes first alternating, so neither side inherits the other's warm caches."""
    from so3tp import angular, rules, sht

    lat = {False: [], True: []}
    cache_calls = {"grid": [0, 0], "gaunt": [0, 0]}  # [hits, calls] inside traced ops

    def infos():
        return sht.make_grid.cache_info(), rules.generalized_gaunt_exact.cache_info()

    def traced_op(inp):
        before = infos()
        try:
            return wl.traced(inp, tracer)
        finally:
            for key, a, b in zip(("grid", "gaunt"), before, infos()):
                cache_calls[key][0] += b.hits - a.hits
                cache_calls[key][1] += b.hits - a.hits + b.misses - a.misses

    need = samples_needed(50)
    tracer.phase = "loop"
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or min(map(len, lat.values())) < need:
        for traced in (rounds % 2 == 1, rounds % 2 == 0):
            for _ in range(wl.cycle):
                tracer.op = len(lat[True])
                dt = loop.op(traced_op if traced else wl.run)
                if dt is None:  # inputs ran out
                    break
                lat[traced].append(dt)
        if dt is None:
            break
        rounds += 1
    tracer.op = None

    out = layer_metrics([s for s in tracer.spans if s.phase == "loop"])
    p50 = {k: percentile(v, 50) for k, v in lat.items()}
    out.update({
        "trace.overhead_ratio": p50[True] / p50[False],
        "trace.op_ms": p50[True] * 1e3,
        "sht.grid_cache_hit_ratio": _ratio(*cache_calls["grid"]),
        "rules.gaunt_cache_hit_ratio": _ratio(*cache_calls["gaunt"]),
        "angular.cg_cache_entries": angular.cg.cache_info().currsize,
        "rules.gaunt_cache_entries": rules.generalized_gaunt_exact.cache_info().currsize,
    })
    return out


def _ratio(hits, calls):
    return hits / calls if calls else 0.0


def layer_metrics(spans):
    """Per-layer metrics from the traced ops' spans; 0 for layers not entered."""
    ops = op_totals(spans)
    out = {}
    for name, (stem, counted) in LAYER_SPANS.items():
        out[stem + "_ms"] = statistics.median(o.duration_ns.get(name, 0) for o in ops) / 1e6
        if counted:
            out[stem + "_macs"] = statistics.median(o.macs.get(name, 0) for o in ops)
            total_ns = sum(o.duration_ns.get(name, 0) for o in ops)
            total_macs = sum(o.macs.get(name, 0) for o in ops)
            out[stem + "_ns_per_mac"] = total_ns / total_macs if total_macs else 0.0
    out["tenprod.cgtp_path_calls"] = statistics.median(
        o.calls.get("tenprod.cgtp_path", 0) for o in ops)
    for metric in set(SELF_SPANS.values()):
        names = [n for n, m in SELF_SPANS.items() if m == metric]
        out[metric] = statistics.median(
            sum(o.self_ns.get(n, 0) for n in names) for o in ops) / 1e6
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-ops", type=int, default=samples_needed(90))
    ap.add_argument("--part", type=int, default=0, help="this worker's index in the run")
    ap.add_argument("--parts", type=int, default=1, help="workers sharing the run's inputs")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "so3tp" / "__init__.py").is_file():
        sys.exit(f"error: no so3tp sources under {src}")
    sys.path.insert(0, str(src))
    import numpy as np

    import workloads

    if not Path(workloads.tenprod.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit("error: so3tp was not imported from the checkout")
    wl = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.mode == "trace" else NullTracer()
    ledger = MacLedger(wl)
    inputs = wl.inputs(args.seed, args.part, args.parts)
    result = set_up(wl, inputs, tracer, ledger)
    if args.mode != "setup":
        wl.prepare_reference(args.seed)
        loop = Loop(wl, inputs, ledger)
        if args.mode == "run":
            result.update(timed_loop(wl, loop, args.seconds, args.min_ops))
        else:
            result.update(traced_loop(wl, loop, tracer, args.seconds))
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")
        result.update(loop.summary())
        result["env"] = environment(np)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
