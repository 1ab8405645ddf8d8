"""so3tp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh Python processes (``worker.py``) whose
environment pins BLAS to one thread before numpy is imported.

With ``--trace 0``, LOOP_WORKERS processes each set the workload up and
then time ops for S / LOOP_WORKERS seconds of op time; their latencies
are pooled.  On a shared host the CPU's speed swings by up to half for
seconds at a time as its neighbours load the host, so each op latency
and each set-up time is rescaled by CPU probes taken around it
(``stats.speed_normalised``), the loops stop on that normalised time, and
the timed loop is spread over the whole run.  The wall-clock figures are
printed as diagnostics.  Set-up-only processes are added while all
set-up times together stay under SETUP_BUDGET_S; ``setup_s`` is the
median of every set-up.  With ``--trace 1`` one process alternates
untraced and traced rounds and reports the per-layer metrics.

Every metric is printed by name and unit.  The last line of standard
output is one JSON object, {"correct", "attempted", "failed",
"metrics"}, whose metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import percentile, samples_needed, speed_normalised

HERE = Path(__file__).resolve().parent
LOOP_WORKERS = 3
SETUP_MAX, SETUP_BUDGET_S = 9, 2.0
DEADLINE_S = 170.0
PINNED_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float, *extra: str) -> dict:
    """One fresh worker process; its last stdout line is its JSON result."""
    env = dict(os.environ, **PINNED_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"{mode} worker passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def timed_run(args, deadline: float) -> dict:
    """Pool LOOP_WORKERS timed loops; set-up samples from every worker."""
    min_ops = math.ceil(samples_needed(90) / LOOP_WORKERS)
    runs = [run_worker(args, "run", deadline, "--seconds", str(args.seconds / LOOP_WORKERS),
                       "--min-ops", str(min_ops), "--part", str(k),
                       "--parts", str(LOOP_WORKERS))
            for k in range(LOOP_WORKERS)]
    setups = list(runs)
    while len(setups) < SETUP_MAX and sum(r["setup_s"] for r in setups) < SETUP_BUDGET_S:
        setups.append(run_worker(args, "setup", deadline))
    setup_s = [speed_normalised([r["setup_s"]], r["setup_probes_s"])[0] for r in setups]
    raw = [x for r in runs for x in r["latencies_s"]]
    lat = [x for r in runs for x in speed_normalised(r["latencies_s"], r["probes_s"])]
    probes = [x for r in runs for x in r["probes_s"]]
    print("set-up samples (s, normalised): " + " ".join(f"{s:.4f}" for s in sorted(setup_s)))
    print("timed loops: " + ", ".join(f"{len(r['latencies_s'])} ops in {r['loop_wall_s']:.2f} s"
                                      for r in runs) + " wall (closed loop, 1 client)")
    reasons = {}
    for r in runs:
        for k, n in r["fail_reasons"].items():
            reasons[k] = reasons.get(k, 0) + n
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "fail_reasons": reasons,
        "macs_ok": all(r["macs_ok"] for r in runs),
        "macs_per_op": runs[0]["macs_per_op"],
        "worst_rel_err": max(r["worst_rel_err"] for r in runs),
        "env": runs[0]["env"],
        "raw": {"setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
                "op_p50_ms": (percentile(raw, 50) * 1e3, "ms"),
                "op_p90_ms": (percentile(raw, 90) * 1e3, "ms"),
                "ops_per_s": (len(raw) / sum(raw), "1/s"),
                "cpu_probe_p50_us": (statistics.median(probes) * 1e6, "us")},
    }


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:32s} {value:>14.6g} {unit:8s} {note}".rstrip())


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"so3tp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    try:
        if args.trace:
            res = run_worker(args, "trace", deadline, "--seconds", str(args.seconds))
        else:
            res = timed_run(args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {k: (res[k], u) for k, u in units.items()}
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and res["macs_ok"] and attempted > 0
    print("env:", json.dumps(res["env"], sort_keys=True))
    print("metrics:")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    print("diagnostics (no bound):")
    if args.workload != "rules_exact":
        show("macs_per_op", res["macs_per_op"], "MAC",
             "repeats exactly" if res["macs_ok"] else "DRIFT from the pinned count")
    show("fail_ratio", failed / attempted if attempted else 1.0, "ratio",
         f"{failed}/{attempted} {res['fail_reasons'] or ''}")
    show("worst_rel_err", res["worst_rel_err"], "ratio")
    for name, (value, unit) in res.get("raw", {}).items():
        show("raw." + name, value, unit, "wall clock, not speed-normalised")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
