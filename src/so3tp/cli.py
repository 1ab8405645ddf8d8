"""Command-line interface: coefficients, transforms, tensor products,
selection rules, benchmarks, and the verification suite.

One binary with subcommands; every run prints its resolved configuration
first.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bench, rules, serialize, tenprod, verify
from .angular import wigner_9j_spin1
from .exact import cg, wigner_9j
from .rules import NotInteractable, PathKey
from .sht import make_grid
from .tsh import TshCoeffs, scalar_from_spin0, spin0_from_scalar, tsh_decode, tsh_encode


def _print_config(args) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func",) and v is not None}
    print(f"config: {json.dumps(cfg, sort_keys=True, default=str)}")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_complex_list(text: str) -> np.ndarray:
    return np.array([complex(tok) for tok in text.split(",")], dtype=complex)


# ---------------------------------------------------------------- coeff

def _cmd_coeff_cg(args) -> int:
    value = cg(args.j1, args.m1, args.j2, args.m2, args.j3, args.m3)
    print(f"exact: {value}")
    print(f"float: {float(value)!r}")
    return 0


def _cmd_coeff_9j(args) -> int:
    grid = _parse_int_list(args.grid)
    if len(grid) != 9:
        return _usage_error("--grid needs nine comma-separated integers "
                            "j1,l1,s1,j2,l2,s2,j3,l3,s3")
    value = wigner_9j(tuple(grid))
    print(f"exact: {value}")
    print(f"float: {float(value)!r}")
    # the closed forms cover unit spins with every |j - l| <= 1
    if grid[2] == grid[5] == grid[8] == 1 and all(abs(grid[i] - grid[i + 1]) <= 1
                                                  for i in (0, 3, 6)):
        fast = wigner_9j_spin1(grid[1], grid[0] - grid[1], grid[4], grid[3] - grid[4],
                               grid[7], grid[6] - grid[7])
        print(f"spin-1 table: {fast!r}")
    return 0


# ---------------------------------------------------------------- transform

def _cmd_transform(args) -> int:
    obj = serialize.read_file(args.infile)
    if args.direction == "inverse":
        # coefficients -> sample dump; a file without "s" holds scalar coefficients
        spin_file = isinstance(obj, dict) and "s" in obj
        if (obj["s"] if spin_file else 0) != args.s:
            return _usage_error(f"--s {args.s} does not match the input file")
        x = (serialize.tsh_from_obj if spin_file else serialize.coeffs_from_obj)(obj)
        Lg = args.Lg if args.Lg is not None else x.L
        if Lg < x.L:
            return _usage_error(f"Lg={Lg} is below the band limit {x.L}")
        sig = tsh_encode(x if spin_file else spin0_from_scalar(x), make_grid(Lg))
        serialize.write_file(serialize.samples_to_obj(sig), args.outfile)
    else:
        # sample dump -> coefficients
        sig = serialize.samples_from_obj(obj)
        if sig.s != args.s:
            return _usage_error(f"--s {args.s} does not match the file spin {sig.s}")
        L = args.L if args.L is not None else sig.grid.Lg
        if L > sig.grid.Lg:
            return _usage_error(f"L={L} exceeds the grid exactness degree {sig.grid.Lg}")
        z = tsh_decode(sig, L)
        obj = (serialize.coeffs_to_obj(scalar_from_spin0(z)) if args.s == 0
               else serialize.tsh_to_obj(z))
        serialize.write_file(obj, args.outfile)
    print(f"wrote {args.outfile}")
    return 0


# ---------------------------------------------------------------- tp

def _cmd_tp(args) -> int:
    op = args.op
    x_obj = serialize.read_file(args.x)
    y_obj = serialize.read_file(args.y)
    if op == "cgtp":
        x = serialize.coeffs_from_obj(x_obj)
        y = serialize.coeffs_from_obj(y_obj)
        res = tenprod.cgtp_full(x, y, args.l3, mode=args.mode)
    elif op == "gtp":
        x = serialize.coeffs_from_obj(x_obj)
        y = serialize.coeffs_from_obj(y_obj)
        res = tenprod.gtp(x, y, args.l3, make_grid(x.L + y.L))
    else:
        x = serialize.tsh_from_obj(x_obj)
        y = serialize.tsh_from_obj(y_obj)
        if x.s != 1 or y.s != 1:
            return _usage_error("vstp inputs must be spin-1 coefficient files")
        res = tenprod.vstp(x, y, args.l3, make_grid(x.L + y.L))
    out = res.output
    obj = serialize.tsh_to_obj(out) if isinstance(out, TshCoeffs) else serialize.coeffs_to_obj(out)
    serialize.write_file(obj, args.out)
    print(f"wrote {args.out} (flops: {res.flops})")
    return 0


def _cmd_tp_simulate(args) -> int:
    x = _parse_complex_list(args.x)
    y = _parse_complex_list(args.y)
    if x.size != 2 * args.j1 + 1 or y.size != 2 * args.j2 + 1:
        return _usage_error(f"--x/--y need {2 * args.j1 + 1}/{2 * args.j2 + 1} entries")
    z = tenprod.simulate_cgtp_path(x, y, args.j3)
    ref = tenprod.cgtp_path(x, y, args.j3)
    dev = float(np.abs(z - ref).max())
    for m, v in zip(range(-args.j3, args.j3 + 1), z):
        print(f"m={m:+d}: {complex(v)}")
    print(f"max deviation from the direct coupling: {dev:.3e}")
    return 0


# ---------------------------------------------------------------- rules

def _cmd_rules_check(args) -> int:
    labels = _parse_int_list(args.path)
    if len(labels) != 6:
        return _usage_error("--path needs j1,l1,j2,l2,j3,l3")
    j1, l1, j2, l2, j3, l3 = labels
    report = rules.vstp_rules(PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1))
    for idx, flag in enumerate((report.r1, report.r2, report.r3, report.r4, report.r5), 1):
        print(f"rule {idx}: {'pass' if flag else 'FAIL'}")
    print(f"passed: {report.passed}")
    print(f"coefficient: {report.coefficient!r}")
    return 0


def _cmd_rules_find_ells(args) -> int:
    js = _parse_int_list(args.j)
    if len(js) != 3:
        return _usage_error("--j needs three comma-separated degrees")
    try:
        ells = rules.find_valid_ells(*js)
    except NotInteractable as exc:
        print(f"not interactable: {exc}")
        return 1
    print(f"ells: {ells[0]},{ells[1]},{ells[2]}")
    return 0


def _cmd_rules_expressivity(args) -> int:
    print(rules.expressivity_count(args.s, args.L))
    return 0


# ---------------------------------------------------------------- bench

def _cmd_bench_run(args) -> int:
    methods = args.methods.split(",") if args.methods else list(bench.METHODS)
    for m in methods:
        if m not in bench.METHODS:
            return _usage_error(f"unknown method {m!r}; choose from {bench.METHODS}")
    L_list = _parse_int_list(args.L)
    records = []
    for method in methods:
        try:
            records.extend(bench.run_bench(method, args.setting, L_list,
                                           repeats=args.repeats, seed=args.seed))
        except bench.FlopBudgetExceeded as exc:
            return _usage_error(str(exc))
    bench.emit_csv(records, args.csv)
    print(f"wrote {args.csv} ({len(records)} records)")
    if args.svg:
        bench.emit_svg(records, args.svg)
        print(f"wrote {args.svg}")
    for method in methods:
        recs = [r for r in records if r.method == method]
        if len(recs) >= 4:
            fit = bench.fit_slope(recs)
            print(f"{method}: slope {fit.slope:.3f} (r2 {fit.r2:.4f}) "
                  f"over L in {fit.L_range}")
    return 0


# ---------------------------------------------------------------- verify

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_revision() -> str | None:
    """HEAD of the git checkout holding this package, read from its .git; None outside one."""
    for root in Path(__file__).resolve().parents:
        git = root / ".git"
        if git.is_dir():
            break
    else:
        return None
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


def _environment() -> dict:
    """What the timings depend on: numpy and its BLAS, BLAS thread variables, CPUs, revision."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
    }


def _cmd_verify(args) -> int:
    results, ok = verify.run_verify(args.level, seed=args.seed)
    if args.tolerance is not None:
        for r in results:
            if r.tolerance > 0:
                r.tolerance = args.tolerance
                r.passed = r.max_dev <= args.tolerance
        ok = all(r.passed for r in results)
    if args.json:
        payload = {
            "config": {"level": args.level, "seed": args.seed, "tolerance": args.tolerance},
            "env": _environment(),
            "passed": ok,
            "checks": [{"name": r.name, "max_dev": r.max_dev, "tolerance": r.tolerance,
                        "passed": r.passed, "worst_case": r.worst_case,
                        "seconds": round(r.seconds, 3)} for r in results],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(verify.format_report(results, args.level))
    return 0 if ok else 1


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="so3tp",
        description="SO(3) tensor products on spherical grids")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="one tolerance for every non-exact verify check "
                             "(default: each check keeps its own)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="coupling coefficients")
    coeff_sub = coeff.add_subparsers(dest="which", required=True)
    ccg = coeff_sub.add_parser("cg", help="Clebsch-Gordan coefficient")
    for name in ("j1", "m1", "j2", "m2", "j3", "m3"):
        ccg.add_argument(f"--{name}", type=int, required=True)
    ccg.set_defaults(func=_cmd_coeff_cg)
    c9j = coeff_sub.add_parser("9j", help="Wigner 9j symbol")
    c9j.add_argument("--grid", required=True,
                     help="nine integers j1,l1,s1,j2,l2,s2,j3,l3,s3")
    c9j.set_defaults(func=_cmd_coeff_9j)

    tr = sub.add_parser("transform", help="spherical harmonic transforms")
    tr.add_argument("direction", choices=("forward", "inverse"))
    tr.add_argument("--s", type=int, default=0, help="spin (0 = scalar)")
    tr.add_argument("--in", dest="infile", required=True)
    tr.add_argument("--out", dest="outfile", required=True)
    tr.add_argument("--L", type=int, default=None, help="analysis band limit (forward)")
    tr.add_argument("--Lg", type=int, default=None, help="grid exactness degree (inverse)")
    tr.set_defaults(func=_cmd_transform)

    tp = sub.add_parser("tp", help="tensor products")
    tp_sub = tp.add_subparsers(dest="which", required=True)
    for op in ("cgtp", "gtp", "vstp"):
        p = tp_sub.add_parser(op)
        p.add_argument("--x", required=True, help="input coefficient file")
        p.add_argument("--y", required=True, help="input coefficient file")
        p.add_argument("--l3", type=int, required=True, help="output band limit")
        if op == "cgtp":
            p.add_argument("--mode", choices=("naive", "sparse"), default="sparse")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_tp, op=op)
    sim = tp_sub.add_parser("simulate", help="one coupling path via a vector-signal product")
    for name in ("j1", "j2", "j3"):
        sim.add_argument(f"--{name}", type=int, required=True)
    sim.add_argument("--x", required=True, help="comma-separated complex entries, m=-j1..j1")
    sim.add_argument("--y", required=True, help="comma-separated complex entries, m=-j2..j2")
    sim.set_defaults(func=_cmd_tp_simulate)

    ru = sub.add_parser("rules", help="selection rules and expressivity")
    ru_sub = ru.add_subparsers(dest="which", required=True)
    rc = ru_sub.add_parser("check")
    rc.add_argument("--path", required=True, help="j1,l1,j2,l2,j3,l3")
    rc.set_defaults(func=_cmd_rules_check)
    rf = ru_sub.add_parser("find-ells")
    rf.add_argument("--j", required=True, help="three degrees j1,j2,j3")
    rf.set_defaults(func=_cmd_rules_find_ells)
    re_ = ru_sub.add_parser("expressivity")
    re_.add_argument("--s", type=int, required=True)
    re_.add_argument("--L", type=int, required=True)
    re_.set_defaults(func=_cmd_rules_expressivity)

    be = sub.add_parser("bench", help="FLOP-instrumented benchmarks")
    be_sub = be.add_subparsers(dest="which", required=True)
    br = be_sub.add_parser("run")
    br.add_argument("--methods", default=None,
                    help=f"comma list from {','.join(bench.METHODS)} (default all)")
    br.add_argument("--setting", choices=bench.SETTINGS, default="MIMO")
    br.add_argument("--L", default="4,8,16,32", help="ascending comma list")
    br.add_argument("--repeats", type=int, default=5)
    br.add_argument("--seed", type=int, required=True, help="mandatory for reproducibility")
    br.add_argument("--csv", required=True)
    br.add_argument("--svg", default=None)
    br.set_defaults(func=_cmd_bench_run)

    ve = sub.add_parser("verify", help="run the invariant suites")
    group = ve.add_mutually_exclusive_group()
    group.add_argument("--quick", dest="level", action="store_const", const="quick",
                       help="bounded suites (default)")
    group.add_argument("--full", dest="level", action="store_const", const="full",
                       help="exhaustive suites")
    ve.add_argument("--json", action="store_true", help="machine-readable report")
    ve.set_defaults(func=_cmd_verify, level="quick")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "json", False):
        _print_config(args)  # --json runs embed the config in the payload instead
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:  # SchemaError and TriangleViolation included
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
