"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from so3tp import serialize
from so3tp.cli import main
from so3tp.exact import generalized_gaunt_exact
from so3tp.rules import PathKey
from so3tp.sht import random_coeffs
from so3tp.tsh import random_tsh_coeffs


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(11)
    paths = {}
    for name, coeffs in [("x", random_coeffs(2, rng)), ("y", random_coeffs(1, rng))]:
        p = tmp_path / f"{name}.json"
        serialize.write_file(serialize.coeffs_to_obj(coeffs), p)
        paths[name] = p
    for name, coeffs in [("xv", random_tsh_coeffs(1, 2, rng)),
                         ("yv", random_tsh_coeffs(1, 2, rng))]:
        p = tmp_path / f"{name}.json"
        serialize.write_file(serialize.tsh_to_obj(coeffs), p)
        paths[name] = p
    return tmp_path, paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_cg_prints_exact_and_float(capsys):
    code, out, _ = run_cli(capsys, "coeff", "cg", "--j1", "1", "--m1", "1",
                           "--j2", "1", "--m2", "0", "--j3", "1", "--m3", "1")
    assert code == 0
    assert "exact: +sqrt(1/2)" in out
    assert repr(math.sqrt(0.5)) in out
    assert out.startswith("config:")


def test_coeff_9j_fast_path(capsys):
    code, out, _ = run_cli(capsys, "coeff", "9j", "--grid", "1,0,1,1,1,1,1,1,1")
    assert code == 0
    assert "exact: +sqrt(1/324)" in out
    assert "spin-1 table" in out


def test_coeff_9j_unit_spins_outside_the_table(capsys):
    # |j1 - l1| = 2 has no spin-1 closed form; only the exact value prints
    code, out, _ = run_cli(capsys, "coeff", "9j", "--grid", "3,1,1,2,2,1,1,1,1")
    assert code == 0
    assert "exact: 0" in out
    assert "spin-1 table" not in out


def test_coeff_9j_usage_error(capsys):
    code, _out, err = run_cli(capsys, "coeff", "9j", "--grid", "1,2,3")
    assert code == 2 and "nine" in err


def test_transform_round_trip(files, capsys):
    tmp_path, paths = files
    samples = tmp_path / "samples.json"
    back = tmp_path / "back.json"
    code, _, _ = run_cli(capsys, "transform", "inverse", "--s", "0",
                         "--in", str(paths["x"]), "--out", str(samples), "--Lg", "2")
    assert code == 0
    code, _, _ = run_cli(capsys, "transform", "forward", "--s", "0",
                         "--in", str(samples), "--out", str(back), "--L", "2")
    assert code == 0
    a = serialize.coeffs_from_obj(serialize.read_file(paths["x"]))
    b = serialize.coeffs_from_obj(serialize.read_file(back))
    for l in range(3):
        np.testing.assert_allclose(a.block(l), b.block(l), atol=1e-12)


def test_transform_spin_round_trip(files, capsys):
    tmp_path, paths = files
    samples = tmp_path / "s.json"
    back = tmp_path / "b.json"
    assert run_cli(capsys, "transform", "inverse", "--s", "1", "--in", str(paths["xv"]),
                   "--out", str(samples), "--Lg", "3")[0] == 0
    assert run_cli(capsys, "transform", "forward", "--s", "1", "--in", str(samples),
                   "--out", str(back), "--L", "2")[0] == 0
    a = serialize.tsh_from_obj(serialize.read_file(paths["xv"]))
    b = serialize.tsh_from_obj(serialize.read_file(back))
    for key in a.blocks:
        np.testing.assert_allclose(a.block(*key), b.block(*key), atol=1e-12)


def test_transform_spin_mismatch_is_usage_error(files, capsys):
    tmp_path, paths = files
    code, _out, err = run_cli(capsys, "transform", "inverse", "--s", "1",
                              "--in", str(paths["x"]), "--out", str(tmp_path / "o.json"))
    assert code == 2 and "does not match" in err


def test_transform_inverse_reads_spin0_tensor_harmonic_file(files, capsys):
    # a spin-0 file carries "s": 0; --s 0 reads it, --s 1 rejects it
    tmp_path, paths = files
    x = random_tsh_coeffs(0, 2, np.random.default_rng(5))
    spin0 = tmp_path / "x0.json"
    serialize.write_file(serialize.tsh_to_obj(x), spin0)
    samples, back = tmp_path / "s.json", tmp_path / "b.json"
    assert run_cli(capsys, "transform", "inverse", "--s", "0", "--in", str(spin0),
                   "--out", str(samples), "--Lg", "3")[0] == 0
    assert run_cli(capsys, "transform", "forward", "--s", "0", "--in", str(samples),
                   "--out", str(back), "--L", "2")[0] == 0
    z = serialize.coeffs_from_obj(serialize.read_file(back))
    for (j, _l), vec in x.items():
        np.testing.assert_allclose(z.block(j), vec, atol=1e-12)
    code, _out, err = run_cli(capsys, "transform", "inverse", "--s", "1", "--in", str(spin0),
                              "--out", str(tmp_path / "o.json"))
    assert code == 2 and "--s 1 does not match the input file" in err


def test_transform_small_grid_is_usage_error(files, capsys):
    tmp_path, paths = files
    code, _out, err = run_cli(capsys, "transform", "inverse", "--s", "0",
                              "--in", str(paths["x"]), "--out", str(tmp_path / "o.json"),
                              "--Lg", "1")
    assert code == 2 and "band limit" in err


def test_transform_schema_error_has_pointer(files, capsys):
    tmp_path, paths = files
    bad = tmp_path / "bad.json"
    obj = serialize.read_file(paths["x"])
    del obj["blocks"][0]["re"]
    serialize.write_file(obj, bad)
    code, _out, err = run_cli(capsys, "transform", "inverse", "--s", "0",
                              "--in", str(bad), "--out", str(tmp_path / "o.json"))
    assert code == 2 and "/blocks/0/re" in err


def test_transform_forward_contradictory_sample_header_is_usage_error(files, capsys):
    tmp_path, paths = files
    samples, back = tmp_path / "s.json", tmp_path / "b.json"
    assert run_cli(capsys, "transform", "inverse", "--s", "0", "--in", str(paths["x"]),
                   "--out", str(samples), "--Lg", "2")[0] == 0
    obj = serialize.read_file(samples)
    obj["n_phi"] = 999
    serialize.write_file(obj, samples)
    code, _out, err = run_cli(capsys, "transform", "forward", "--s", "0",
                              "--in", str(samples), "--out", str(back))
    assert code == 2 and "/n_phi" in err
    assert not back.exists()


@pytest.mark.parametrize("argv", [
    ("transform", "inverse", "--s", "1", "--in", "{xv}"),
    ("tp", "vstp", "--x", "{xv}", "--y", "{yv}", "--l3", "2"),
])
def test_non_finite_input_fails_before_any_output(files, capsys, argv):
    tmp_path, paths = files
    obj = serialize.read_file(paths["xv"])
    obj["blocks"][1]["im"][0] = float("nan")
    paths["xv"].write_text(json.dumps(obj))  # json.dumps writes NaN; canonical_json refuses
    out = tmp_path / "out.json"
    argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2 and "/blocks/1/im" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("tp", "cgtp", "--x", "{x}", "--y", "{y}", "--l3", "-1"),
    ("tp", "gtp", "--x", "{x}", "--y", "{y}", "--l3", "-1"),
    ("transform", "forward", "--s", "0", "--in", "{samples}", "--L", "-1"),
])
def test_negative_band_limit_is_usage_error(files, capsys, argv):
    tmp_path, paths = files
    paths["samples"] = tmp_path / "samples.json"
    assert run_cli(capsys, "transform", "inverse", "--s", "0", "--in", str(paths["x"]),
                   "--out", str(paths["samples"]))[0] == 0
    out = tmp_path / "out.json"
    argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2 and "band limit L=-1 must be non-negative" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("tp", "vstp", "--x", "{xv}", "--y", "{yv}", "--l3", "2"),
    ("transform", "inverse", "--s", "1", "--in", "{xv}"),
])
def test_spin_file_with_fractional_band_limit_is_usage_error(files, capsys, argv):
    tmp_path, paths = files
    obj = serialize.read_file(paths["xv"])
    obj["L"] = 2.5
    serialize.write_file(obj, paths["xv"])
    out = tmp_path / "out.json"
    argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2 and "/L: L must be a non-negative integer" in err
    assert not out.exists()


def test_tp_cgtp_writes_path_tags(files, capsys):
    tmp_path, paths = files
    out = tmp_path / "z.json"
    code, stdout, _ = run_cli(capsys, "tp", "cgtp", "--x", str(paths["x"]),
                              "--y", str(paths["y"]), "--l3", "3",
                              "--mode", "naive", "--out", str(out))
    assert code == 0 and "flops" in stdout
    obj = serialize.read_file(out)
    assert any(b.get("path") for b in obj["blocks"])


def test_tp_gtp_and_vstp(files, capsys):
    tmp_path, paths = files
    assert run_cli(capsys, "tp", "gtp", "--x", str(paths["x"]), "--y", str(paths["y"]),
                   "--l3", "3", "--out", str(tmp_path / "g.json"))[0] == 0
    assert run_cli(capsys, "tp", "vstp", "--x", str(paths["xv"]), "--y", str(paths["yv"]),
                   "--l3", "4", "--out", str(tmp_path / "v.json"))[0] == 0
    obj = serialize.read_file(tmp_path / "v.json")
    assert obj["s"] == 1


def test_tp_vstp_rejects_scalar_file(files, capsys):
    tmp_path, paths = files
    code, _out, err = run_cli(capsys, "tp", "vstp", "--x", str(paths["x"]),
                              "--y", str(paths["yv"]), "--l3", "2",
                              "--out", str(tmp_path / "v.json"))
    assert code == 2


def test_tp_simulate(capsys):
    code, out, _ = run_cli(capsys, "tp", "simulate", "--j1", "0", "--j2", "0",
                           "--j3", "0", "--x", "2", "--y", "3")
    assert code == 0 and "(6+0j)" in out
    code, out, _ = run_cli(capsys, "tp", "simulate", "--j1", "1", "--j2", "1",
                           "--j3", "1", "--x", "1,0,2j", "--y", "0,1,1")
    assert code == 0
    dev = float(out.splitlines()[-1].split()[-1])
    assert dev <= 1e-10


def test_rules_cli(capsys):
    code, out, _ = run_cli(capsys, "rules", "check", "--path", "1,1,1,1,1,1")
    assert code == 0 and "rule 4: FAIL" in out and "passed: False" in out
    code, out, _ = run_cli(capsys, "rules", "check", "--path", "1,0,1,1,1,1")
    assert code == 0 and "passed: True" in out
    printed = float(out.split("coefficient: ")[1].split()[0])
    exact = float(generalized_gaunt_exact(PathKey(1, 0, 1, 1, 1, 1, 1, 1, 1))) / math.sqrt(4 * math.pi)
    assert abs(printed - exact) <= 1e-15 * abs(exact)  # vstp_rules' stated accuracy
    code, out, _ = run_cli(capsys, "rules", "find-ells", "--j", "1,1,1")
    assert code == 0 and "ells: 0,1,1" in out
    code, out, _ = run_cli(capsys, "rules", "find-ells", "--j", "0,0,0")
    assert code == 1 and "not interactable" in out
    code, out, _ = run_cli(capsys, "rules", "expressivity", "--s", "1", "--L", "1")
    assert code == 0 and out.splitlines()[-1] == "4"


def test_bench_cli(tmp_path, capsys):
    csv = tmp_path / "b.csv"
    svg = tmp_path / "b.svg"
    code, out, _ = run_cli(capsys, "bench", "run", "--methods", "cgtp_sparse",
                           "--setting", "SISO", "--L", "1,2,4,8", "--repeats", "1",
                           "--seed", "7", "--csv", str(csv), "--svg", str(svg))
    assert code == 0 and "slope" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "method,setting,L,flops,walltime_s,repeats"
    assert len(lines) == 5
    assert svg.read_text().count("<polyline") == 1


def test_bench_requires_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bench", "run", "--csv", "x.csv"])
    assert err.value.code == 2


def test_bench_budget_exceeded_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SO3TP_FLOP_BUDGET", "5")
    code, _out, err = run_cli(capsys, "bench", "run", "--methods", "cgtp_naive",
                              "--setting", "SISO", "--L", "4", "--repeats", "1",
                              "--seed", "1", "--csv", str(tmp_path / "x.csv"))
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("argv,named", [(["--L", "0,1,2", "--seed", "7"], "L=0"),
                                         (["--L=-1,2", "--seed", "7"], "L=-1"),
                                         (["--L", "1,2", "--seed", "-3"], "seed=-3")])
def test_bench_bad_band_limit_or_seed_is_usage_error_before_any_output(tmp_path, capsys,
                                                                       argv, named):
    csv, svg = tmp_path / "b.csv", tmp_path / "b.svg"
    code, _out, err = run_cli(capsys, "bench", "run", "--methods", "cgtp_sparse",
                              "--repeats", "1", "--csv", str(csv), "--svg", str(svg), *argv)
    assert code == 2 and named in err
    assert not csv.exists() and not svg.exists()


def test_bench_non_integer_flop_budget_is_usage_error_before_any_output(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setenv("SO3TP_FLOP_BUDGET", "abc")
    csv = tmp_path / "b.csv"
    code, _out, err = run_cli(capsys, "bench", "run", "--methods", "cgtp_sparse", "--L", "1,2",
                              "--repeats", "1", "--seed", "7", "--csv", str(csv))
    assert code == 2 and "SO3TP_FLOP_BUDGET must be an integer" in err and "'abc'" in err
    assert not csv.exists()


def test_verify_negative_seed_is_usage_error(capsys):
    code, _out, err = run_cli(capsys, "--seed", "-1", "verify", "--quick")
    assert code == 2 and "seed=-1" in err


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0
    assert "checks passed" in out
    assert "config:" in out


@pytest.fixture
def canned_verify(monkeypatch):
    """``verify.run_verify`` returning fresh canned results: one exact check, two toleranced."""
    from so3tp import verify

    def fake_run_verify(level, seed=0):
        results = [
            verify.CheckResult("exact_check", 0.0, 0.0, True, "", 0.01),
            verify.CheckResult("float_check", 2e-13, 1e-12, True, "case a", 0.02),
            verify.CheckResult("loose_check", 3e-11, 1e-10, True, "case b", 0.03),
        ]
        return results, True

    monkeypatch.setattr(verify, "run_verify", fake_run_verify)


def test_verify_json_report(capsys, canned_verify):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {"name", "max_dev", "tolerance", "passed", "worst_case", "seconds"} \
        <= set(payload["checks"][0])


def test_verify_json_carries_the_environment(capsys, monkeypatch, canned_verify):
    import numpy

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--quick", "--json")
    assert code == 0
    env = json.loads(out)["env"]
    assert env["numpy"] == numpy.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["threads"]["OMP_NUM_THREADS"] is None
    assert set(env["threads"]) >= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["cpu_count"] == os.cpu_count()
    rev = env["git_revision"]
    assert rev is None or (len(rev) == 40 and int(rev, 16) >= 0)


def test_verify_default_tolerance_is_per_check(capsys, canned_verify):
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0
    assert "tolerance" not in out.splitlines()[0]
    code, out, _ = run_cli(capsys, "verify", "--quick", "--json")
    payload = json.loads(out)
    assert payload["config"]["tolerance"] is None
    assert len({c["tolerance"] for c in payload["checks"]}) > 1


def test_verify_tolerance_override(capsys, canned_verify):
    code, out, _ = run_cli(capsys, "--tolerance", "1e-3", "verify", "--quick")
    assert code == 0
    assert '"tolerance": 0.001' in out.splitlines()[0]
    code, out, _ = run_cli(capsys, "--tolerance", "1e-3", "verify", "--quick", "--json")
    payload = json.loads(out)
    assert payload["config"]["tolerance"] == 1e-3
    assert {c["tolerance"] for c in payload["checks"]} <= {0.0, 1e-3}
    assert any(c["tolerance"] == 1e-3 for c in payload["checks"])


def test_verify_config_names_the_level_that_runs(capsys, monkeypatch):
    from so3tp import verify

    levels = []

    def fake_run_verify(level, seed=0):
        levels.append(level)
        return [], True

    monkeypatch.setattr(verify, "run_verify", fake_run_verify)
    for argv, level in [(("verify",), "quick"), (("verify", "--quick"), "quick"),
                        (("verify", "--full"), "full")]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        config = json.loads(out.splitlines()[0].removeprefix("config: "))
        assert config["level"] == level and "quick" not in config and "full" not in config
    code, out, _ = run_cli(capsys, "verify", "--full", "--json")
    assert json.loads(out)["config"]["level"] == "full"
    assert levels == ["quick", "quick", "full", "full"]


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # flip the sign of one CG value: the exact reorder symmetry must fail
    from so3tp import exact, verify

    real_cg = exact.cg

    def flipped(j1, m1, j2, m2, j3, m3):
        v = real_cg(j1, m1, j2, m2, j3, m3)
        if (j1, m1, j2, m2, j3, m3) == (2, 1, 1, 0, 2, 1):
            return -v
        return v

    monkeypatch.setattr(exact, "cg", flipped)
    results, ok = verify.run_verify("quick", only=["cg_reorder_symmetry"])
    assert not ok
    assert "2" in results[0].worst_case


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["transform", "sideways", "--in", "x", "--out", "y"])
    assert err.value.code == 2


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _out, err = run_cli(capsys, "transform", "inverse", "--s", "0",
                              "--in", str(tmp_path / "nope.json"),
                              "--out", str(tmp_path / "o.json"))
    assert code == 2


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "so3tp", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: so3tp")
