"""End-to-end CLI runs through a subprocess, and main called in-process."""

import json
import math
import subprocess
import sys

import pytest

from wickchaos import cli, runtime
from wickchaos.cli import main


def run_cli(*args, stdin=None):
    cmd = [sys.executable, "-m", "wickchaos.cli", *args]
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          timeout=300)


def lines(proc):
    return [l for l in proc.stdout.splitlines() if l]


def test_expect_command():
    proc = run_cli("-c", "G = I2{(1,1): 1.0}\nexpect G")
    assert proc.returncode == 0
    row = json.loads(lines(proc)[0])
    assert row == {"command": "expect", "value": 0.0}


def test_eval_command():
    proc = run_cli("-c", "F = 2 * I1{(1): 1.0} + 1\neval F at 1.5 0")
    assert proc.returncode == 0
    row = json.loads(lines(proc)[0])
    assert row["command"] == "eval"
    assert row["value"] == 4.0


def test_stransform_pads_short_vectors():
    proc = run_cli("-c", "G = I2{(1,1): 1.0}\nstransform G 2")
    assert proc.returncode == 0
    row = json.loads(lines(proc)[0])
    assert row["value"] == 4.0
    assert row["xi"] == [2.0, 0.0]


@pytest.mark.parametrize("program", [
    "stransform I2{(1,1): 1}, 1e200",  # a power overflows
    "stransform I2{(1,1): 1e300}, 1e10",  # the sum is inf
    "stransform I1{(1): 1e300} + I1{(2): -1e300}, 1e10, 1e10"])  # inf - inf
def test_non_finite_stransform_exit_2(program, capsys):
    assert main(["-c", program]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and "Traceback" not in out.err


@pytest.mark.parametrize("program,value", [
    ("expect 1e-20", 1e-20),
    ("x = 1e-10; expect x*x", 1e-10 * 1e-10),
    ("stransform 1e-20 * I1{(1): 1}, 1", 1e-20)])
def test_small_values_are_printed_exactly(program, value, capsys):
    # nothing is pruned on the way: under a fixed threshold each of these
    # would print 0.0, while renorm keeps its 1e-20 either way
    assert main(["-c", program]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == value
    assert main(["-c", "renorm 1e-20 * x1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["terms"] == [
        {"alpha": [[1, 1]], "coeff": 1e-20}]


def test_translate_command():
    proc = run_cli("-c", "translate I2{(1,1): 1.0}, 1 0")
    assert proc.returncode == 0
    row = json.loads(lines(proc)[0])
    assert row["command"] == "translate"
    terms = {tuple(map(tuple, t["alpha"])): t["coeff"]
             for t in row["result"]["terms"]}
    assert terms == {(): 1.0, ((1, 1),): 2.0, ((1, 2),): 1.0}


def test_renorm_command():
    proc = run_cli("-c", "renorm x1^2 - x2")
    assert proc.returncode == 0
    row = json.loads(lines(proc)[0])
    terms = {tuple(map(tuple, t["alpha"])): t["coeff"]
             for t in row["result"]["terms"]}
    assert terms == {((1, 2),): 1.0, ((2, 1),): -1.0}


def test_humeyer_command():
    proc = run_cli("-c", "humeyer T4{(1,1,1,1): 1.0}")
    assert proc.returncode == 0
    row = json.loads(lines(proc)[0])
    terms = {tuple(map(tuple, t["alpha"])): t["coeff"]
             for t in row["result"]["terms"]}
    # x^4 = H_4 + 6 H_2 + 3
    assert terms == {((1, 4),): 1.0, ((1, 2),): 6.0, (): 3.0}


def test_script_file_and_env_persistence(tmp_path):
    script = tmp_path / "prog.wick"
    script.write_text("a = I1{(1): 1.0}\nb = a <> a\nexpect b + 2\n")
    proc = run_cli(str(script))
    assert proc.returncode == 0
    assert json.loads(lines(proc)[0])["value"] == 2.0


def test_stdin_mode():
    proc = run_cli("-", stdin="expect 5")
    assert proc.returncode == 0
    assert json.loads(lines(proc)[0])["value"] == 5.0
    proc = run_cli(stdin="expect 7")
    assert proc.returncode == 0
    assert json.loads(lines(proc)[0])["value"] == 7.0


def test_csv_scalar_output():
    proc = run_cli("-c", "expect 3.5", "--csv")
    assert proc.returncode == 0
    out = lines(proc)
    assert out[0] == "value"
    assert float(out[1]) == 3.5


def test_csv_vector_output():
    proc = run_cli("-c", "translate I2{(1,1): 1.0}, 1 0", "--csv")
    assert proc.returncode == 0
    out = lines(proc)
    assert out[0] == "indices,coeff"
    rows = {tuple(r.split(",")[0].split()): float(r.split(",")[1])
            for r in out[1:]}
    assert rows == {(): 1.0, ("1",): 2.0, ("1", "1"): 1.0}


def test_parse_error_exit_2():
    proc = run_cli("-c", "expect ((")
    assert proc.returncode == 2
    assert proc.stderr.strip()
    proc = run_cli("-c", "frobnicate 1")
    assert proc.returncode == 2


def test_runtime_error_exit_2():
    proc = run_cli("-c", "expect undefined_name")
    assert proc.returncode == 2
    assert "undefined" in proc.stderr


def test_long_integer_literal_exit_2():
    proc = run_cli("-c", "expect 1<>^" + "9" * 5000)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_ordinary_power_is_bounded(monkeypatch):
    # one clipped product per unit: 10^9 of them would run for hours
    proc = run_cli("-c", "expect 1^1000000000")
    assert proc.returncode == 2
    assert "exceeds" in proc.stderr and proc.stdout == ""
    proc = run_cli("-c", "expect 1^3")
    assert proc.returncode == 0
    assert json.loads(lines(proc)[0]) == {"command": "expect", "value": 1.0}
    # refused before any product runs, the base's own included
    monkeypatch.setattr(runtime, "ordinary_product", None)
    with pytest.raises(runtime.CommandError):
        runtime.Session().run_program(f"expect (2 * 3)^{runtime.MAX_POWER + 1}")


def test_missing_file_exit_2(tmp_path):
    proc = run_cli(str(tmp_path / "nope.wick"))
    assert proc.returncode == 2


def test_undecodable_script_file_exit_2(tmp_path):
    path = tmp_path / "latin1.wick"
    path.write_bytes(b"expect 1\n# \xff\n")
    proc = run_cli(str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("flag, value", [
    ("--check-tolerance", "nan"), ("--check-tolerance", "inf"),
    ("--check-tolerance", "-1e-9"), ("--order", "-1"),
    ("--order", str(runtime.MAX_ORDER + 1)), ("--order", "100000000"),
    ("--dim", "0"), ("--dim", str(runtime.MAX_DIM + 1)),
    ("--samples", "1"), ("--samples", str(runtime.MAX_SAMPLES + 1))])
def test_bad_flag_refused_before_any_work(flag, value, monkeypatch, capsys):
    # neither the program (stdin here) is read nor a session built
    monkeypatch.setattr(sys, "stdin", None)
    monkeypatch.setattr(cli, "Session", None)
    assert main([f"{flag}={value}"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and flag in out.err


def test_nan_tolerance_exit_2():
    # gap <= nan is never true, so every exact row would fail
    proc = run_cli("--check-tolerance", "nan", "-c", "check chaos_isometry")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stdout == ""


def test_flag_bounds_are_inclusive(capsys):
    for flag, value in (("--order", runtime.MAX_ORDER), ("--dim", runtime.MAX_DIM),
                        ("--samples", runtime.MAX_SAMPLES), ("--check-tolerance", 0)):
        assert main([flag, str(value), "-c", "expect 2"]) == 0, flag
        assert json.loads(capsys.readouterr().out) == {"command": "expect", "value": 2.0}


def test_flag_validation_exit_2():
    proc = run_cli("-c", "expect 1", "--dim", "0")
    assert proc.returncode == 2
    proc = run_cli("-c", "expect 1", "--json", "--csv")
    assert proc.returncode == 2


def test_order_flag_controls_truncation():
    # ordinary powers clip at the session order
    proc = run_cli("-c", "F = I1{(1): 1.0}\nexpect F^4", "--order", "3")
    assert proc.returncode == 0
    # E[x^4] = 3 needs the degree-4 part only for the H_4 term; clipping
    # at order 3 keeps the constant 3 from H_2 contractions
    assert json.loads(lines(proc)[0])["value"] == 3.0


def test_order_zero_keeps_the_constant():
    # eps(f) at order 0 is the constant 1
    proc = run_cli("--order", "0", "-c", "expect eps(0.5)")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(lines(proc)[0])["value"] == 1.0


@pytest.mark.parametrize("order", [171, 200])
def test_orders_past_factorial_overflow(order):
    # E[eps(1)^2] = exp(1); lowering weights reach 171! > the largest double
    proc = run_cli("--order", str(order), "-c", "expect eps(1)*eps(1)")
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(lines(proc)[0])["value"] - math.e) <= 1e-12


def test_wick_power_command():
    # eps(f)<>^k = eps(k f), and S(eps(g))(xi) = exp(<g, xi>) truncated at the order
    proc = run_cli("-c", "a = eps(0.001, -0.002)\nstransform a <>^ 1000, 0.5, -0.25")
    assert proc.returncode == 0
    want = sum(1.0 / math.factorial(n) for n in range(9))
    assert abs(json.loads(lines(proc)[0])["value"] - want) <= 1e-12 * want


def test_check_command_exits_clean():
    proc = run_cli("-c", "check chaos_isometry", "--samples", "1000")
    assert proc.returncode == 0
    row = json.loads(lines(proc)[0])
    assert set(row) == {"identity", "exact", "estimate", "std_error",
                        "zscore", "seed"}
    assert row["identity"] == "chaos_isometry"
    assert row["zscore"] == 0.0


def test_check_failure_exit_1():
    proc = run_cli("-c", "check wick_exp_series_closed", "--samples", "1000",
                   "--check-tolerance", "1e-30")
    assert proc.returncode == 1


def test_check_csv_report():
    proc = run_cli("-c", "check chaos_isometry", "--samples", "1000", "--csv")
    assert proc.returncode == 0
    out = lines(proc)
    assert out[0] == "identity,exact,estimate,std_error,zscore,seed"
    assert out[1].startswith("chaos_isometry,")


def test_unknown_check_exit_2():
    proc = run_cli("-c", "check not_a_real_identity")
    assert proc.returncode == 2


def test_seed_flag_changes_mc_rows():
    a = run_cli("-c", "check mean_zero_mc", "--samples", "2000", "--seed", "1")
    b = run_cli("-c", "check mean_zero_mc", "--samples", "2000", "--seed", "2")
    c = run_cli("-c", "check mean_zero_mc", "--samples", "2000", "--seed", "1")
    ra, rb, rc = (json.loads(lines(p)[0]) for p in (a, b, c))
    assert ra["estimate"] != rb["estimate"]
    assert ra == rc


@pytest.mark.heavy
def test_check_all_default_samples():
    proc = run_cli("-c", "check all")
    assert proc.returncode == 0
    rows = [json.loads(l) for l in lines(proc)]
    assert all(abs(r["zscore"]) <= 3.0 for r in rows)


def test_in_process_calls_print_what_fresh_processes_print(capsys):
    """main builds its parser once per process; calls that follow one
    another in a process still print what each prints in a new one."""
    script = "F = I1{(1): 2.0}\nexpect F*F"
    for argv in (["--csv", "-c", script], ["-c", script],
                 ["--dim", "3", "-c", "F = I1{(3): 1.0}\nexpect F*F"],
                 ["--dim", "0", "-c", "expect 1"], ["-c", "expect 1"]):
        fresh = run_cli(*argv)
        code = main(argv)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
