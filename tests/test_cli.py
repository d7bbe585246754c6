import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clustersense import cli, simcore


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_local_values(capsys):
    code, out = run_cli(["local", "--n-min", "1", "--n-max", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,fi_ghz_parity,qfi_ghz,qfi_product"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    n4 = rows[3]
    assert float(n4[1]) == pytest.approx(16.0, rel=1e-6)
    assert float(n4[2]) == pytest.approx(16.0, abs=1e-9)
    assert float(n4[3]) == pytest.approx(4.0, abs=1e-9)
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-8)


@pytest.mark.parametrize("N", [1, 2, 3, 7, 8, 64, 1000, 12345, 99999, 100000])
def test_local_parity_column_is_n_squared_to_a_few_ulp(N):
    # the abstract's claim for the parity strategy, which the exact slope
    # keeps at every N; a central difference drifts by (N * step)^2 / 3
    assert cli._local_row(N)[1] == pytest.approx(N**2, rel=4 * np.finfo(float).eps, abs=0)


def test_verify_tolerances_share_one_floor():
    # the rule lives in _tolerance: both verify commands refuse the same values
    assert cli._tolerance(0.0, 1e-10) == 1e-10
    assert cli._tolerance(2e-15, 1e-10) == 2e-15
    for tol in (1e-15, 1e-16, 1e-300, -1.0, math.inf, math.nan):
        with pytest.raises(cli.UsageError, match="rounding bound"):
            cli._tolerance(tol, 1e-10)


@pytest.mark.parametrize("n_min, n_max, n_step, grid", [
    (21, 23, 0, [23]),
    (21, 24, 0, [24]),
    (21, 22, 0, [22]),
    (256, 256, 0, [256]),
    (21, 26, 0, [25, 26]),
    (1, 8, 0, list(range(1, 9))),
    (1, 64, 0, list(range(1, 21)) + list(range(25, 61, 5)) + [64]),
    (1, 100, 0, list(range(1, 21)) + list(range(25, 101, 5))),
    (1, 200, 0, list(range(1, 21)) + list(range(25, 201, 5))),
    (200, 256, 56, [200, 256]),
    (3, 10, 4, [3, 7, 10]),
])
def test_n_grid_ends_on_n_max_and_is_never_empty(n_min, n_max, n_step, grid):
    assert cli._n_grid(n_min, n_max, n_step) == grid


@pytest.mark.parametrize("argv, ns", [
    (["holevo", "--n-min", "21", "--n-max", "23", "--sigma", "0.5"], ["23"]),
    (["holevo", "--n-min", "21", "--n-max", "26", "--sigma", "0.5"], ["25", "26"]),
    (["bayes-phase", "--n-min", "21", "--n-max", "24", "--sigma", "0.5"], ["24"]),
    (["bayes-freq", "--n-min", "21", "--n-max", "22"], ["22"]),
    (["bayes-freq", "--n-min", "256", "--n-max", "256"], ["256"]),
])
def test_range_without_a_multiple_of_five_writes_n_max(argv, ns, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.split()[1:]] == ns


def test_csv_output_is_deterministic(tmp_path, capsys):
    args = ["bayes-phase", "--sigma", "0.5", "--n-min", "1", "--n-max", "6", "--n-step", "1"]
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli.main(args + ["--out", str(path)])
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_bayes_phase_columns(tmp_path):
    path = tmp_path / "phase.csv"
    assert cli.main(["bayes-phase", "--sigma", "0.5", "--n-min", "6", "--n-max", "6",
                     "--n-step", "1", "--out", str(path)]) == 0
    header, row = path.read_text().strip().splitlines()
    assert header == "N,sigma,inv_V_quantum,inv_V_classical_parallel,inv_V_bound"
    n, sigma, inv_q, inv_c, inv_b = row.split(",")
    assert (n, sigma) == ("6", "0.5")
    assert float(inv_q) > float(inv_b) > float(inv_c)
    assert float(inv_b) == pytest.approx(6 + 4, rel=1e-12)
    # single-qubit closed form appears at N=1
    assert cli.main(["bayes-phase", "--sigma", "0.4", "--n-min", "1", "--n-max", "1",
                     "--n-step", "1", "--out", str(path)]) == 0
    row = path.read_text().strip().splitlines()[1].split(",")
    s2 = 0.4**2
    assert float(row[3]) == pytest.approx(1 / (s2 * (1 - s2 * math.exp(-s2))), rel=1e-9)


def test_mse_limit_grid_crosses_threshold(capsys):
    code, out = run_cli(["mse-limit"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    sigmas = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    window = (sigmas >= math.pi / 2) & (sigmas <= 5 * math.pi / 4)
    assert np.any(values[window] < 0.5) and np.any(values[window] > 0.5)


def test_holevo_rows(capsys):
    code, out = run_cli(["holevo", "--sigma", str(math.pi / 8), "--n-min", "2",
                         "--n-max", "6", "--n-step", "2"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    gains = [float(r[2]) for r in rows]
    assert gains == sorted(gains)


def test_bayes_freq_row(capsys):
    code, out = run_cli(["bayes-freq", "--n-min", "4", "--n-max", "4", "--n-step", "1"], capsys)
    assert code == 0
    header = out.strip().splitlines()[0]
    assert header == "N,delta,tau_quantum,delta2_over_V_quantum,tau_classical,delta2_over_V_classical"
    row = out.strip().splitlines()[1].split(",")
    assert float(row[3]) > float(row[5]) > 1.0


def test_bayes_freq_computes_each_n_once_and_labels_rows_by_delta(monkeypatch, capsys):
    calls = []
    for name in ("optimize_tau", "optimize_tau_classical"):
        def counted(N, *args, name=name, search=getattr(cli.estimate, name)):
            calls.append((name, N))
            return search(N, *args)

        monkeypatch.setattr(cli.estimate, name, counted)
    code, out = run_cli(["bayes-freq", "--delta", "0.1,1,10", "--n-max", "6"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    blocks = [rows[i:i + 6] for i in range(0, 18, 6)]
    assert len(rows) == 18
    for delta, block in zip(["0.1", "1", "10"], blocks):
        assert [row[1] for row in block] == [delta] * 6
        assert [row[:1] + row[2:] for row in block] == [row[:1] + row[2:] for row in blocks[0]]
    # one search of each kind per N, not one per N and delta
    assert sorted(calls) == [(name, N) for name in ("optimize_tau", "optimize_tau_classical")
                             for N in range(1, 7)]


def test_compress_verify_passes(capsys):
    code, out = run_cli(["compress-verify", "3"], capsys)
    assert code == 0
    assert out.strip().endswith("PASS")


def test_compress_verify_fails_with_impossible_tolerance(monkeypatch, capsys):
    # a compressor with one stray X on an output wire maps every input to the
    # wrong binary state: a verification failure, not a usage error
    build = cli.compress.build_compressor

    def broken(N):
        circuit, layout = build(N)
        stray = simcore.x(layout.final_binary[0])
        return simcore.Circuit(circuit.n_qubits, [*circuit.ops, stray]), layout

    monkeypatch.setattr(cli.compress, "build_compressor", broken)
    code, out = run_cli(["compress-verify", "2"], capsys)
    assert code == 1
    assert "MISMATCH" in out
    assert out.strip().endswith("FAIL")


# only ghz and sine read N; the other patterns refuse one
@pytest.mark.parametrize("pattern,n", [("teleport", None), ("yrot", None), ("cnot", None),
                                       ("ghz", 4), ("sine", 2)])
def test_mbqc_verify_passes(pattern, n, capsys):
    code, out = run_cli(["mbqc-verify", pattern] + ([] if n is None else [str(n)]), capsys)
    assert code == 0
    assert out.strip().endswith("PASS")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["mbqc-verify", "bogus-pattern"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["mbqc-verify", "ghz", "1"],
    ["mbqc-verify", "sine", "4"],
    ["holevo", "--sigma", "0"],
    ["bayes-phase", "--sigma", "0.5", "--n-min", "0"],
    ["mbqc-verify", "cnot", "--tol", "-1"],
    ["mbqc-verify", "cnot", "--tol", "nan"],
    ["bayes-phase", "--n-max", "3", "--jobs", "0"],
    ["compress-verify", "2", "--tol", "nan"],
    ["compress-verify", "2", "--tol", "-1"],
    ["bayes-phase", "--n-max", "300"],
    ["bayes-freq", "--n-min", "300", "--n-max", "300"],
    ["bayes-phase", "--n-max", "10", "--n-step", "-3"],
    ["mbqc-verify", "teleport", "--seed", "-1"],
    ["compress-verify", "3", "--seed", "-5"],
    ["local", "--jobs", "-2"],
    ["bayes-phase", "--theta0", "nan", "--n-max", "3"],
    ["bayes-phase", "--theta0", "inf", "--n-max", "3"],
    ["holevo", "--theta0", "inf", "--n-max", "3"],
    ["holevo", "--theta0", "nan", "--n-max", "3"],
    ["bayes-phase", "--sigma", "1e-300", "--n-max", "3"],
    ["holevo", "--sigma", "1e300", "--n-max", "3"],
    ["mse-limit", "--sigma", "1e300"],
    ["bayes-freq", "--delta", "1e-160", "--n-max", "3"],
    ["holevo", "--theta0", "inf"],
    ["bayes-phase", "--sigma", "30", "--n-max", "3"],
    ["mbqc-verify", "teleport", "--tol", "1e-300"],
    ["mbqc-verify", "teleport", "--tol", "1e-16"],
    ["compress-verify", "3", "--tol", "1e-16"],
    ["compress-verify", "3", "--tol", "1e-15"],
    ["compress-verify", "3", "--tol", "1e-300"],
    ["compress-verify", "3", "--tol", "inf"],
    ["holevo", "--n-max", "3", "--jobs", "2"],
    ["compress-verify", "25"],
    ["compress-verify", "300"],
    ["mbqc-verify", "cnot", "5"],
    ["mbqc-verify", "teleport", "3"],
])
def test_out_of_range_arguments_exit_with_usage_code(argv, tmp_path, capsys):
    # neither stdout nor an --out file gets as much as the CSV header
    out = tmp_path / "out.csv"
    sinks = [[]] if argv[0] in ("compress-verify", "mbqc-verify") else [[], ["--out", str(out)]]
    for sink in sinks:
        assert cli.main(argv + sink) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


#: A library call that each CSV command makes for every row.
ROW_CALLS = {"local": "parity_strategy", "bayes-phase": "qft_phase_variance",
             "bayes-freq": "optimize_tau", "holevo": "holevo_bayes_round",
             "mse-limit": "mse_limit_curve"}


@pytest.mark.parametrize("command", list(ROW_CALLS))
@pytest.mark.parametrize("jobs", ["1"])  # the one value --jobs takes, which the benchmark passes
@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_out_that_cannot_be_opened_is_a_usage_error_before_any_row(command, jobs, where, tmp_path,
                                                                   monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli.estimate, ROW_CALLS[command], never)
    argv = [command, "--out", str(tmp_path / where)]
    if command != "mse-limit":
        argv += ["--n-max", "3", "--jobs", jobs]
    if command in ("bayes-phase", "holevo"):
        argv += ["--sigma", "0.3,0.5"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"clustersense {command}: error: --out: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "missing").exists()


#: The options each command accepts, beside -h.
COMMAND_OPTIONS = {
    "local": ["--n-min", "--n-max", "--out", "--jobs"],
    "bayes-phase": ["--n-min", "--n-max", "--n-step", "--sigma", "--theta0", "--out", "--jobs"],
    "bayes-freq": ["--n-min", "--n-max", "--n-step", "--delta", "--out", "--jobs"],
    "mse-limit": ["--sigma", "--out"],
    "holevo": ["--n-min", "--n-max", "--n-step", "--sigma", "--theta0", "--out", "--jobs"],
    "compress-verify": ["--tol", "--seed"],
    "mbqc-verify": ["--tol", "--seed"],
}


def test_each_command_takes_only_the_options_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMAND_OPTIONS)
    options = {name: [flag for action in p._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")]
               for name, p in sub.choices.items()}
    assert options == COMMAND_OPTIONS
    assert sum(map(len, options.values())) == 30


@pytest.mark.parametrize("argv", [
    ["local", "--n-step", "2"],
    ["local", "--sigma", "0.3"],
    ["bayes-phase", "--delta", "1"],
    ["bayes-freq", "--sigma", "0.5"],
    ["holevo", "--tol", "1e-3"],
    ["mse-limit", "--n-max", "50"],
    ["compress-verify", "3", "--out", "x"],
    ["mbqc-verify", "cnot", "--out", "x"],
])
def test_dropped_options_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert f"usage: clustersense {argv[0]}" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, usage, leftover", [
    (["--foo", "local"], "usage: clustersense [-h]", "--foo"),
    (["--foo=1", "local", "--bar"], "usage: clustersense [-h]", "--foo=1"),
    (["local", "--foo"], "usage: clustersense local", "--foo"),
])
def test_unknown_flag_is_reported_by_the_parser_that_received_it(argv, usage, leftover, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert err.strip().endswith(f"error: unrecognized arguments: {leftover}")


@pytest.mark.parametrize("argv", [
    ["holevo", "--theta0", "100", "--n-max", "3"],
    ["holevo", "--sigma", "0.001", "--n-max", "2"],
    ["mse-limit", "--sigma", "1e100"],
    ["bayes-phase", "--theta0", "1e300", "--sigma", "0.5", "--n-max", "3"],
])
def test_in_range_arguments_exit_zero(argv, tmp_path):
    # every cell of these commands is a positive, finite number
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    cells = [float(cell) for line in out.read_text().split()[1:] for cell in line.split(",")]
    assert all(0 < cell < math.inf for cell in cells)


def test_numerical_failure_exits_one(monkeypatch, tmp_path, capsys):
    def unconverged(*args, **kwargs):
        raise cli.estimate.QuadratureError("Gauss-Legendre orders up to 2048 did not converge")

    monkeypatch.setattr(cli.estimate, "holevo_bayes_round", unconverged)
    out = tmp_path / "out.csv"
    assert cli.main(["holevo", "--n-max", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "clustersense holevo: error: Gauss-Legendre orders up to 2048 did not converge"]
    assert not out.exists()


def test_failed_row_leaves_no_partial_csv(tmp_path):
    def rows():
        yield (1, 0.5)
        raise cli.estimate.EstimateError("row 2 failed")

    out = tmp_path / "out.csv"
    with pytest.raises(cli.estimate.EstimateError):
        cli._write_csv(["N", "sigma"], rows(), str(out))
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["local", "--n-min", "1", "--n-max", "6"],
    ["bayes-phase", "--sigma", "0.3,0.5", "--n-max", "4"],
    ["holevo", "--sigma", "0.3,0.5", "--n-max", "4"],
    ["bayes-freq", "--n-max", "3"],
], ids=lambda argv: argv[0])
def test_jobs_flag_preserves_output(argv, tmp_path):
    # the benchmark passes --jobs 1, which must change nothing
    default = tmp_path / "default.csv"
    one = tmp_path / "one.csv"
    assert cli.main(argv + ["--out", str(default)]) == 0
    assert cli.main(argv + ["--jobs", "1", "--out", str(one)]) == 0
    assert default.read_bytes() == one.read_bytes()


def test_commands_in_one_process_match_fresh_processes(monkeypatch, tmp_path):
    # main builds its parser once per process; bayes-freq, bayes-phase and
    # bayes-freq again, run back to back, write what fresh processes write
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    src = str(Path(cli.__file__).parents[1])
    fresh = {}
    for k, argv in enumerate([["bayes-freq", "--n-max", "8"], ["bayes-phase", "--n-max", "10"],
                              ["bayes-freq", "--n-max", "8"]]):
        out = tmp_path / f"{k}.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        if argv[0] not in fresh:
            fresh[argv[0]] = subprocess.run(
                [sys.executable, "-m", "clustersense.cli", *argv], capture_output=True, check=True,
                env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.read_bytes() == fresh[argv[0]]
    assert builds == [1]


def test_wrapper_set_after_the_first_call_is_invoked(monkeypatch, capsys):
    # the handler is looked up as the command runs, not when the parser was built
    argv = ["bayes-freq", "--n-max", "2"]
    assert run_cli(argv, capsys)[0] == 0
    calls = []
    handler = cli.cmd_bayes_freq

    def wrapped(args):
        calls.append(args.command)
        return handler(args)

    monkeypatch.setattr(cli, "cmd_bayes_freq", wrapped)
    first = run_cli(argv, capsys)
    assert calls == ["bayes-freq"]
    monkeypatch.undo()
    assert first == run_cli(argv, capsys)
    assert calls == ["bayes-freq"]
