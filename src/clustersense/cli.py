"""Command-line front end: estimation-curve data as deterministic CSV, plus
the compression and measurement-pattern verification suites.

Exit codes: 0 on success, 1 on a verification failure, 2 on usage errors
(any value a command or the library refuses).  A CSV command computes its
whole table before it writes the header, so one that fails writes nothing.
CSV cells are formatted with 12 significant digits ('%.12g', NaN spelled
"nan"), so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import compress, estimate, mbqc, probes, simcore


class UsageError(Exception):
    """A command-line value outside the range its command accepts."""


#: Errors reported as a one-line message with exit code 2.
_USAGE_ERRORS = (UsageError, compress.CompressError, estimate.EstimateError, mbqc.PatternError,
                 probes.ProbeError, simcore.SimulationError)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.12g}"


def _write_csv(header: list[str], rows, out: str | None) -> None:
    """Write the table of `rows`, a lazy iterable.  An `out` that cannot be
    opened is a usage error, reported before the first row is computed.
    Every row is computed before the header is written, so a row that fails
    leaves stdout empty, and `out` is removed rather than left empty."""
    try:
        sink = open(out, "w") if out else sys.stdout
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from None
    try:
        cells = [header] + [[_fmt(v) for v in row] for row in rows]
        sink.writelines(",".join(line) + "\n" for line in cells)
    except BaseException:
        if out:
            sink.close()
            os.remove(out)
        raise
    if out:
        sink.close()


def _parse_widths(text: str, flag: str) -> list[float]:
    """Comma-separated prior widths; each must be positive, with a square
    and an inverse square that are finite and nonzero in float64."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    if not values or not all(v > 0 and 0 < v * v < math.inf and 1 / (v * v) < math.inf
                             for v in values):
        raise UsageError(f"{flag} needs positive widths whose square and inverse square "
                         f"are finite and nonzero, got {text!r}")
    return values


def _tolerance(tol: float) -> float:
    """The --tol value of both verify commands: 0 keeps the default 1e-10,
    otherwise it must be finite and above mbqc.LEVEL_ROUNDING.  A fidelity
    carries rounding of about 1e-16, so a tolerance at or below that bound
    would report mismatches that rounding alone makes."""
    if tol == 0:
        return 1e-10
    if not mbqc.LEVEL_ROUNDING < tol < math.inf:
        raise UsageError(f"--tol needs a finite value above the rounding bound "
                         f"{mbqc.LEVEL_ROUNDING:g} (0 for the default), got {tol}")
    return tol


def _rng(seed: int) -> np.random.Generator:
    """The generator of a nonnegative --seed."""
    if seed < 0:
        raise UsageError(f"--seed needs a nonnegative integer, got {seed}")
    return np.random.default_rng(seed)


def _n_grid(n_min: int, n_max: int, n_step: int) -> list[int]:
    """Dense up to 20, then every 5th value, unless an explicit step is given;
    the endpoint is always included, so the grid is never empty."""
    if not 1 <= n_min <= n_max:
        raise UsageError(f"need 1 <= --n-min <= --n-max, got {n_min} and {n_max}")
    if n_step < 0:
        raise UsageError(f"--n-step needs a positive stride (0 for the default grid), got {n_step}")
    if n_step > 0:
        grid = list(range(n_min, n_max + 1, n_step))
    else:
        dense = list(range(n_min, min(n_max, 20) + 1))
        grid = dense + [n for n in range(25, n_max + 1, 5) if n >= n_min]
    if grid[-1:] != [n_max]:
        grid.append(n_max)
    return grid


def _classical_n_grid(args) -> list[int]:
    """The N grid of a command that also evaluates the classical strategy,
    which is capped at CLASSICAL_PARALLEL_N_CAP."""
    ns = _n_grid(args.n_min, args.n_max, args.n_step)
    if ns[-1] > estimate.CLASSICAL_PARALLEL_N_CAP:
        raise UsageError(f"--n-max {args.n_max} exceeds the classical strategy's cap "
                         f"N={estimate.CLASSICAL_PARALLEL_N_CAP}")
    return ns


# ---------------------------------------------------------------------------
# local estimation

def _local_row(N: int) -> tuple:
    theta = math.pi / (3 * N)  # keeps sin(N theta) away from zero
    p_even, p_odd, _ = estimate.parity_strategy(N, theta)
    # p(even) = cos^2(N theta / 2) has the exact slope -(N/2) sin(N theta);
    # p(odd) has the opposite one
    slope = -N / 2 * math.sin(N * theta)
    fi = slope**2 / p_even + slope**2 / p_odd
    qfi_ghz = estimate.qfi_pure(probes.ghz_subspace(N))
    qfi_product = N * estimate.qfi_statevector(simcore.plus_state(1))
    return (N, fi, qfi_ghz, qfi_product)


def cmd_local(args) -> int:
    rows = (_local_row(N) for N in _n_grid(args.n_min, args.n_max, 1))
    _write_csv(["N", "fi_ghz_parity", "qfi_ghz", "qfi_product"], rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# Bayesian phase estimation

def _phase_rows(sigma: float, ns: list[int], theta0: float):
    # the quantum column checks the prior's mean and width first
    quantum = estimate.qft_phase_curve(ns, sigma, theta0)
    classical = estimate.classical_parallel_curve(ns, sigma)
    for N, v_q, v_c in zip(ns, quantum, classical):
        yield (N, sigma, 1.0 / v_q, 1.0 / v_c, 1.0 / estimate.van_trees_bound(N, sigma))


def cmd_bayes_phase(args) -> int:
    sigmas = _parse_widths(args.sigma, "--sigma") if args.sigma else [k / 10 for k in range(1, 11)]
    ns = _classical_n_grid(args)
    rows = (row for sigma in sigmas for row in _phase_rows(sigma, ns, args.theta0))
    _write_csv(["N", "sigma", "inv_V_quantum", "inv_V_classical_parallel", "inv_V_bound"],
               rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# Bayesian frequency estimation

def _freq_cell(N: int) -> tuple:
    quantum = estimate.optimize_tau(N, probes.sine_coefficients(N), None)
    classical = estimate.optimize_tau_classical(N)
    return (quantum.tau, 1.0 / quantum.vbar, classical.tau, 1.0 / classical.vbar)


def cmd_bayes_freq(args) -> int:
    deltas = _parse_widths(args.delta, "--delta") if args.delta else [1.0]
    ns = _classical_n_grid(args)

    def rows():
        # times in units of 1 / delta and MSEs in units of delta^2 do not
        # depend on delta: each N is computed once, and delta only labels its rows
        computed = [_freq_cell(N) for N in ns]
        for delta in deltas:
            yield from ((N, delta, *cell) for N, cell in zip(ns, computed))

    _write_csv(["N", "delta", "tau_quantum", "delta2_over_V_quantum",
                "tau_classical", "delta2_over_V_classical"], rows(), args.out)
    return 0


# ---------------------------------------------------------------------------
# MSE validity limit

def cmd_mse_limit(args) -> int:
    if args.sigma:
        sigmas = _parse_widths(args.sigma, "--sigma")
    else:
        sigmas = [round(0.05 * k, 10) for k in range(1, 81)]
    rows = ((sigma, estimate.mse_limit_curve(sigma)[0]) for sigma in sigmas)
    _write_csv(["sigma", "vmin_over_prior_variance"], rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# Holevo phase variance (wrapped prior)

def cmd_holevo(args) -> int:
    sigmas = (_parse_widths(args.sigma, "--sigma") if args.sigma
              else [k * math.pi / 8 for k in range(1, 9)])
    ns = _n_grid(args.n_min, args.n_max, args.n_step)
    # each prior checks its mean and width before --out is opened
    priors = [estimate.wrapped_gaussian_prior(sigma, args.theta0) for sigma in sigmas]

    def rows():
        # the table is computed once --out is open, so an --out that cannot
        # be opened is reported first
        for prior, column in zip(priors, estimate.holevo_curve(ns, priors)):
            yield from ((N, prior.sigma, 1.0 / value) for N, value in zip(ns, column))

    _write_csv(["N", "sigma", "inv_Vphi_post"], rows(), args.out)
    return 0


# ---------------------------------------------------------------------------
# Compression verification

def cmd_compress_verify(args) -> int:
    N = args.N
    tol = _tolerance(args.tol)
    rng = _rng(args.seed)
    probes.check_dense_width(N)  # before the resource line: a usage error prints nothing
    circuit, layout = compress.build_compressor(N)
    report = compress.count_resources(circuit, layout.step_slices)
    print(f"compressor N={N}: lambda={layout.lam}, qubits={layout.n_qubits}, "
          f"gates={report.gate_count}, toffolis={report.toffoli_count}, depth={report.depth}")
    ok = True

    for n in range(N + 1):
        bits = "1" * n + "0" * (N - n)
        expected = compress.classical_compress_oracle(bits)
        result = compress.compress_statevector(probes.unary_basis_state(n, N), layout, circuit)
        target = simcore.basis_state(format(expected, f"0{layout.lam}b"))
        fid = simcore.fidelity_up_to_global_phase(result, target)
        good = fid >= 1.0 - tol
        ok &= good
        print(f"  unary {bits} -> binary {expected}: fidelity {fid:.12f} "
              f"{'ok' if good else 'MISMATCH'}")

    for trial in range(20):
        raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
        coeffs = raw / np.linalg.norm(raw)
        state = probes.unary_embedding(probes.SubspaceState(N, coeffs))
        result = compress.compress_statevector(state, layout, circuit)
        target_amps = np.zeros(2**layout.lam, dtype=complex)
        target_amps[: N + 1] = coeffs
        fid = simcore.fidelity_up_to_global_phase(result, simcore.StateVector(layout.lam, target_amps))
        good = fid >= 1.0 - tol
        ok &= good
        if not good or trial == 19:
            print(f"  random superposition {trial + 1}/20: fidelity {fid:.12f} "
                  f"{'ok' if good else 'MISMATCH'}")

    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Pattern verification

def _verify_named_pattern(name: str, N: int | None, seed: int, tol: float
                          ) -> list[mbqc.VerifyReport]:
    """The reports of one named pattern; only `ghz` and `sine` read N (3 when not given)."""
    rng = _rng(seed)
    if name in ("ghz", "sine"):
        N = 3 if N is None else N
    elif N is not None:
        raise UsageError(f"pattern {name!r} takes no N, got {N}")
    if name == "teleport":
        angles = [0.0, math.pi / 2] + list(rng.uniform(-math.pi, math.pi, size=3))
        return [mbqc.verify_pattern(mbqc.teleport_pattern(phi), mbqc.teleport_unitary(phi), tol=tol)
                for phi in angles]
    if name == "yrot":
        angles = list(rng.uniform(-math.pi, math.pi, size=10))
        return [mbqc.verify_pattern(mbqc.y_rotation_pattern(phi), mbqc.ry_matrix(phi), tol=tol)
                for phi in angles]
    if name == "cnot":
        return [mbqc.verify_pattern(mbqc.cnot_pattern(), mbqc.CNOT_MATRIX, tol=tol)]
    if name == "ghz":
        pattern = mbqc.ghz_pattern(N)
        return [mbqc.verify_pattern(pattern, probes.ghz_state(N), tol=tol)]
    if name == "sine":
        pattern = mbqc.sine_pattern(N)
        target = probes.unary_embedding(probes.sine_coefficients(N))
        return [mbqc.verify_pattern(pattern, target, tol=tol)]
    raise UsageError(f"unknown pattern {name!r}")


def cmd_mbqc_verify(args) -> int:
    tol = _tolerance(args.tol)
    reports = _verify_named_pattern(args.pattern, args.N, args.seed, tol)
    ok = True
    for report in reports:
        ok &= report.passed
        print(f"  {args.pattern}: {report}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

#: Every option a command may take.  Each command lists the ones it reads and
#: argparse rejects the rest; `--n-max` takes its default from the command.
_OPTIONS = {
    "--n-min": {"type": int, "default": 1},
    "--n-max": {"type": int},
    "--n-step": {"type": int, "default": 0,
                 "help": "explicit N stride (default: dense to 20, then every 5th)"},
    "--sigma": {"type": str, "default": "", "help": "comma-separated prior widths"},
    "--delta": {"type": str, "default": "", "help": "comma-separated frequency prior widths"},
    "--theta0": {"type": float, "default": 0.0},
    "--out": {"type": str, "default": ""},
    "--tol": {"type": float, "default": 0.0,
              "help": "tolerance override (0 keeps the default 1e-10)"},
    "--jobs": {"type": int, "default": 1, "help": "1 only: runs are serial"},
    "--seed": {"type": int, "default": 0, "help": "seed for the randomized verification inputs"},
}
_GRID = ("--n-min", "--n-max", "--n-step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersense",
        description="Cluster-state metrology: estimation curves and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, options, **defaults):
        p = sub.add_parser(name, help=help)
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(parser=p, **defaults)
        return p

    command("local", "GHZ/parity Fisher information vs qubit number",
            ("--n-min", "--n-max", "--out", "--jobs"), n_max=8)
    command("bayes-phase", "Gaussian-prior phase estimation curves",
            (*_GRID, "--sigma", "--theta0", "--out", "--jobs"), n_max=200)
    command("bayes-freq", "frequency estimation with optimized interrogation time",
            (*_GRID, "--delta", "--out", "--jobs"), n_max=64)
    command("mse-limit", "minimal posterior MSE vs prior width", ("--sigma", "--out"))
    command("holevo", "wrapped-prior Holevo phase variance curves",
            (*_GRID, "--sigma", "--theta0", "--out", "--jobs"), n_max=100)
    p = command("compress-verify", "unary-to-binary compressor checks", ("--tol", "--seed"))
    p.add_argument("N", type=int)
    p = command("mbqc-verify", "branch-exhaustive measurement-pattern checks",
                ("--tol", "--seed"))
    p.add_argument("pattern", choices=["teleport", "yrot", "cnot", "ghz", "sine"])
    p.add_argument("N", type=int, nargs="?")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call in a process (1-2 ms);
    parsing leaves it unchanged, so every later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the top-level parser takes no option but -h, so whatever precedes
        # the command name is its leftover; the rest is the command's
        ahead = argv.index(args.command)
        if ahead:
            parser.error(f"unrecognized arguments: {' '.join(argv[:ahead])}")
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        # every command runs serially in this process; --jobs stays, at its
        # one value, only while the benchmark still passes it
        if getattr(args, "jobs", 1) != 1:
            raise UsageError(f"--jobs takes only 1, since runs are serial, got {args.jobs}")
        # the command's handler is looked up as it runs, so a wrapper set on
        # this module after the parser was built is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _USAGE_ERRORS as exc:
        print(f"clustersense {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
