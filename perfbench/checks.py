"""Correctness checks of a run's outputs against the independent oracles.

Each check returns a list of problems; an empty list means correct.
Operations that failed are counted by the caller and not checked here.
CSV cells carry 12 significant digits, so inequalities on printed values
allow a relative slack of 1e-11 for that rounding.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import oracles
import workloads

ROUNDING = 1e-11
CLOSED_FORM_RTOL = 1e-10
ORACLE_RTOL = 1e-8
HOLEVO_RTOL = 1e-6
STATE_TOL = 1e-10
SAMPLED_ROWS = 3
#: ends of bayes-freq's interrogation-time grid; an optimum there has no interior to test
TAU_GRID_ENDS = (1e-3, 20.0)


def default_grid(n_max: int) -> list[int]:
    """The CLI's default N grid: dense to 20, then every 5th, endpoint kept."""
    grid = list(range(1, min(n_max, 20) + 1)) + list(range(25, n_max + 1, 5))
    return grid if grid[-1] == n_max else grid + [n_max]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _rows(text: str) -> list[dict]:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _ok_records(rounds: list[list[dict]]):
    return [rec for records in rounds for rec in records if rec["ok"]]


def _same_every_round(rounds: list[list[dict]], key: str) -> list[str]:
    """Identical inputs must give byte-identical output in every round."""
    first = {}
    problems = []
    for records in rounds:
        for rec in records:
            if rec["ok"] and first.setdefault(rec["op"], rec[key]) != rec[key]:
                problems.append(f"{rec['op']}: output differs between rounds")
    return problems


def _close(label: str, got: float, want: float, rtol: float) -> list[str]:
    if _rel(got, want) <= rtol:
        return []
    return [f"{label}: {got!r} against {want!r} (relative {_rel(got, want):.2e} > {rtol:g})"]


def check_phase(inputs: dict, rounds: list[list[dict]], seed: int) -> list[str]:
    problems = _same_every_round(rounds, "csv")
    sigma, theta0 = inputs["sigma"], inputs["theta0"]
    latest = {rec["op"]: rec["csv"] for rec in _ok_records(rounds)}

    if "bayes-phase" in latest:
        rows = _rows(latest["bayes-phase"])
        grid = default_grid(200)
        if [int(r["N"]) for r in rows] != grid:
            problems.append("bayes-phase: N column is not the default grid")
            return problems
        for r in rows:
            N = int(r["N"])
            if r["inv_V_classical_parallel"] > r["inv_V_bound"] * (1 + ROUNDING):
                problems.append(f"bayes-phase N={N}: classical beats the van Trees bound")
            if r["inv_V_quantum"] < (1 - ROUNDING) / sigma**2:
                problems.append(f"bayes-phase N={N}: quantum posterior wider than the prior")
            problems += _close(f"bayes-phase N={N} bound", r["inv_V_bound"],
                               1 / oracles.van_trees_bound(N, sigma), CLOSED_FORM_RTOL)
        first = rows[0]
        problems += _close("bayes-phase N=1 classical", first["inv_V_classical_parallel"],
                           1 / oracles.classical_n1(sigma), CLOSED_FORM_RTOL)
        problems += _close("bayes-phase N=1 quantum", first["inv_V_quantum"],
                           1 / oracles.qft_n1(sigma, theta0), CLOSED_FORM_RTOL)
        rng = np.random.default_rng([len(grid), seed])
        sampled = sorted(rng.choice(len(grid) - 2, size=SAMPLED_ROWS, replace=False) + 1)
        for r in [rows[int(k)] for k in sampled] + [rows[-1]]:
            N = int(r["N"])
            problems += _close(f"bayes-phase N={N} classical", r["inv_V_classical_parallel"],
                               1 / oracles.classical_parallel_variance(N, sigma), ORACLE_RTOL)
            problems += _close(f"bayes-phase N={N} quantum", r["inv_V_quantum"],
                               1 / oracles.qft_phase_variance(N, sigma, theta0), ORACLE_RTOL)

    if "holevo" in latest:
        rows = _rows(latest["holevo"])
        want = [(N, s) for s in inputs["holevo_sigmas"] for N in default_grid(100)]
        if [(int(r["N"]), r["sigma"]) for r in rows] != [(N, float(f"{s:.12g}")) for N, s in want]:
            problems.append("holevo: rows are not the default grid for each sigma")
            return problems
        for r, (N, s) in zip(rows, want):
            problems += _close(f"holevo N={N} sigma={s:.4f}", r["inv_Vphi_post"],
                               1 / oracles.holevo_variance(N, s, theta0), HOLEVO_RTOL)
    return problems


def _frequency_objective(kind: str, N: int, tau: float) -> float:
    """Frequency variance in units of delta^2: phase variance at width tau over tau^2."""
    phase = oracles.qft_phase_variance if kind == "quantum" else oracles.classical_parallel_variance
    return phase(N, tau) / tau**2


def check_freq(inputs: dict, rounds: list[list[dict]], seed: int) -> list[str]:
    problems = _same_every_round(rounds, "csv")
    latest = {rec["op"]: rec["csv"] for rec in _ok_records(rounds)}
    if "bayes-freq" not in latest:
        return problems
    rows = _rows(latest["bayes-freq"])
    if [int(r["N"]) for r in rows] != inputs["ns"] or any(r["delta"] != inputs["delta"] for r in rows):
        return problems + ["bayes-freq: rows are not the requested N grid at the requested delta"]
    for r in rows:
        N = int(r["N"])
        for kind in ("quantum", "classical"):
            tau, gain = r[f"tau_{kind}"], r[f"delta2_over_V_{kind}"]
            value = _frequency_objective(kind, N, tau)
            problems += _close(f"bayes-freq N={N} {kind} gain", gain, 1 / value, ORACLE_RTOL)
            if any(abs(tau - end) <= 1e-9 * end for end in TAU_GRID_ENDS):
                continue
            for factor in (0.99, 1.01):
                if _frequency_objective(kind, N, tau * factor) < value:
                    problems.append(f"bayes-freq N={N} {kind}: tau={tau!r} is not a minimum "
                                    f"(lower at tau*{factor})")
    return problems


def _state_problems(label: str, amps: list, target: np.ndarray) -> list[str]:
    out = np.array([complex(re, im) for re, im in amps])
    if out.shape != target.shape:
        return [f"{label}: {out.size} amplitudes, expected {target.size}"]
    problems = []
    norm_sq = float(np.vdot(out, out).real)
    if abs(norm_sq - 1.0) > STATE_TOL:
        problems.append(f"{label}: output norm^2 {norm_sq!r} (weight left outside the output)")
    fid = oracles.fidelity(out, target)
    if fid < 1.0 - STATE_TOL:
        problems.append(f"{label}: fidelity {fid!r} with the target")
    return problems


def check_compress(inputs: dict, rounds: list[list[dict]], seed: int) -> list[str]:
    N = inputs["N"]
    lam = max(1, math.ceil(math.log2(N + 1)))
    coeffs = [np.eye(N + 1)[n] for n in range(N + 1)]
    coeffs += workloads.complex_rows(inputs["superpositions"])
    problems = []
    for records in rounds:
        for rec, c in zip(records, coeffs):
            if rec["ok"]:
                problems += _state_problems(rec["op"], rec["amps"], oracles.compressed_target(c, lam))
    return problems


def check_mbqc(inputs: dict, rounds: list[list[dict]], seed: int) -> list[str]:
    sine_N, ghz_N = inputs["sine_N"], inputs["ghz_N"]
    # (vertices, measured vertices) of each pattern, from its construction
    shapes = [(8 * sine_N - 5, 7 * sine_N - 5), (2 * ghz_N - 1, ghz_N - 1), (4, 2)]
    shapes += [(4, 3)] * len(inputs["yrot_angles"]) + [(2, 1)] * len(inputs["teleport_angles"])
    sine_target = oracles.unary_embedding(oracles.sine_probe(sine_N))
    problems = []
    for records in rounds:
        for k, rec in enumerate(records):
            if not rec["ok"]:
                continue
            if k >= len(shapes):
                problems += _state_problems(rec["op"], rec["amps"], sine_target)
                if not rec["probability"] > 0:
                    problems.append(f"{rec['op']}: branch probability {rec['probability']!r}")
                continue
            report, (vertices, measured) = rec["report"], shapes[k]
            if not report["passed"]:
                problems.append(f"{rec['op']}: report did not pass")
            if (report["vertices"], report["branches"]) != (vertices, 2**measured):
                problems.append(f"{rec['op']}: {report['vertices']} vertices and "
                                f"{report['branches']} branches, expected {vertices} and {2**measured}")
            if abs(report["probability_sum"] - 1.0) > STATE_TOL:
                problems.append(f"{rec['op']}: probability sum {report['probability_sum']!r}")
            if report["min_fidelity"] < 1.0 - STATE_TOL:
                problems.append(f"{rec['op']}: min fidelity {report['min_fidelity']!r}")
    return problems


CHECKS = {
    "phase-figure": check_phase,
    "freq-figure": check_freq,
    "compress-verify": check_compress,
    "mbqc-verify": check_mbqc,
}
