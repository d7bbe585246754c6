"""Seeded inputs of the four workloads.

Only numpy is used here, so the orchestrating process (which checks the
results and never imports the program) and the worker (which runs the
program) build the same inputs from the same seed.  Each seed changes the
inputs but not the amount of work a round does, so runs with different
seeds time the same work.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("phase-figure", "freq-figure", "compress-verify", "mbqc-verify")

#: One narrow prior (sigma <= 1) for bayes-phase.  The classical sums cost
#: about 20% more at sigma = 1 than at 0.1, so the seed varies only theta0,
#: which leaves the cost unchanged.
PHASE_SIGMA = 0.5
#: holevo's default widths k pi / 8.
HOLEVO_SIGMAS = tuple(k * math.pi / 8 for k in range(1, 9))
#: bayes-freq keeps one row at N = 40; the seeded small row costs under 3% of it.
FREQ_N_LARGE = 40
FREQ_N_SMALL = (1, 2, 3)
COMPRESS_N = 12
COMPRESS_SUPERPOSITIONS = 2
SINE_N = 3
RUN_PATTERN_SAMPLES = 4


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs as plain Python values (JSON-serialisable)."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "phase-figure":
        holevo = rng.choice(len(HOLEVO_SIGMAS), size=2, replace=False)
        return {
            "sigma": PHASE_SIGMA,
            "holevo_sigmas": [HOLEVO_SIGMAS[int(k)] for k in sorted(holevo)],
            "theta0": float(rng.uniform(-0.5, 0.5)),
        }
    if workload == "freq-figure":
        return {"delta": 1.0,
                "ns": [int(rng.choice(FREQ_N_SMALL)), FREQ_N_LARGE]}
    if workload == "compress-verify":
        raw = (rng.normal(size=(COMPRESS_SUPERPOSITIONS, COMPRESS_N + 1))
               + 1j * rng.normal(size=(COMPRESS_SUPERPOSITIONS, COMPRESS_N + 1)))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        return {"N": COMPRESS_N,
                "superpositions": [[[c.real, c.imag] for c in row] for row in raw]}
    if workload == "mbqc-verify":
        n_measured = 7 * SINE_N - 5
        return {
            "sine_N": SINE_N,
            "ghz_N": int(rng.integers(3, 7)),
            "yrot_angles": [float(a) for a in rng.uniform(-math.pi, math.pi, size=3)],
            "teleport_angles": [0.0, math.pi / 2] + [float(a) for a in rng.uniform(-math.pi, math.pi, size=2)],
            "branches": [[int(b) for b in rng.integers(0, 2, size=n_measured)]
                         for _ in range(RUN_PATTERN_SAMPLES)],
        }
    raise ValueError(f"unknown workload {workload!r}")


def complex_rows(rows) -> list[np.ndarray]:
    """Undo the [re, im] pairs used to pass complex vectors as JSON."""
    return [np.array([complex(re, im) for re, im in row]) for row in rows]

