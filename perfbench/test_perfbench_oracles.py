"""The benchmark's oracles pinned to closed forms, and its checks shown to
reject wrong outputs.  Needs numpy and scipy only, not the program:

    python3 -m pytest -q perfbench/test_perfbench_oracles.py
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks
import oracles

SIGMAS = (0.1, 0.5, 1.0)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_classical_n1_closed_form(sigma):
    assert oracles.classical_parallel_variance(1, sigma) == pytest.approx(
        sigma**2 * (1 - sigma**2 * math.exp(-(sigma**2))), rel=1e-12)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_qft_n1_closed_form(sigma):
    assert oracles.qft_phase_variance(1, sigma, 0.0) == pytest.approx(sigma**2, rel=1e-12)
    assert oracles.qft_phase_variance(1, sigma, 0.3) == pytest.approx(
        oracles.qft_n1(sigma, 0.3), rel=1e-12)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("N", (1, 5, 40, 200))
def test_van_trees_bounds_classical_and_prior_bounds_quantum(N, sigma):
    assert oracles.classical_parallel_variance(N, sigma) >= sigma**2 / (1 + N * sigma**2)
    assert oracles.van_trees_bound(N, sigma) == sigma**2 / (1 + N * sigma**2)
    assert oracles.qft_phase_variance(N, sigma, 0.2) <= sigma**2


@pytest.mark.parametrize("N", (1, 7, 64))
def test_outcome_laws_are_distributions(N):
    phi = np.linspace(-3.0, 3.0, 11)
    assert np.allclose(oracles.binomial_law(N, phi).sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(oracles.fourier_law(oracles.sine_probe(N), phi).sum(axis=1), 1.0, atol=1e-13)


@pytest.mark.parametrize("sigma", (0.2, math.pi / 8, math.pi))
def test_wrapped_normal_trapezoid_phasor(sigma):
    theta = -math.pi + 2 * math.pi * np.arange(512) / 512
    weights = oracles.wrapped_normal_pdf(theta, sigma, 0.4) * (2 * math.pi / 512)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    phasor = weights @ np.exp(1j * theta)
    assert phasor == pytest.approx(np.exp(0.4j - sigma**2 / 2), abs=1e-14)


@pytest.mark.parametrize("sigma", (math.pi / 8, math.pi / 2))
def test_holevo_n1_closed_form(sigma):
    """cos^2(theta/2) and sin^2(theta/2) outcomes against E[e^{ik theta}] = e^{ik theta0 - k^2 sigma^2/2}."""
    theta0 = 0.3
    c1, c2 = (np.exp(1j * k * theta0 - k**2 * sigma**2 / 2) for k in (1, 2))
    p = np.array([(1 + c1.real) / 2, (1 - c1.real) / 2])
    phasor = np.array([c1 / 2 + (1 + c2) / 4, c1 / 2 - (1 + c2) / 4])
    want = float(np.sum(p * (p**2 / np.abs(phasor) ** 2 - 1)))
    assert oracles.holevo_variance(1, sigma, theta0) == pytest.approx(want, rel=1e-12)


def test_targets():
    assert oracles.unary_index(2, 4) == 0b1100
    amps = oracles.unary_embedding(np.array([0.6, 0.0, 0.8]))
    assert amps[0b00] == 0.6 and amps[0b11] == 0.8 and np.count_nonzero(amps) == 2
    assert np.array_equal(oracles.compressed_target(np.eye(13)[5], 4), np.eye(16)[5])
    assert np.allclose(oracles.ry(math.pi), [[0, 1], [-1, 0]])
    assert np.allclose(oracles.h_rz(0.0), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert np.array_equal(oracles.cnot() @ np.eye(4)[2], np.eye(4)[3])
    assert oracles.fidelity(-1j * oracles.ghz_target(3), oracles.ghz_target(3)) == pytest.approx(1.0)


def _freq_rows(n1_classical_tau: float, n1_classical_gain: float) -> list[list[dict]]:
    """One bayes-freq N=1 row: a boundary quantum optimum (gain 1 at tau = 1e-3) and
    the classical optimum 1 - tau^2 e^{-tau^2} at tau = 1."""
    text = ("N,delta,tau_quantum,delta2_over_V_quantum,tau_classical,delta2_over_V_classical\n"
            f"1,1,0.001,1,{n1_classical_tau!r},{n1_classical_gain!r}\n")
    return [[{"op": "bayes-freq", "ok": True, "csv": text}]]


def test_freq_check_accepts_the_closed_form_and_rejects_errors():
    inputs = {"delta": 1.0, "ns": [1]}
    gain = 1 / (1 - math.exp(-1))
    assert checks.check_freq(inputs, _freq_rows(1.0, gain), 0) == []
    assert checks.check_freq(inputs, _freq_rows(1.0, gain * (1 + 1e-6)), 0)
    shifted = 1.05
    assert checks.check_freq(
        inputs, _freq_rows(shifted, 1 / (1 - shifted**2 * math.exp(-(shifted**2)))), 0)


def test_compress_check_rejects_leaks_and_wrong_states():
    inputs = {"N": 1, "superpositions": []}

    def rounds(*states):
        return [[{"op": f"unary {n}", "ok": True, "amps": [[a, 0.0] for a in s]}
                 for n, s in enumerate(states)]]

    assert checks.check_compress(inputs, rounds([1, 0], [0, 1]), 0) == []
    assert checks.check_compress(inputs, rounds([1, 0], [1, 0]), 0)
    assert checks.check_compress(inputs, rounds([1, 0], [0, 0.999]), 0)


def test_default_grids():
    assert len(checks.default_grid(200)) == 56 and checks.default_grid(200)[-1] == 200
    assert checks.default_grid(100)[:21] == list(range(1, 21)) + [25]
