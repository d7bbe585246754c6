import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import reference

import clustersense
from clustersense import estimate as est
from clustersense import mbqc, probes, simcore
from clustersense.estimate import (
    EstimateError,
    MSEValidityWarning,
    Povm,
    TAU_GRID,
    bayes_round,
    classical_parallel_variance,
    dephased_fisher_information,
    flat_prior,
    frequency_round,
    gamma_eta,
    gaussian_prior,
    holevo_bayes_round,
    holevo_variance,
    mse_limit_curve,
    noisy_local_equivalence_check,
    optimize_tau,
    optimize_tau_classical,
    parity_strategy,
    qfi_pure,
    qfi_statevector,
    qft_phase_variance,
    qft_povm,
    single_qubit_optimal_povm,
    van_trees_bound,
    wrapped_gaussian_prior,
)

PLUS_PROBE = probes.SubspaceState(1, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))


# ---------------------------------------------------------------------------
# local estimation

def test_parity_strategy_values():
    p_plus, p_minus, variance = parity_strategy(3, math.pi / 3)
    assert p_plus == pytest.approx(math.cos(math.pi / 2) ** 2, abs=1e-15)
    assert p_plus == pytest.approx(0.0, abs=1e-15)
    assert p_minus == pytest.approx(1.0, abs=1e-15)
    assert parity_strategy(1, 0.0)[0] == pytest.approx(1.0)
    for N in (1, 2, 7):
        assert parity_strategy(N, 0.4)[2] == pytest.approx(1.0 / N**2)


# the central difference of half-width STEP is off by a relative O((N STEP)^2)
# on a law of harmonics up to e^{i N theta}; it measures (N STEP)^2 / 3 here
STEP = 1e-5


def test_fisher_information_of_parity_is_N_squared():
    for N in range(1, 9):
        fi = reference.fisher_information_by_differences(reference.parity_law(N),
                                                         math.pi / (3 * N), STEP)
        assert fi == pytest.approx(N**2, rel=(N * STEP) ** 2)


def test_fisher_information_of_product_probe_is_N():
    fi = reference.fisher_information_by_differences(reference.product_law(5), 0.0, STEP)
    assert fi == pytest.approx(5.0, rel=(5 * STEP) ** 2)


def test_fisher_information_constant_distribution_is_zero():
    assert reference.fisher_information_by_differences(lambda t: np.array([0.25, 0.75]), 0.3) == 0.0


def test_fisher_information_rejects_negative_probabilities():
    with pytest.raises(EstimateError):
        reference.fisher_information_by_differences(lambda theta: np.array([-0.1, 1.1]), 0.0)


def test_finite_difference_matches_analytic_derivative():
    # for the parity strategy dp/dtheta is -+ N sin(N theta) / 2
    N, theta = 5, 0.37
    p_plus, p_minus, _ = parity_strategy(N, theta)
    dp = N * math.sin(N * theta) / 2
    analytic = dp**2 / p_plus + dp**2 / p_minus
    numeric = reference.fisher_information_by_differences(reference.parity_law(N), theta, STEP)
    assert numeric == pytest.approx(analytic, rel=(N * STEP) ** 2)


def _parity_povm(N: int, reversal: bool = True) -> Povm:
    """The parity of the N X outcomes on the GHZ probe's span {|0>, |N>}: the
    projectors (I +- J) / 2, J the reversal n <-> N - n (the identity when
    reversal is False, which leaves the effects I and 0), each its own factor."""
    J = np.eye(N + 1)[::-1] if reversal else np.eye(N + 1)
    return Povm(np.stack([np.eye(N + 1) + J, np.eye(N + 1) - J]) / 2, ("even", "odd"))


@pytest.mark.parametrize("N", [1, 2, 3, 8, 20, 64, 200])
def test_parity_povm_kernel_route_is_N_squared(N):
    # the parity measurement as a factored Povm through the analytic state
    # derivative of the undephased probe; a parity without the reversal
    # carries no information
    probe = probes.ghz_subspace(N)
    theta = math.pi / (3 * N)
    fi = dephased_fisher_information(probe, _parity_povm(N), 0.0, theta)
    assert fi == pytest.approx(N**2, rel=1e-12)
    assert dephased_fisher_information(probe, _parity_povm(N, reversal=False), 0.0, theta) == 0.0


def test_qfi_pure_examples():
    for N in (1, 4, 9):
        assert qfi_pure(probes.ghz_subspace(N)) == pytest.approx(N**2, abs=1e-10)
    basis = np.zeros(5, dtype=complex)
    basis[2] = 1.0
    assert qfi_pure(probes.SubspaceState(4, basis)) == pytest.approx(0.0, abs=1e-12)
    for N in (3, 6, 12):
        assert qfi_pure(probes.sine_coefficients(N)) >= N


def test_qfi_statevector_product_state():
    assert qfi_statevector(simcore.plus_state(5)) == pytest.approx(5.0, abs=1e-10)


# ---------------------------------------------------------------------------
# POVMs

def test_qft_povm_completeness_and_size():
    for N in (1, 4, 9):
        povm = qft_povm(N)
        effects = reference.dense_effects(povm)
        assert len(effects) == len(povm.labels) == N + 2
        np.testing.assert_allclose(effects.sum(axis=0), np.eye(N + 1), atol=1e-10)


def test_qft_povm_single_qubit_effects():
    effects = reference.dense_effects(qft_povm(1))
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    np.testing.assert_allclose(effects[0], plus, atol=1e-12)
    np.testing.assert_allclose(effects[1], minus, atol=1e-12)
    np.testing.assert_allclose(effects[2], np.zeros((2, 2)), atol=1e-15)


def test_probe_weight_never_reaches_completion_effect():
    N = 6
    povm = qft_povm(N)
    probs = povm.outcome_probabilities(est.dephased_rho(probes.sine_coefficients(N), 0.0, 0.83))
    assert probs[-1] < 1e-12
    assert np.sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_povm_validation():
    # incomplete, not a number, empty, without effects, two axes, ragged,
    # one label short
    for factors, labels in [(np.sqrt(0.5) * np.eye(2)[None], ("half",)),
                            (np.full((1, 2, 2), np.nan), ("nan",)), ((), ()),
                            (np.zeros((0, 1, 2)), ()), (np.eye(2), ("a", "b")),
                            ([[[1, 0]], [[0, 1, 0]]], ("a", "b")),
                            (np.eye(2)[:, None, :], ("a",))]:
        with pytest.raises(EstimateError):
            Povm(factors, labels)


_ARRAY_VALUES = {
    "StateVector": lambda: simcore.plus_state(2),
    "SubspaceState": lambda: probes.sine_coefficients(2),
    "AngleSchedule": lambda: probes.angles_from_amplitudes(probes.sine_coefficients(2)),
    "Povm": lambda: qft_povm(2),
    "EstimationResult": lambda: bayes_round(gaussian_prior(0.5), probes.sine_coefficients(2),
                                            qft_povm(2)),
}


@pytest.mark.parametrize("build", _ARRAY_VALUES.values(), ids=_ARRAY_VALUES.keys())
def test_values_holding_arrays_compare_and_hash_by_identity(build):
    # an elementwise array comparison has no single truth value
    x, y = build(), build()
    assert x == x
    assert not x == y
    assert hash(x) == hash(x)
    assert x in {x}


# ---------------------------------------------------------------------------
# Gamma / eta and the Bayes round

def test_gamma_dephases_to_diagonal_for_wide_priors():
    probe = probes.sine_coefficients(3)
    gamma, _ = gamma_eta(gaussian_prior(50.0), probe)
    np.testing.assert_allclose(gamma, np.diag(probe.probabilities()), atol=1e-12)


def test_gamma_eta_match_quadrature():
    probe = probes.sine_coefficients(2)
    prior = gaussian_prior(0.3, theta0=0.4)
    gamma, eta = gamma_eta(prior, probe)
    n = np.arange(3)
    for i in range(3):
        for j in range(3):
            kappa = n[i] - n[j]
            char = reference._quad_complex(
                lambda t: float(prior.pdf(t)) * np.exp(-1j * kappa * t),
                prior.theta0 - 8 * prior.sigma, prior.theta0 + 8 * prior.sigma)
            first = reference._quad_complex(
                lambda t: t * float(prior.pdf(t)) * np.exp(-1j * kappa * t),
                prior.theta0 - 8 * prior.sigma, prior.theta0 + 8 * prior.sigma)
            outer = probe.coeffs[i] * probe.coeffs[j].conjugate()
            assert gamma[i, j] == pytest.approx(outer * char, abs=1e-8)
            assert eta[i, j] == pytest.approx(outer * first, abs=1e-8)


def test_gamma_properties():
    probe = probes.sine_coefficients(4)
    prior = gaussian_prior(0.5, theta0=0.9)
    gamma, eta = gamma_eta(prior, probe)
    np.testing.assert_allclose(gamma, gamma.conj().T, atol=1e-12)
    np.testing.assert_allclose(eta, eta.conj().T, atol=1e-12)
    assert np.trace(gamma).real == pytest.approx(1.0, abs=1e-10)
    assert min(np.linalg.eigvalsh(gamma)) >= -1e-12
    # the estimator averages back to the prior mean
    assert np.trace(eta).real == pytest.approx(prior.theta0, abs=1e-10)


def test_wrapped_gamma_matches_gaussian_harmonics():
    # integer harmonics of the wrapped Gaussian equal the plain Gaussian ones
    probe = probes.sine_coefficients(3)
    wrapped, _ = gamma_eta(wrapped_gaussian_prior(0.6, 0.2), probe)
    plain, _ = gamma_eta(gaussian_prior(0.6, 0.2), probe)
    np.testing.assert_allclose(wrapped, plain, atol=1e-8)


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
def test_single_qubit_closed_forms(sigma):
    result = bayes_round(gaussian_prior(sigma), PLUS_PROBE, single_qubit_optimal_povm(0.0))
    expected_estimate = sigma**2 * math.exp(-(sigma**2) / 2)
    expected_vbar = sigma**2 * (1 - sigma**2 * math.exp(-(sigma**2)))
    np.testing.assert_allclose(np.sort(result.estimates),
                               [-expected_estimate, expected_estimate], atol=1e-8)
    assert result.avg_posterior_variance == pytest.approx(expected_vbar, abs=1e-8)
    np.testing.assert_allclose(result.probs, [0.5, 0.5], atol=1e-12)


def test_single_qubit_closed_forms_with_offset_mean():
    sigma, theta0 = 0.5, 1.1
    result = bayes_round(gaussian_prior(sigma, theta0), PLUS_PROBE,
                         single_qubit_optimal_povm(theta0))
    shift = sigma**2 * math.exp(-(sigma**2) / 2)
    np.testing.assert_allclose(np.sort(result.estimates),
                               [theta0 - shift, theta0 + shift], atol=1e-8)
    assert result.avg_posterior_variance == pytest.approx(
        sigma**2 * (1 - sigma**2 * math.exp(-(sigma**2))), abs=1e-8)


def test_sine_qft_beats_classical_bound_at_six_qubits():
    vbar = bayes_round(gaussian_prior(0.5), probes.sine_coefficients(6),
                       qft_povm(6)).avg_posterior_variance
    assert 1.0 / vbar > 6 + 1 / 0.5**2


def test_posterior_never_wider_than_prior():
    for N in (1, 3, 7):
        for sigma in (0.2, 0.6, 1.0):
            vbar = bayes_round(gaussian_prior(sigma), probes.sine_coefficients(N),
                               qft_povm(N)).avg_posterior_variance
            assert 0.0 <= vbar <= sigma**2


def test_bayes_round_quadrature_oracle_agreement():
    for N in (2, 5):
        probe = probes.sine_coefficients(N)
        povm = qft_povm(N)
        for sigma in (0.1, 0.5, 1.0):
            closed = bayes_round(gaussian_prior(sigma), probe, povm).avg_posterior_variance
            quad = reference.bayes_variance_quadrature(gaussian_prior(sigma), probe, povm)
            assert closed == pytest.approx(quad, rel=1e-6)


def test_fast_qft_path_matches_generic_route():
    for N in (2, 6, 11):
        for sigma in (0.2, 0.8):
            fast = qft_phase_variance(N, sigma, theta0=0.3)
            via_povm = bayes_round(gaussian_prior(sigma, 0.3), probes.sine_coefficients(N),
                                   qft_povm(N)).avg_posterior_variance
            assert fast == pytest.approx(via_povm, rel=1e-12)


def _random_povm(N: int, rank: int, rng) -> Povm:
    """Projectors onto runs of `rank` columns of a random unitary (the last
    run shorter when rank does not divide N + 1, its factor padded with
    zero rows)."""
    raw = rng.normal(size=(N + 1, N + 1)) + 1j * rng.normal(size=(N + 1, N + 1))
    bras = np.vstack([np.linalg.qr(raw)[0].conj().T, np.zeros((-(N + 1) % rank, N + 1))])
    return Povm(bras.reshape(-1, rank, N + 1), tuple(str(c) for c in range(len(bras) // rank)))


@pytest.mark.parametrize("N", [1, 3, 8, 40])
def test_folded_effects_match_dense_traces(N):
    # the factored traces of an explicit POVM against one dense operator per
    # harmonic row, on a stack of complex rows of unit scale, and its outcome
    # probabilities against the dense effects; qft_povm's outcomes in the
    # order of the Fourier readout's
    rng = np.random.default_rng(N)
    raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    probe = probes.SubspaceState(N, raw / np.linalg.norm(raw))
    rows = np.exp(1j * rng.uniform(-math.pi, math.pi, size=(2, 3, 2 * N + 1)))
    qft = qft_povm(N)
    padded = Povm(np.concatenate([qft.factors, np.zeros((N + 2, 2, N + 1))], axis=1), qft.labels)
    povms = [qft, _random_povm(N, 2, rng), _random_povm(N, 3, rng), padded]
    if N == 1:
        povms.append(single_qubit_optimal_povm(0.4))
    rho = est.dephased_rho(probe, 0.3, 0.7)
    for povm in povms:
        np.testing.assert_allclose(est._traces(probe, rows, povm),
                                   reference.traces_dense(probe, rows, povm), rtol=0, atol=1e-13)
        np.testing.assert_allclose(povm.outcome_probabilities(rho),
                                   np.einsum("kij,ji->k", reference.dense_effects(povm), rho).real,
                                   rtol=0, atol=1e-13)
    np.testing.assert_allclose(est._traces(probe, rows, qft)[..., :N + 1],
                               est._traces(probe, rows, None), rtol=0, atol=1e-13)


@pytest.mark.parametrize("theta0", [0.0, 0.3])
def test_diagonal_fft_route_matches_dense_reference(theta0):
    # V = sigma^2 - sum g^2/p cancels up to four digits at N = 200, so the
    # sum, of size sigma^2, is what both routes hold to 1e-12.  A random
    # complex probe gives a Gamma without the sine probe's mirror symmetry.
    rng = np.random.default_rng(5)
    for N in (1, 2, 7, 40, 200):
        raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
        for probe in (probes.sine_coefficients(N), probes.SubspaceState(N, raw / np.linalg.norm(raw))):
            for sigma in (0.1, 0.5, 1.0):
                fast = qft_phase_variance(N, sigma, theta0, probe)
                dense = reference.qft_phase_variance_dense(N, sigma, theta0, probe)
                assert fast == pytest.approx(dense, rel=1e-12, abs=1e-12 * sigma**2)


@pytest.mark.parametrize("theta0", [10.0, 1e3, 1e6, 1e9, 1e300, -1e300])
def test_gaussian_rounds_keep_their_digits_at_large_means(theta0):
    # the outcome law is 2 pi-periodic in theta, so a Gaussian prior's MSE
    # sees its mean only through theta0 reduced into [-pi, pi], and its
    # estimates move with the mean
    reduced = math.remainder(theta0, 2 * math.pi)
    for N in (1, 2, 10, 50, 200):
        for sigma in (0.1, 0.5, 1.0):
            value = qft_phase_variance(N, sigma, theta0)
            assert value == pytest.approx(qft_phase_variance(N, sigma, reduced), rel=1e-13, abs=0)
            assert 0 < value <= sigma**2
    probe, povm = probes.sine_coefficients(3), qft_povm(3)
    far, near = (bayes_round(gaussian_prior(0.5, t), probe, povm) for t in (theta0, reduced))
    assert far.avg_posterior_variance == pytest.approx(near.avg_posterior_variance, rel=1e-13)
    live = near.probs > est.PROB_FLOOR
    np.testing.assert_allclose(far.estimates[live], near.estimates[live] + (theta0 - reduced),
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(far.posterior_variances[live], near.posterior_variances[live],
                               rtol=1e-13, atol=0)
    gamma, eta = gamma_eta(gaussian_prior(0.5, theta0), probe)
    near_gamma, near_eta = gamma_eta(gaussian_prior(0.5, reduced), probe)
    np.testing.assert_allclose(gamma, near_gamma, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(eta, near_eta + (theta0 - reduced) * near_gamma, rtol=1e-13,
                               atol=1e-15 * abs(theta0))


def test_mse_warning_for_wide_priors():
    with pytest.warns(MSEValidityWarning):
        bayes_round(gaussian_prior(1.2), PLUS_PROBE, single_qubit_optimal_povm())


def test_outcome_pruning_limit():
    # an effect whose weight vanishes contributes nothing in the limit
    povm = Povm(np.eye(2)[:, None, :], ("0", "1"))
    prior = gaussian_prior(0.4)
    vbars = []
    for eps in (1e-4, 1e-6, 0.0):
        coeffs = np.array([math.sqrt(1 - eps**2), eps], dtype=complex)
        vbars.append(bayes_round(prior, probes.SubspaceState(1, coeffs),
                                 povm).avg_posterior_variance)
    assert vbars[1] == pytest.approx(vbars[2], abs=1e-8)
    assert vbars[0] == pytest.approx(vbars[2], abs=1e-4)


# ---------------------------------------------------------------------------
# Holevo

def test_holevo_variance_wrapped_gaussian():
    assert holevo_variance(wrapped_gaussian_prior(1.0)) == pytest.approx(math.e - 1, rel=1e-9)


def test_holevo_variance_point_mass_and_flat():
    assert holevo_variance(([0.4], [1.0])) == pytest.approx(0.0, abs=1e-12)
    assert holevo_variance(flat_prior()) == math.inf
    assert holevo_variance(lambda t: 1.0 / (2 * math.pi)) == math.inf


def test_holevo_round_improves_on_near_flat_prior():
    prior = wrapped_gaussian_prior(math.pi)
    assert holevo_bayes_round(1, prior) < holevo_variance(prior)


def test_holevo_round_monotone_in_N():
    prior = wrapped_gaussian_prior(math.pi / 8)
    values = [holevo_bayes_round(N, prior) for N in range(10, 101, 10)]
    gains = [1.0 / v for v in values]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_gauss_legendre_rule_is_shared_and_read_only():
    nodes, weights = est._gauss_legendre(64)
    assert est._gauss_legendre(64)[0] is nodes
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
    np.testing.assert_array_equal(nodes, ref_nodes)
    np.testing.assert_array_equal(weights, ref_weights)
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_holevo_outcome_distribution_shifts_with_prior_mean():
    N = 4
    base = est.holevo_outcome_probabilities(N, wrapped_gaussian_prior(0.7, 0.3))
    shifted = est.holevo_outcome_probabilities(
        N, wrapped_gaussian_prior(0.7, 0.3 + 2 * math.pi / (N + 1)))
    np.testing.assert_allclose(np.roll(base[: N + 1], -1), shifted[: N + 1], atol=1e-10)


def test_holevo_round_with_explicit_povm_matches_fft_path():
    N = 3
    prior = wrapped_gaussian_prior(0.5)
    fast = holevo_bayes_round(N, prior)
    generic = holevo_bayes_round(N, prior, povm=qft_povm(N))
    assert fast == pytest.approx(generic, rel=1e-9)


#: Widths from a rule on +-12 sigma to a nearly flat prior, and means at 0,
#: off 0, near the cut at +-pi and on it.
HOLEVO_PIN_SIGMAS = (1e-3, 0.01, math.pi / 12, math.pi / 8, 1.0, math.pi)
HOLEVO_PIN_THETA0S = (0.0, 0.2, 3.1, math.pi)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 40, 100])
def test_holevo_closed_form_matches_node_oracle(N):
    # the harmonic route against node quadrature of the outcome law; the
    # random complex probe has no mirror symmetry, and qft_povm takes the
    # explicit-POVM route of the same readout
    rng = np.random.default_rng(N)
    raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    sine, scrambled = probes.sine_coefficients(N), probes.SubspaceState(N, raw / np.linalg.norm(raw))
    readouts = [(probe, povm, reference.outcome_law(probe, povm))
                for probe, povm in ((sine, None), (sine, qft_povm(N)), (scrambled, None))]
    for sigma in HOLEVO_PIN_SIGMAS:
        for theta0 in HOLEVO_PIN_THETA0S:
            prior = wrapped_gaussian_prior(sigma, theta0)
            for probe, povm, law in readouts:
                assert holevo_bayes_round(N, prior, probe, povm) == pytest.approx(
                    reference.holevo_bayes_round_by_nodes(prior, law), rel=2e-12, abs=0), (
                        sigma, theta0, povm is None, probe is sine)
                if povm is None:
                    np.testing.assert_allclose(est.holevo_outcome_probabilities(N, prior, probe),
                                               reference.outcome_probabilities_by_nodes(prior, law),
                                               rtol=0, atol=2e-14)


@pytest.mark.parametrize("N", [1, 2, 8])
def test_bayes_round_holevo_fields_match_node_oracle(N):
    # the Holevo fields of bayes_round keep their digits at narrow priors,
    # as holevo_bayes_round does
    rng = np.random.default_rng(N)
    raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    sine, scrambled = probes.sine_coefficients(N), probes.SubspaceState(N, raw / np.linalg.norm(raw))
    povm = qft_povm(N)
    priors = [wrapped_gaussian_prior(sigma, theta0)
              for sigma in HOLEVO_PIN_SIGMAS for theta0 in HOLEVO_PIN_THETA0S] + [flat_prior()]
    for probe in (sine, scrambled):
        law = reference.outcome_law(probe, povm)
        for prior in priors:
            result = bayes_round(prior, probe, povm)
            assert result.avg_holevo_variance == pytest.approx(
                reference.holevo_bayes_round_by_nodes(prior, law), rel=2e-12, abs=0), (
                    prior, probe is sine)
            live = result.probs > est.PROB_FLOOR
            assert np.sum(result.probs[live] * result.holevo_variances[live]) == pytest.approx(
                result.avg_holevo_variance, rel=1e-14)


@pytest.mark.parametrize("N", [1, 3, 8])
def test_unwrapped_gaussian_round_is_its_wrap(N):
    # the oracle integrates the unwrapped Gaussian over the real line; the
    # closed form uses the wrap's harmonics
    law = reference.outcome_law(probes.sine_coefficients(N))
    for sigma in (0.01, 0.5, 1.0):
        for theta0 in (0.2, 3.1):
            prior = gaussian_prior(sigma, theta0)
            assert holevo_bayes_round(N, prior) == pytest.approx(
                reference.holevo_bayes_round_by_nodes(prior, law), rel=2e-12, abs=0)
            assert holevo_bayes_round(N, prior) == holevo_bayes_round(
                N, wrapped_gaussian_prior(sigma, theta0))
            np.testing.assert_allclose(est.holevo_outcome_probabilities(N, prior),
                                       reference.outcome_probabilities_by_nodes(prior, law),
                                       rtol=0, atol=2e-14)


@pytest.mark.parametrize("N", [1, 2, 8])
def test_flat_prior_round_matches_node_oracle(N):
    prior = flat_prior()
    assert holevo_bayes_round(N, prior) == pytest.approx(
        reference.holevo_bayes_round_by_nodes(prior, reference.outcome_law(probes.sine_coefficients(N))),
        rel=2e-12, abs=0)
    np.testing.assert_allclose(est.holevo_outcome_probabilities(N, prior), np.full(N + 1, 1 / (N + 1)),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("theta0, want", [
    (7.0, 7.0 - 2 * math.pi),
    (-7.0, 2 * math.pi - 7.0),
    (1e300, math.remainder(1e300, 2 * math.pi)),
    (math.pi, math.pi),
    (-math.pi, -math.pi),
])
def test_prior_centre_is_the_mean_reduced_into_pi(theta0, want):
    for prior in (gaussian_prior(0.5, theta0), wrapped_gaussian_prior(0.5, theta0)):
        assert prior.centre == want
        assert -math.pi <= prior.centre <= math.pi


def test_flat_prior_centre_is_zero_whatever_its_mean():
    assert est.Prior("flat", 1.0).centre == 0.0
    assert flat_prior().centre == 0.0


def test_wrapped_prior_mean_outside_pi_is_reduced():
    far, reduced = 100.0, math.remainder(100.0, 2 * math.pi)
    prior = wrapped_gaussian_prior(0.5, far)
    thetas = np.linspace(-math.pi, math.pi, 1001)
    np.testing.assert_array_equal(prior.pdf(thetas),
                                  wrapped_gaussian_prior(0.5, reduced).pdf(thetas))
    total = reference._quad(lambda t: float(prior.pdf(t)), -math.pi, math.pi)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert holevo_bayes_round(3, prior) == pytest.approx(
        holevo_bayes_round(3, wrapped_gaussian_prior(0.5, reduced)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda: qft_phase_variance(5, 0.5, probe=probes.sine_coefficients(3)),
    lambda: holevo_bayes_round(5, wrapped_gaussian_prior(0.5), probe=probes.sine_coefficients(3)),
    lambda: holevo_bayes_round(3, wrapped_gaussian_prior(0.5), povm=qft_povm(4)),
    lambda: frequency_round(3, 0.5, probes.sine_coefficients(3), qft_povm(4)),
    lambda: est.holevo_outcome_probabilities(5, wrapped_gaussian_prior(0.5),
                                             probes.sine_coefficients(3)),
    lambda: bayes_round(gaussian_prior(0.5), probes.sine_coefficients(3), qft_povm(4)),
], ids=["qft-probe", "holevo-probe", "holevo-povm", "frequency-povm", "outcomes-probe",
        "bayes-state-povm"])
def test_round_rejects_a_probe_or_povm_of_another_size(call):
    with pytest.raises(EstimateError):
        call()


@pytest.mark.parametrize("sigma, theta0", [
    (0.0, 0.0), (-0.5, 0.0), (math.inf, 0.0), (math.nan, 0.0), (0.5, math.nan), (0.5, -math.inf),
])
def test_qft_round_refuses_a_prior_with_the_priors_own_message(sigma, theta0):
    # Prior.__post_init__ is the one home of the Gaussian width and mean rule
    with pytest.raises(EstimateError) as from_prior:
        gaussian_prior(sigma, theta0)
    with pytest.raises(EstimateError) as from_round:
        qft_phase_variance(4, sigma, theta0)
    assert str(from_round.value) == str(from_prior.value)


@pytest.mark.parametrize("call", [
    lambda: van_trees_bound(4, math.nan),
    lambda: van_trees_bound(4, math.inf),
    lambda: mse_limit_curve([-0.5]),
    lambda: mse_limit_curve([math.nan]),
    lambda: mse_limit_curve([0.0]),
    lambda: mse_limit_curve([0.5, math.inf]),
    lambda: frequency_round(4, math.inf, probes.sine_coefficients(4), None),
    lambda: frequency_round(4, np.array([0.5, math.nan]), probes.sine_coefficients(4), None),
], ids=["bound-nan", "bound-inf", "limit-negative", "limit-nan", "limit-zero", "limit-inf",
        "tau-inf", "tau-nan"])
def test_width_entry_points_take_the_priors_rule(call):
    # 0 < width < inf, as Prior asks: an EstimateError, and no NaN, bare
    # ZeroDivisionError or RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimateError, match="must be positive and finite"):
            call()


_MOMENT_WEIGHTS = (lambda t: 1.0, lambda t: t, lambda t: t * t, lambda t: np.exp(1j * t))


def test_periodic_round_builds_its_harmonic_rows_once(monkeypatch):
    calls = []
    build = est._periodic_harmonics

    def counting(prior, N):
        calls.append(N)
        return build(prior, N)

    monkeypatch.setattr(est, "_periodic_harmonics", counting)
    bayes_round(wrapped_gaussian_prior(0.4, 0.3), probes.sine_coefficients(3), qft_povm(3))
    assert calls == [3]
    calls.clear()
    est.holevo_outcome_probabilities(3, wrapped_gaussian_prior(0.4, 0.3))
    assert calls == []


def test_subspace_operator_matches_index_matrices():
    # psi_n psi_m* h_{n-m} through an explicit (N+1)^2 index matrix, with
    # leading axes on the harmonics
    rng = np.random.default_rng(5)
    for N in (1, 4, 11):
        coeffs = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
        probe = probes.SubspaceState(N, coeffs / np.linalg.norm(coeffs))
        rows = rng.normal(size=(2, 3, 2 * N + 1)) + 1j * rng.normal(size=(2, 3, 2 * N + 1))
        n = np.arange(N + 1)
        want = np.outer(probe.coeffs, probe.coeffs.conj()) * rows[..., n[:, None] - n + N]
        np.testing.assert_array_equal(est._on_subspace(probe, rows), want)
        np.testing.assert_array_equal(est._on_subspace(probe, rows[1, ::2]), want[1, ::2])


@pytest.mark.parametrize("prior", [
    *(wrapped_gaussian_prior(sigma, theta0) for sigma in (0.1, 0.3, 1.0, math.pi)
      for theta0 in (0.0, 0.2)),
    flat_prior(),
], ids=lambda prior: f"{prior.kind}-{prior.sigma:.3g}-{prior.theta0:g}")
def test_harmonic_moments_match_adaptive_quadrature(prior):
    for N in (1, 3, 10):
        mass, first, second, centred = est._harmonic_moments(prior, N)
        moments = np.vstack([mass, first, second, np.exp(1j * prior.centre) * (mass + centred)])
        assert moments.shape == (4, 2 * N + 1)
        for row, weight in enumerate(_MOMENT_WEIGHTS):
            for col, k in enumerate(range(-N, N + 1)):
                want = reference._quad_complex(
                    lambda t: weight(t) * float(prior.pdf(t)) * np.exp(-1j * k * t),
                    -math.pi, math.pi, rtol=1e-12)
                assert abs(moments[row, col] - want) <= 1e-12, (N, row, k)


@pytest.mark.parametrize("N", [1, 8, 64, 200])
def test_flat_prior_moments_match_gauss_legendre(N):
    # the closed-form theta and theta^2 rows against the rule they replaced
    k = np.arange(-N, N + 1)
    want = est._gauss_legendre_converged(
        flat_prior().pdf,
        lambda thetas, w: np.stack([thetas * w, thetas**2 * w]) @ np.exp(-1j * np.outer(thetas, k)))
    np.testing.assert_allclose(est._harmonic_moments(flat_prior(), N)[1:3], want, rtol=0, atol=1e-12)


def test_phase_commands_leave_scipy_unloaded():
    code = ("import sys\n"
            "from clustersense import cli\n"
            "for argv in (['bayes-phase', '--sigma', '0.5', '--n-max', '8'],\n"
            "             ['holevo', '--sigma', '0.4', '--n-max', '8']):\n"
            "    assert cli.main(argv + ['--out', __import__('os').devnull]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert _run_fresh(code) == "[]"


def test_round_integrals_leave_scipy_integrate_unloaded():
    code = ("import sys\n"
            "from clustersense import estimate as est, probes\n"
            "prior = est.wrapped_gaussian_prior(0.5, 0.2)\n"
            "est.bayes_round(prior, probes.sine_coefficients(3), est.qft_povm(3))\n"
            "est.holevo_bayes_round(3, prior)\n"
            "est.holevo_variance(prior)\n"
            "prior.fisher_information()\n"
            "print('scipy.integrate' in sys.modules)")
    assert _run_fresh(code) == "False"


def test_wrapped_bayes_round_carries_holevo_fields():
    N = 3
    prior = wrapped_gaussian_prior(0.5)
    result = bayes_round(prior, probes.sine_coefficients(N), qft_povm(N))
    assert result.avg_holevo_variance is not None
    assert result.avg_holevo_variance == pytest.approx(holevo_bayes_round(N, prior), rel=1e-7)
    live = result.probs > est.PROB_FLOOR
    assert np.all(result.holevo_variances[live] >= 0)
    # gaussian rounds do not populate the circular fields
    plain = bayes_round(gaussian_prior(0.5), probes.sine_coefficients(N), qft_povm(N))
    assert plain.avg_holevo_variance is None


# ---------------------------------------------------------------------------
# classical baselines and bounds

def test_signed_expansion_matches_double_binomial_sum():
    # the Krawtchouk recurrence must reproduce the literal double sum
    # sum_{k+k'=s} C(N-m,k) C(m,k') (-1)^k'
    for N in (1, 2, 5, 9, 16):
        for m in range(N + 1):
            direct = [
                sum((-1) ** kp * math.comb(m, kp) * math.comb(N - m, s - kp)
                    for kp in range(max(0, s - (N - m)), min(m, s) + 1))
                for s in range(N + 1)
            ]
            assert reference._signed_expansion(N, m) == direct


def test_classical_parallel_single_qubit_closed_form():
    for sigma in (0.1, 0.5, 1.0):
        expected = sigma**2 * (1 - sigma**2 * math.exp(-(sigma**2)))
        assert classical_parallel_variance(1, sigma) == pytest.approx(expected, rel=1e-12)


def test_classical_parallel_matches_quadrature_oracle():
    for sigma in (0.1, 0.5, 1.0):
        for N in (2, 6, 10):
            closed = classical_parallel_variance(N, sigma)
            quad = reference.classical_parallel_variance_quadrature(N, sigma)
            assert closed == pytest.approx(quad, rel=1e-6)


def test_classical_parallel_mean_independence():
    closed = classical_parallel_variance(4, 0.35)
    for theta0 in (0.0, 0.7, 2.9):
        quad = reference.classical_parallel_variance_quadrature(4, 0.35, theta0=theta0)
        assert quad == pytest.approx(closed, abs=1e-10)


def test_classical_parallel_range_checks():
    with pytest.raises(EstimateError):
        classical_parallel_variance(0, 0.5)
    with pytest.raises(EstimateError):
        classical_parallel_variance(4, TAU_GRID[-1] * 1.01)
    with pytest.raises(EstimateError):
        classical_parallel_variance(est.CLASSICAL_PARALLEL_N_CAP + 1, 0.5)


def test_classical_curve_range_checks():
    # the widest prior optimize_tau_classical evaluates is in range
    assert len(est.classical_parallel_curve([1, 2], TAU_GRID[-1])) == 2
    for Ns, sigma in (([0], 0.5), ([4, est.CLASSICAL_PARALLEL_N_CAP + 1], 0.5), ([4.5], 0.5),
                      ([4], 0.0), ([4], TAU_GRID[-1] * 1.01), ([4], math.nan)):
        with pytest.raises(EstimateError):
            est.classical_parallel_curve(Ns, sigma)
    for N in (0, 4.5, est.CLASSICAL_PARALLEL_N_CAP + 1):
        with pytest.raises(EstimateError):
            optimize_tau_classical(N)


#: N up to the cap, and widths that span TAU_GRID, where optimize_tau_classical
#: evaluates the classical strategy: the trapezoid and the kernel are pinned here.
PIN_NS = (1, 2, 8, 40, 64, 200, est.CLASSICAL_PARALLEL_N_CAP)
PIN_SIGMAS = (1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 5.0, 20.0)
_MP_BINOMIAL = mpmath.binomial


@functools.lru_cache(maxsize=None)
def _mp_binomial_at(n: int, k: int, prec: int):
    return _MP_BINOMIAL(n, k)


@functools.lru_cache(maxsize=None)
def _mpmath_curve(sigma: float) -> tuple[float, ...]:
    """The mpmath sums over PIN_NS at one width, once per session: the
    trapezoid and the kernel are both pinned to them."""
    # the oracle's binomials depend only on (n, k) and the working precision,
    # which PIN_NS fixes for every width, so the widths share them
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpmath, "binomial", lambda n, k: _mp_binomial_at(n, k, mpmath.mp.prec))
        return tuple(reference.classical_parallel_curve(PIN_NS, sigma))


@pytest.mark.parametrize("sigma", PIN_SIGMAS)
def test_periodic_rule_matches_mpmath_sums(sigma):
    fast = est.classical_parallel_curve(PIN_NS, sigma)
    np.testing.assert_allclose(fast, _mpmath_curve(sigma), rtol=1e-10, atol=0)


# the kernel's worst cells against the trapezoid lie near sigma = 0.1-0.15 at
# N = 200 and 256
@pytest.mark.parametrize("sigma", sorted(PIN_SIGMAS + (0.13,)))
def test_classical_kernel_matches_mpmath_sums(sigma):
    fast = [float(est._gaussian_round(est._classical_kernel(N))(sigma)) for N in PIN_NS]
    np.testing.assert_allclose(fast, _mpmath_curve(sigma), rtol=1e-10, atol=0)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 40, 64, 200, est.CLASSICAL_PARALLEL_N_CAP])
def test_classical_kernel_sums_to_the_xlogy_law(N):
    # off the FFT's nodes, sum_d B_md e^{-i d theta} is the binomial law of
    # the independent route: an alias at d = +-N (too few nodes), a
    # half-angle without its pi / 4, or B_{m,d} read as B_{m,-d}, which
    # mirrors the law to P(m|-theta) and leaves every MSE unchanged, fail
    theta = np.linspace(-math.pi, math.pi, 201) + 0.1
    half = theta / 2 + math.pi / 4
    want = reference.outcome_law_by_xlogy(N, np.sin(half) ** 2, np.cos(half) ** 2)
    phases = np.exp(-1j * np.outer(theta, np.arange(-N, N + 1)))
    law = phases @ reference.full_kernel(est._classical_kernel(N)).T
    np.testing.assert_allclose(law.real, want, rtol=0, atol=1e-13)
    assert np.max(np.abs(law.imag)) <= 1e-13


def test_node_pruning_does_not_move_the_sums():
    cases = ((40, 1e-3), (40, 0.1), (est.CLASSICAL_PARALLEL_N_CAP, 0.5), (64, 20.0))
    pruned = [est._classical_round(N, sigma) for N, sigma in cases]
    every_node = [reference.classical_parallel_sums_by_all_nodes(N, sigma, node_floor=0.0)
                  for N, sigma in cases]
    np.testing.assert_allclose(pruned, every_node, rtol=1e-13, atol=0)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 40, 64, est.CLASSICAL_PARALLEL_N_CAP])
def test_node_window_keeps_the_sums_bit_for_bit(N):
    # the nodes past 14 sigma are never built; the floor would drop them all
    for sigma in TAU_GRID:
        assert est._classical_round(N, sigma) == (
            reference.classical_parallel_sums_by_all_nodes(N, sigma)), sigma


GRID_NS = (1, 2, 3, 8, 40, 64, est.CLASSICAL_PARALLEL_N_CAP)


@pytest.mark.parametrize("N", GRID_NS)
@pytest.mark.parametrize("block", [1 << 15, 1, 700])
def test_width_grid_matches_one_width_calls(N, block):
    # the kernel's MSE over the grid, in calls of at most `block` harmonic
    # cells (2N + 1 for each of a width's two rows, one width at the least):
    # 1 gives every width a call of its own, 700 calls of 50 widths at N = 3
    # down to 2 at N = 64 and 1 at N = 256, 1 << 15 the whole grid below
    # N = 256 and two calls at it; so calls meet in every layout, and no
    # width's value depends on which widths share its call
    mse = est._gaussian_round(est._classical_kernel(N))
    per_call = max(1, block // (2 * (2 * N + 1)))
    grid = np.concatenate([mse(TAU_GRID[i:i + per_call])
                           for i in range(0, len(TAU_GRID), per_call)])
    single = np.array([mse(float(sigma)) for sigma in TAU_GRID])
    assert grid.shape == TAU_GRID.shape
    np.testing.assert_allclose(grid, single, rtol=1e-13, atol=0)
    assert np.argmin(grid / TAU_GRID**2) == np.argmin(single / TAU_GRID**2)
    np.testing.assert_array_equal(mse(TAU_GRID.reshape(6, 10)), mse(TAU_GRID).reshape(6, 10))


@pytest.mark.parametrize("N", GRID_NS)
def test_classical_kernel_objective_matches_the_all_nodes_trapezoid(N):
    # the tau search's objective over the whole grid in one call, against
    # the trapezoid on every node, one width at a time
    objective = est._frequency_objective(est._classical_kernel(N))(TAU_GRID)
    trapezoid = [reference.classical_parallel_sums_by_all_nodes(N, sigma) / sigma**2
                 for sigma in TAU_GRID]
    np.testing.assert_allclose(objective, trapezoid, rtol=1e-10, atol=0)


@pytest.mark.parametrize("sigma", TAU_GRID[TAU_GRID >= math.pi])
def test_fourier_weights_match_image_sums(sigma):
    # w1 sums signed image terms, so its rounding scales with sum |x| g, not
    # with w1 itself, which falls to 1e-84 of that at sigma = 20; at the
    # classical rule's nodes and at wrapped-prior offsets theta - centre
    # across [-pi, pi], for one width and for one width per offset
    thetas = np.linspace(-math.pi, math.pi, 2001)
    offsets = [thetas - math.remainder(theta0, 2 * math.pi) for theta0 in (0.0, 1.0, -3.0, 7.0)]
    for N in (1, 40, est.CLASSICAL_PARALLEL_N_CAP):
        M, first, last = est._node_window(N, sigma)
        offsets.append((2 * math.pi / M) * np.arange(first, last + 1))
    for x in offsets:
        want0, want1, scale1 = reference.wrapped_weights_by_images(x, sigma)
        for width in (sigma, np.full(len(x), sigma)):
            w0, w1 = est._wrapped_sums(x, width)
            np.testing.assert_allclose(w0, want0, rtol=1e-14, atol=0)
            assert np.all(np.abs(w1 - want1) <= 1e-14 * scale1)
    # the wrapped prior's density is the same sum over its norm
    for theta0 in (0.0, 1.0, -3.0, 7.0):
        want = reference.wrapped_weights_by_images(thetas - math.remainder(theta0, 2 * math.pi),
                                                   sigma)[0] / (math.sqrt(2 * math.pi) * sigma)
        np.testing.assert_allclose(wrapped_gaussian_prior(sigma, theta0).pdf(thetas), want,
                                   rtol=1e-14, atol=0)


def test_wrapped_prior_fisher_information_over_the_width_grid():
    # the Fourier score of wide priors has no image terms to cancel, so every
    # width of TAU_GRID resolves: narrow ones against 1/sigma^2 (the images
    # change it by less than 1e-15 relative), wide ones against the prior's Fourier
    # series in mpmath, and from 7 on against 2 e^{-sigma^2}, which is exact
    # to e^{-sigma^2} relative
    for sigma in map(float, TAU_GRID):
        if sigma < 0.35:
            want = 1 / sigma**2
        elif sigma < 7:
            want = reference.wrapped_prior_fisher_by_series(sigma, max(10, math.ceil(12 / sigma)))
        else:
            want = 2 * math.exp(-sigma**2)
        got = wrapped_gaussian_prior(sigma, 0.4).fisher_information()
        assert got == pytest.approx(want, rel=5e-14, abs=0), sigma


def test_wrapped_fisher_information_sums_once_per_order(monkeypatch):
    sums, orders = [], []
    wrapped, rule = est._wrapped_sums, est._gauss_legendre_on

    def counting_sums(x, sigma, first_moment=True):
        sums.append(first_moment)
        return wrapped(x, sigma, first_moment)

    def counting_orders(order, intervals):
        orders.append(order)
        return rule(order, intervals)

    monkeypatch.setattr(est, "_wrapped_sums", counting_sums)
    monkeypatch.setattr(est, "_gauss_legendre_on", counting_orders)
    for sigma in (0.01, 1.0, 5.0, 20.0):
        wrapped_gaussian_prior(sigma, 0.4).fisher_information()
    assert len(orders) >= 8
    assert sums == [True] * len(orders)


def test_next_gaussian_image_underflows_to_zero(monkeypatch):
    # one more image on each side, at the classical rule's nodes and at
    # wrapped-prior offsets theta - centre across [-pi, pi], adds only exact
    # zeros: the terms are compared, as adding zeros can regroup a sum
    thetas = np.linspace(-math.pi, math.pi, 2001)
    image_count = est._image_count
    monkeypatch.setattr(est, "_image_count", lambda sigma: image_count(sigma) + 1)
    for sigma in TAU_GRID:
        offsets = [thetas - math.remainder(theta0, 2 * math.pi) for theta0 in (0.0, 1.0, -3.0, 7.0)]
        for N in (1, 40, est.CLASSICAL_PARALLEL_N_CAP):
            M, first, last = est._node_window(N, sigma)
            offsets.append((2 * math.pi / M) * np.arange(first, last + 1))
        for x in offsets:
            assert np.all(est._gaussian_images(x, sigma)[1][:, [0, -1]] == 0.0), sigma


def test_gaussian_terms_below_the_floor_are_exactly_zero():
    # exponents from 0 down past exp's subnormal results (-708.4 to -745.1)
    # and its underflow: from the floor up each term is np.exp's, below it
    # exactly 0, never a subnormal or the smallest normal
    images = np.linspace(0.0, 45.0, 100_001)
    exponent = -0.5 * images**2
    terms = est._gaussian_terms(images, 1.0)
    above = exponent >= est._EXP_FLOOR
    assert 0 < np.sum(above) < len(images)
    np.testing.assert_array_equal(terms[above], np.exp(exponent[above]))
    assert np.all(terms[above] >= np.finfo(float).tiny)
    assert np.all(terms[~above] == 0.0)


@pytest.mark.parametrize("N", [1, 40, est.CLASSICAL_PARALLEL_N_CAP])
def test_floored_image_sums_match_the_unfloored_route_on_kept_nodes(N):
    # a floored term lies below half an ulp of the weight of every node that
    # _NODE_FLOOR keeps, so there the sums are the unfloored route's bit for bit
    for sigma in TAU_GRID[TAU_GRID < math.pi]:
        M, first, last = est._node_window(N, sigma)
        theta = (2 * math.pi / M) * np.arange(first, last + 1)
        w0, w1 = est._wrapped_sums(theta, sigma)
        want0, want1, _ = reference.wrapped_weights_by_images(theta, sigma)
        kept = want0 >= est._NODE_FLOOR * want0.max()
        np.testing.assert_array_equal(w0[kept], want0[kept])
        np.testing.assert_array_equal(w1[kept], want1[kept])


@pytest.mark.parametrize("N", [1, 2, 7, 40, est.CLASSICAL_PARALLEL_N_CAP])
def test_outcome_law_equals_the_xlogy_route(N):
    # the rule's own nodes, and one node where sin^2 of the half-angle is
    # exactly 0: theta = -pi / 2 on an M = 8 rule
    M, first, last = est._node_window(N, 0.7)
    theta = np.append((2 * math.pi / M) * np.arange(first, last + 1), (2 * math.pi / 8) * -2)
    half = theta / 2 + math.pi / 4
    plus, minus = np.sin(half) ** 2, np.cos(half) ** 2
    assert plus[-1] == 0.0
    np.testing.assert_array_equal(est._outcome_law(N, plus, minus),
                                  reference.outcome_law_by_xlogy(N, plus, minus))
    # either probability exactly 0 or 1
    edge = np.array([0.0, 1.0, 0.25])
    law = est._outcome_law(N, edge, 1 - edge)
    np.testing.assert_array_equal(law, reference.outcome_law_by_xlogy(N, edge, 1 - edge))
    assert law[0, N] == 1.0 and law[1, 0] == 1.0


def _run_fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter on this source tree."""
    src = str(Path(clustersense.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return run.stdout.strip()


def test_package_import_leaves_mpmath_unloaded():
    # scipy.integrate too: only the test oracles use adaptive quadrature
    code = ("import sys, clustersense, clustersense.cli; "
            "print('mpmath' in sys.modules, 'scipy.integrate' in sys.modules)")
    assert _run_fresh(code) == "False False"


def test_classical_parallel_dominates_van_trees_bound():
    for sigma in (0.1, 0.4, 0.8, 1.2):
        for N in (1, 3, 10, 40):
            assert classical_parallel_variance(N, sigma) >= van_trees_bound(N, sigma) - 1e-14


def test_van_trees_values():
    assert van_trees_bound(100, 0.1) == pytest.approx(0.005, rel=1e-12)
    assert van_trees_bound(0, 0.3) == pytest.approx(0.09, rel=1e-12)
    assert gaussian_prior(0.2).fisher_information() == pytest.approx(25.0, rel=1e-12)


def test_mse_limit_curve():
    values = mse_limit_curve([0.2, 5 * math.pi / 4])
    assert values[0] < 1e-6
    assert values[1] > 0.9
    grid = np.linspace(math.pi / 2, 5 * math.pi / 4, 200)
    curve = mse_limit_curve(grid)
    assert np.any(curve < 0.5) and np.any(curve > 0.5)
    # the Fourier form forms no sigma^4, up to the widest width the CLI takes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mse_limit_curve([1e100, 1.3e154]).tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# noisy-local equivalence

def test_noisy_local_equivalence():
    residual = noisy_local_equivalence_check(1, 0.3, PLUS_PROBE, single_qubit_optimal_povm(0.0))
    assert residual < 1e-8
    residual = noisy_local_equivalence_check(4, 0.8, probes.sine_coefficients(4), qft_povm(4))
    assert residual < 1e-8
    assert noisy_local_equivalence_check(1, 0.0, PLUS_PROBE,
                                         single_qubit_optimal_povm(0.0)) == 0.0


def test_dephased_fisher_matches_central_differences():
    probe = probes.sine_coefficients(3)
    povm = qft_povm(3)
    sigma, theta = 0.4, 0.2

    def probs(t):
        return povm.outcome_probabilities(est.dephased_rho(probe, sigma, t))

    analytic = dephased_fisher_information(probe, povm, sigma, theta)
    numeric = reference.fisher_information_by_differences(probs, theta, step=1e-5)
    assert numeric == pytest.approx(analytic, rel=1e-5)


# ---------------------------------------------------------------------------
# frequency estimation

def test_frequency_round_equals_phase_at_matched_width():
    for N in (2, 5):
        probe = probes.sine_coefficients(N)
        povm = qft_povm(N)
        for width in (0.3, 0.8):
            freq = frequency_round(N, width, probe, povm)
            phase = bayes_round(gaussian_prior(width), probe, povm).avg_posterior_variance
            assert freq == pytest.approx(phase / width**2, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 40, 64])
def test_fourier_frequency_route_matches_qft_povm(N):
    probe = probes.sine_coefficients(N)
    povm = qft_povm(N)
    fast = [frequency_round(N, tau, probe, None) for tau in TAU_GRID]
    dense = [frequency_round(N, tau, probe, povm) for tau in TAU_GRID]
    np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=0)
    # outcome by outcome too: conjugated roots of unity only relabel k as -k,
    # which leaves every MSE unchanged
    np.testing.assert_allclose(est._fourier_matrix(est._half_kernel(probe, None)),
                               est._half_kernel(probe, povm)[:N + 1], rtol=0, atol=1e-15)


def test_frequency_round_requires_positive_tau():
    with pytest.raises(EstimateError):
        frequency_round(2, 0.0, probes.sine_coefficients(2), qft_povm(2))
    with pytest.raises(EstimateError):
        frequency_round(2, np.array([0.5, -0.1]), probes.sine_coefficients(2), None)


@pytest.mark.parametrize("N", [1, 2, 8, 40])
def test_width_grid_in_one_call_matches_single_widths(N):
    # one _gaussian_round call over TAU_GRID against one call per width, for
    # the Fourier readout and the explicit qft_povm
    probe = probes.sine_coefficients(N)
    for povm in (None, qft_povm(N)):
        mse = est._gaussian_round(est._half_kernel(probe, povm))
        batch = mse(TAU_GRID)
        assert batch.shape == TAU_GRID.shape
        single = [mse(float(sigma)) for sigma in TAU_GRID]
        assert all(np.ndim(v) == 0 for v in single)
        np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0)
    grid = TAU_GRID.reshape(6, 10)
    np.testing.assert_array_equal(frequency_round(N, grid, probe, None),
                                  frequency_round(N, TAU_GRID, probe, None).reshape(6, 10))


HALF_NS = (1, 2, 3, 8, 40, 64, 200, est.CLASSICAL_PARALLEL_N_CAP)


def _rounds(N: int) -> list[tuple[str, object, np.ndarray]]:
    """(name, prepared _gaussian_round, the kernel _contract takes) for every
    kind the tau searches run on: the Fourier readout by its matrix and by
    its FFTs at every N, a random rank-3 Povm and qft_povm (to N = 64) on
    the sine probe and on a random complex probe, whose autocorrelation has
    no mirror symmetry, and the classical kernel."""
    rng = np.random.default_rng(N)
    raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    rounds = []
    for name, probe in (("sine", probes.sine_coefficients(N)),
                        ("random", probes.SubspaceState(N, raw / np.linalg.norm(raw)))):
        a = est._half_kernel(probe, None)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(est, "_FOURIER_MATRIX_N", -1)
            rounds.append((f"{name} Fourier FFTs", est._gaussian_round(a),
                           est._readout_kernel(probe, None)))
        rounds.append((f"{name} Fourier matrix", est._gaussian_round(est._fourier_matrix(a)),
                       est._readout_kernel(probe, None)))
        for povm in [_random_povm(N, 3, rng)] + ([qft_povm(N)] if N <= 64 else []):
            rounds.append((f"{name} {povm.factors.shape}", est._gaussian_round(
                est._half_kernel(probe, povm)), est._readout_kernel(probe, povm)))
    classical = est._classical_kernel(N)
    return rounds + [("classical", est._gaussian_round(classical), reference.full_kernel(classical))]


@pytest.mark.parametrize("N", HALF_NS)
def test_half_spectrum_round_matches_the_complex_contraction(N):
    # two real products, or two FFTs, over d = 0..N against the complex
    # traces over d = -N..N, one width at a time; the MSE cancels to about
    # 3e-12 of itself, so the routes are held to 1e-13 of sigma^2: weights 1
    # in place of 2 or a dropped d fails
    for name, mse, full in _rounds(N):
        fast = mse(TAU_GRID)
        slow = reference.gaussian_round_by_full_kernel(full)
        gap = np.abs(fast - [slow(float(sigma)) for sigma in TAU_GRID])
        assert np.all(gap <= 1e-13 * TAU_GRID**2), (name, np.max(gap / TAU_GRID**2))


@pytest.mark.parametrize("N", HALF_NS)
def test_half_spectrum_round_is_batch_invariant(N):
    # each width's row is its own matrix in the stacked product, or its own
    # pair of FFTs, so its value is bit for bit that of a call of its own, in
    # any order or shape
    for name, mse, _ in _rounds(N):
        batch = mse(TAU_GRID)
        np.testing.assert_array_equal(batch, [mse(float(sigma)) for sigma in TAU_GRID], name)
        np.testing.assert_array_equal(mse(TAU_GRID[::-1]), batch[::-1], name)
        np.testing.assert_array_equal(mse(TAU_GRID.reshape(6, 10)), batch.reshape(6, 10), name)


@pytest.mark.parametrize("N", [1, 40, est._FOURIER_MATRIX_N, est._FOURIER_MATRIX_N + 1, 256])
def test_fourier_round_takes_the_matrix_up_to_its_crossover(N):
    # the Fourier readout's round is the matrix's through _FOURIER_MATRIX_N,
    # bit for bit, and the FFTs' above it, within the contraction's 1e-13
    a = est._half_kernel(probes.sine_coefficients(N), None)
    matrix = est._gaussian_round(est._fourier_matrix(a))(TAU_GRID)
    chosen = est._gaussian_round(a)(TAU_GRID)
    if N <= est._FOURIER_MATRIX_N:
        np.testing.assert_array_equal(chosen, matrix)
    else:
        assert not np.array_equal(chosen, matrix)
        assert np.all(np.abs(chosen - matrix) <= 1e-13 * TAU_GRID**2)


@pytest.mark.parametrize("N", [1, 4, 40])
def test_tau_search_matches_the_width_loop(N):
    probe = probes.sine_coefficients(N)
    for povm in (None, qft_povm(N)):
        loop = reference.optimize_by_width_loop(
            lambda tau: frequency_round(N, tau, probe, povm), TAU_GRID)
        assert optimize_tau(N, probe, povm) == loop
        # the Fourier readout of one qubit is best at the shortest time
        assert loop.boundary == (N == 1)
    loop = reference.optimize_by_width_loop(
        est._frequency_objective(est._classical_kernel(N)), TAU_GRID)
    assert optimize_tau_classical(N) == loop
    assert not loop.boundary


def _visited(monkeypatch, search) -> list[tuple[float, float]]:
    """(tau, objective value) at every time the refinement visits in search()."""
    visited = []
    brent = est._brent_minimize

    def recording(f, a, b, tol=1e-6):
        def seen(tau):
            value = f(tau)
            visited.append((tau, value))
            return value

        return brent(seen, a, b, tol)

    monkeypatch.setattr(est, "_brent_minimize", recording)
    search()
    monkeypatch.undo()
    return visited


@pytest.mark.parametrize("N", [1, 2, 3, 40, 64, est.CLASSICAL_PARALLEL_N_CAP])
def test_prepared_searches_match_one_shot_calls(N, monkeypatch):
    # a search prepares its objective once and keeps what tau does not change
    # (the probe's autocorrelation, the POVM's fold or the classical kernel):
    # at every time the refinement visits, its value is a fresh one-shot call's
    probe = probes.sine_coefficients(N)
    for povm in (None, qft_povm(N)):
        visited = _visited(monkeypatch, lambda: optimize_tau(N, probe, povm))
        assert 3 <= len(visited) <= 15 or N == 1  # one qubit's optimum ends the grid
        for tau, value in visited:
            assert value == frequency_round(N, tau, probe, povm), tau
    visited = _visited(monkeypatch, lambda: optimize_tau_classical(N))
    assert 3 <= len(visited) <= 15
    for tau, value in visited:
        assert value == est._frequency_objective(est._classical_kernel(N))(tau), tau


def test_grid_point_beats_a_refinement_that_misses_it():
    # a dip on one grid point only: the refinement never lands on it again
    def spike(tau):
        return np.where(tau == TAU_GRID[30], 0.0, 1.0)

    optimum = est._optimize_objective(spike, TAU_GRID)
    assert optimum == est.TauOptimum(float(TAU_GRID[30]), 0.0, boundary=False)
    assert optimum == reference.optimize_by_width_loop(spike, TAU_GRID)


def test_optimize_tau_quantum_beats_fixed_tau():
    N = 6
    probe = probes.sine_coefficients(N)
    povm = qft_povm(N)
    optimum = optimize_tau(N, probe, povm)
    assert not optimum.boundary
    assert optimum.vbar <= frequency_round(N, 1.0, probe, povm) + 1e-12
    assert optimum.vbar <= 1.0


def test_optimize_tau_classical_single_qubit():
    # 1 - tau^2 e^{-tau^2} over tau^2 is minimized at tau = 1
    optimum = optimize_tau_classical(1)
    assert optimum.tau == pytest.approx(1.0, abs=1e-4)
    assert 1.0 / optimum.vbar == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-6)
    assert not optimum.boundary


def test_golden_section_minimize():
    x, fx = reference.golden_section_minimize(lambda t: (t - 1.3) ** 2 + 2.0, 0.0, 4.0, tol=1e-8)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("f, x_min", [
    (lambda t: (t - 1.3) ** 2 + 2.0, 1.3),
    (lambda t: abs(t - 1.3) + 2.0, 1.3),  # no parabola fits a kink
    (lambda t: math.cosh(3.0 * (t - 0.2)) + 1.0, 0.2),
    (lambda t: 2.0 - t, 4.0),  # the least value lies at an end
])
def test_brent_minimize(f, x_min):
    x, fx = est._brent_minimize(f, 0.0, 4.0, tol=1e-8)
    assert 0.0 < x < 4.0
    # within the stopping rule's 2 (sqrt(eps) |x| + tol / 3)
    assert x == pytest.approx(x_min, abs=2 * (est._SQRT_EPS * x_min + 1e-8 / 3))
    assert fx == f(x)


@pytest.mark.parametrize("a, b, tol", [
    (0.0, 4.0, 0.0), (0.0, 4.0, -1e-6), (0.0, 4.0, math.nan), (0.0, 4.0, math.inf),
    (4.0, 0.0, 1e-6), (1.0, 1.0, 1e-6), (math.nan, 4.0, 1e-6), (0.0, math.inf, 1e-6),
    (-math.inf, 4.0, 1e-6),
])
def test_brent_minimize_refuses_a_bracket_or_tolerance_it_cannot_use(a, b, tol):
    # refused before f is called: a search that never stops fails on the
    # 1,001st call instead of hanging, and one that returns the midpoint
    # without searching fails on the missing error
    calls = []

    def f(t):
        calls.append(t)
        if len(calls) > 1000:
            raise RuntimeError("no search needs 1,000 calls")
        return (t - 1.3) ** 2

    with pytest.raises(EstimateError):
        est._brent_minimize(f, a, b, tol=tol)
    assert calls == []


_SEARCH_NS = [*range(1, 21), *range(25, 61, 5), 64, 100, 200, est.CLASSICAL_PARALLEL_N_CAP]


@pytest.mark.parametrize("N", _SEARCH_NS)
def test_brent_search_matches_golden_section(N):
    # the refinement against its slow reference, from the same grid and
    # bracket: tau within the search tolerance, vbar within 1e-10
    def golden(objective):
        return reference.optimize_by_width_loop(objective, TAU_GRID,
                                                minimize=reference.golden_section_minimize)

    probe = probes.sine_coefficients(N)
    cases = [(optimize_tau(N, probe, povm),
              golden(est._frequency_objective(est._half_kernel(probe, povm))))
             for povm in (None, qft_povm(N)) if povm is None or N <= 64]
    cases.append((optimize_tau_classical(N),
                  golden(est._frequency_objective(est._classical_kernel(N)))))
    for brent, slow in cases:
        assert brent.boundary == slow.boundary
        assert abs(brent.tau - slow.tau) <= 1e-6
        assert abs(brent.vbar - slow.vbar) <= 1e-10 * slow.vbar


def test_refinement_calls_the_objective_at_most_15_times(monkeypatch):
    # N = 64, the north star's layer rows: one grid call, then one-width
    # calls of the refinement only (golden section made 29)
    calls = []

    def counted(objective):
        def wrapped(tau):
            calls.append(np.ndim(tau))
            return objective(tau)

        return wrapped

    # every search, the classical one too, builds its objective here
    objective = est._frequency_objective
    monkeypatch.setattr(est, "_frequency_objective", lambda kernel: counted(objective(kernel)))
    probe = probes.sine_coefficients(64)
    for search in (lambda: optimize_tau(64, probe, None),
                   lambda: optimize_tau(64, probe, qft_povm(64)),
                   lambda: optimize_tau_classical(64)):
        calls.clear()
        assert not search().boundary
        assert calls[0] == 1 and calls.count(1) == 1
        assert 3 <= len(calls) - 1 <= 15, len(calls) - 1


# ---------------------------------------------------------------------------
# priors

@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3])
def test_narrow_wrapped_prior_fisher_information_is_gaussian(sigma):
    # below sigma ~ 0.5 the images add nothing, so I(p) = 1/sigma^2
    assert wrapped_gaussian_prior(sigma, 0.2).fisher_information() == pytest.approx(
        1.0 / sigma**2, rel=1e-8)


@pytest.mark.parametrize("call", [
    lambda: holevo_variance(lambda t: float(wrapped_gaussian_prior(1e-3).pdf(t))),
], ids=["holevo-variance"])
def test_prior_too_narrow_for_the_rule_raises(call):
    # a pdf callable carries no window, so the rule spans [-pi, pi]: at
    # sigma = 1e-3 the first orders' nodes miss the prior, every value is 0
    # at two orders, and that must not count as converged
    with pytest.raises(est.QuadratureError):
        call()


def _narrow_fourier_integrals_by_quad(N: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """p_m and phi_m, the integrals of P(m|theta) and e^{i theta} P(m|theta)
    against wrapped_gaussian_prior(sigma), by adaptive quadrature over
    +-12 sigma, with the Fourier readout's law
    |DFT(psi_n e^{-i n theta})|^2 / (N + 1) written out."""
    prior, probe = wrapped_gaussian_prior(sigma), probes.sine_coefficients(N)

    def law(theta):
        u = probe.coeffs * np.exp(-1j * theta * np.arange(N + 1))
        return np.abs(np.fft.fft(u)) ** 2 / (N + 1)

    p = np.array([reference._quad(lambda t: float(prior.pdf(t)) * law(t)[m],
                                  -12 * sigma, 12 * sigma, rtol=1e-14) for m in range(N + 1)])
    phasor = np.array([reference._quad_complex(
        lambda t: float(prior.pdf(t)) * law(t)[m] * np.exp(1j * t), -12 * sigma, 12 * sigma,
        rtol=1e-14) for m in range(N + 1)])
    return p, phasor


def _narrow_holevo_round_by_quad(N: int, sigma: float) -> float:
    """holevo_bayes_round(N, wrapped_gaussian_prior(sigma)) from
    _narrow_fourier_integrals_by_quad."""
    p, phasor = _narrow_fourier_integrals_by_quad(N, sigma)
    return float(np.sum(p * (np.abs(p / phasor) ** 2 - 1)))


@pytest.mark.parametrize("call, expected, rel", [
    (lambda: gamma_eta(wrapped_gaussian_prior(0.01), probes.sine_coefficients(3)),
     lambda: gamma_eta(gaussian_prior(0.01), probes.sine_coefficients(3)), None),
    (lambda: holevo_variance(wrapped_gaussian_prior(1e-3)), lambda: math.expm1(1e-6), 1e-8),
    (lambda: holevo_bayes_round(2, wrapped_gaussian_prior(1e-3)),
     lambda: _narrow_holevo_round_by_quad(2, 1e-3), 1e-8),
    (lambda: wrapped_gaussian_prior(1e-3).fisher_information(), lambda: 1e6, 1e-10),
    (lambda: holevo_bayes_round(2, gaussian_prior(1e-3)),
     lambda: _narrow_holevo_round_by_quad(2, 1e-3), 1e-8),
    (lambda: est.holevo_outcome_probabilities(2, gaussian_prior(1e-3)),
     lambda: _narrow_fourier_integrals_by_quad(2, 1e-3)[0], None),
], ids=["harmonics", "holevo-variance", "holevo-round", "prior-fisher", "gaussian-holevo-round",
        "outcome-probabilities"])
def test_narrow_wrapped_prior_integrates(call, expected, rel):
    # the cases of test_prior_too_narrow_for_the_rule_raises that now
    # resolve, each against its closed form or oracle: a rule on theta0 +-
    # 12 sigma integrates the wrapped prior, and the Holevo rounds of an
    # unwrapped Gaussian take its wrap's closed-form harmonics
    if rel is None:
        for value, want in zip(call(), expected()):
            np.testing.assert_allclose(value, want, rtol=0, atol=1e-12)
    else:
        assert call() == pytest.approx(expected(), rel=rel, abs=0)


@pytest.mark.parametrize("theta0", [0.2, 3.1, math.pi, -3.14159])
@pytest.mark.parametrize("sigma", [1e-3, 5e-3, 0.01])
def test_narrow_wrapped_prior_closed_forms(sigma, theta0):
    prior = wrapped_gaussian_prior(sigma, theta0)
    assert holevo_variance(prior) == pytest.approx(math.expm1(sigma**2), rel=1e-8, abs=0)
    assert prior.fisher_information() == pytest.approx(1.0 / sigma**2, rel=1e-10)


@pytest.mark.parametrize("theta0", [0.0, 0.2])
def test_narrow_prior_second_moment_is_relative(theta0):
    # convergence is judged against the result's own scale, not against 1:
    # the theta^2 harmonic of a width-1e-3 prior is sigma^2 + theta0^2
    sigma = 1e-3
    second = est._harmonic_moments(wrapped_gaussian_prior(sigma, theta0), 0)[2, 0]
    assert second.real == pytest.approx(sigma**2 + theta0**2, rel=1e-10, abs=0)
    assert abs(second.imag) <= 1e-10 * (sigma**2 + theta0**2)


def test_convergence_is_relative_to_the_value():
    flat = flat_prior().pdf
    # a value of 1e-6 whose orders differ by 5e-15, 5e-9 of itself: converged
    # in absolute terms, but not to 1e-12 of its own size
    with pytest.raises(est.QuadratureError):
        est._gauss_legendre_converged(flat, lambda thetas, w: 1e-6 * (1 + 0.64e-6 / len(thetas)))
    # the mean of a flat prior is 0 up to rounding; it is judged against
    # the largest entry of the result, not against itself
    mean, second = est._gauss_legendre_converged(
        flat, lambda thetas, w: np.array([w @ thetas, w @ thetas**2]))
    assert abs(mean) <= 1e-14
    assert second == pytest.approx(math.pi**2 / 3, rel=1e-13)


def test_narrow_rule_wraps_past_pi():
    sigma = 1e-3
    mass, mean, second = est._harmonic_moments(wrapped_gaussian_prior(sigma, 3.1), 0)[:3, 0]
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert mean == pytest.approx(3.1, abs=1e-12)
    assert second == pytest.approx(3.1**2 + sigma**2, abs=1e-12)
    # centred on pi, half the mass sits at each end of [-pi, pi]:
    # E theta = 0 and E theta^2 = E (pi - |x|)^2 = pi^2 - 2 sigma sqrt(2 pi) + sigma^2.
    # Offsets near +-pi carry ulp(2 pi) ~ 9e-16 of rounding, which moves the
    # density by up to 1e-14 / sigma relative in the tails
    mass, mean, second = est._harmonic_moments(wrapped_gaussian_prior(sigma, math.pi), 0)[:3, 0]
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert second == pytest.approx(math.pi**2 - 2 * sigma * math.sqrt(2 * math.pi) + sigma**2,
                                   abs=1e-11)


def test_rule_spans_the_circle_from_pi_over_12():
    # the holevo and phase-figure widths keep the nodes they always had
    for sigma in (math.pi / 12, math.pi / 8, 1.0, 5.0):
        assert wrapped_gaussian_prior(sigma, 0.4).rule_intervals() == ((-math.pi, math.pi),)
    (a, b), (c, d) = wrapped_gaussian_prior(0.2, 3.0).rule_intervals()
    assert (a, b, c) == (pytest.approx(0.6), math.pi, -math.pi)
    assert d == pytest.approx(5.4 - 2 * math.pi)
    assert gaussian_prior(1e-3).rule_intervals() == ((-math.pi, math.pi),)
    # on the whole circle the mapped rule is bit for bit the one before
    # intervals existed: the nodes and weights on [-1, 1] times pi
    nodes, weights = est._gauss_legendre(64)
    thetas, scaled = est._gauss_legendre_on(64, ((-math.pi, math.pi),))
    np.testing.assert_array_equal(thetas, nodes * math.pi)
    np.testing.assert_array_equal(scaled, weights * math.pi)
    assert est._gauss_legendre_on(64, ((-math.pi, math.pi),))[0] is thetas
    with pytest.raises(ValueError):
        scaled[0] = 0.0


def test_wrapped_prior_normalization():
    prior = wrapped_gaussian_prior(1.3, theta0=0.4)
    total = reference._quad(lambda t: float(prior.pdf(t)), -math.pi, math.pi)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_prior_validation():
    with pytest.raises(EstimateError):
        est.Prior("gaussian", 0.0, 0.0)
    with pytest.raises(EstimateError):
        est.Prior("triangle", 0.0, 1.0)
    with pytest.raises(EstimateError):
        est.Prior("wrapped_gaussian", math.inf, 0.5)
    with pytest.raises(EstimateError):
        est.Prior("gaussian", 0.0, math.inf)


def test_flat_prior_gamma_is_diagonal():
    probe = probes.sine_coefficients(2)
    gamma, _ = gamma_eta(flat_prior(), probe)
    np.testing.assert_allclose(gamma, np.diag(probe.probabilities()), atol=1e-10)
