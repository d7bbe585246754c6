import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import reference
from reference import holevo_variance

import clustersense
from clustersense import estimate as est
from clustersense import cli, probes, simcore
from clustersense.estimate import (
    EstimateError,
    MSEValidityWarning,
    Povm,
    TAU_GRID,
    bayes_round,
    classical_parallel_variance,
    dephased_fisher_information,
    gamma_eta,
    gaussian_prior,
    holevo_bayes_round,
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


def _dephased_row(N: int, sigma: float, theta: float) -> np.ndarray:
    """h_d = e^{-i d theta - d^2 sigma^2 / 2}, d = -N..N: the probe after
    Gaussian dephasing of width sigma, then encoding at theta, is psi psi^+ o h."""
    return est._gaussian_row(sigma, est._index_rows(theta, N))


def _mass_outcomes(N: int, prior, probe=None) -> np.ndarray:
    """The Fourier readout's unconditional law p(k) under a periodic prior:
    the traces of its mass row, the Gaussian row about the prior's centre."""
    probe = probe if probe is not None else probes.sine_coefficients(N)
    return est._traces(probe, _dephased_row(N, prior.sigma, prior.centre), None).real


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


@pytest.mark.parametrize("call", [
    lambda: parity_strategy(4, math.inf),
    lambda: parity_strategy(4, math.nan),
    lambda: dephased_fisher_information(probes.sine_coefficients(3), qft_povm(3), 0.1, math.nan),
    lambda: dephased_fisher_information(probes.sine_coefficients(3), qft_povm(3), 0.1, -math.inf),
], ids=["parity-inf", "parity-nan", "dephased-nan", "dephased-inf"])
def test_non_finite_phase_is_refused(call):
    # no outcome law is defined there: an EstimateError, not a bare
    # ValueError, a nan law or a Fisher information of 0
    with pytest.raises(EstimateError, match="theta must be finite"):
        call()


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
    return Povm(np.stack([np.eye(N + 1) + J, np.eye(N + 1) - J]) / 2)


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
        assert len(effects) == N + 2
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
    probs = reference.traces_dense(probes.sine_coefficients(N), _dephased_row(N, 0.0, 0.83), povm).real
    assert probs[-1] < 1e-12
    assert np.sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_povm_validation():
    # incomplete, not a number, empty, without effects, two axes, ragged
    for factors in [np.sqrt(0.5) * np.eye(2)[None], np.full((1, 2, 2), np.nan), (),
                    np.zeros((0, 1, 2)), np.eye(2), [[[1, 0]], [[0, 1, 0]]]]:
        with pytest.raises(EstimateError):
            Povm(factors)


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


@pytest.mark.parametrize("call", [
    lambda prior: bayes_round(prior, probes.sine_coefficients(3), qft_povm(3)),
    lambda prior: gamma_eta(prior, probes.sine_coefficients(3)),
], ids=["bayes-round", "gamma-eta"])
def test_mse_rounds_refuse_a_wrapped_prior(call):
    # the MSE rounds take Gaussian priors only and name the Holevo round,
    # which still takes both kinds
    for sigma in (0.6, 1.5):  # a width past 1 is refused before it warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimateError, match="holevo_bayes_round"):
                call(wrapped_gaussian_prior(sigma, 0.2))
    for prior in (wrapped_gaussian_prior(0.6, 0.2), gaussian_prior(0.6, 0.2)):
        assert 0 < holevo_bayes_round(3, prior, povm=qft_povm(3)) < math.inf


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
def test_single_qubit_closed_forms(sigma):
    result = bayes_round(gaussian_prior(sigma), PLUS_PROBE, single_qubit_optimal_povm(0.0))
    expected_estimate = sigma**2 * math.exp(-(sigma**2) / 2)
    expected_vbar = sigma**2 * (1 - sigma**2 * math.exp(-(sigma**2)))
    np.testing.assert_allclose(np.sort(result.estimates),
                               [-expected_estimate, expected_estimate], atol=1e-8)
    assert result.avg_posterior_variance == pytest.approx(expected_vbar, abs=1e-8)


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
    return Povm(bras.reshape(-1, rank, N + 1))


@pytest.mark.parametrize("N", [1, 3, 8, 40])
def test_folded_effects_match_dense_traces(N):
    # the factored traces of an explicit POVM against one dense operator per
    # harmonic row, on a stack of complex rows of unit scale; qft_povm's
    # outcomes in the order of the Fourier readout's
    rng = np.random.default_rng(N)
    raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    probe = probes.SubspaceState(N, raw / np.linalg.norm(raw))
    rows = np.exp(1j * rng.uniform(-math.pi, math.pi, size=(2, 3, 2 * N + 1)))
    qft = qft_povm(N)
    padded = Povm(np.concatenate([qft.factors, np.zeros((N + 2, 2, N + 1))], axis=1))
    povms = [qft, _random_povm(N, 2, rng), _random_povm(N, 3, rng), padded]
    if N == 1:
        povms.append(single_qubit_optimal_povm(0.4))
    for povm in povms:
        np.testing.assert_allclose(est._traces(probe, rows, povm),
                                   reference.traces_dense(probe, rows, povm), rtol=0, atol=1e-13)
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


#: How many sigma^2 eps the Fourier readout's MSE may stray from its 40-digit
#: value.  V = sigma^2 - sum_k g_k^2 / p_k loses the digits of the factor
#: sigma^2 / V in the subtraction, so a float64 route is good to about
#: (sigma^2 / V) eps relative, that is to a multiple of sigma^2 eps.  The
#: cells below measured at most 6.2 sigma^2 eps (N = 200, sigma = 0.5, where
#: sigma^2 / V is about 1,000 and the error 1.4e-12 relative), and 3.9 at
#: N = 200, sigma = 0.1; 16 leaves room for another FFT's rounding.
QFT_MPMATH_K = 16


@pytest.mark.parametrize("N", [8, 64, 200])
def test_qft_phase_variance_matches_mpmath(N):
    sigmas = (0.1, 0.5, 1.0)
    exact = reference.qft_phase_variance_mpmath(probes.sine_coefficients(N), sigmas)
    for sigma, want in zip(sigmas, exact):
        got = qft_phase_variance(N, sigma)
        # k (sigma^2 / V) eps relative to V
        bound = QFT_MPMATH_K * (sigma**2 / want) * np.finfo(float).eps * want
        assert abs(got - want) <= bound, (sigma, abs(got - want) / (sigma**2 * np.finfo(float).eps))


#: Widths and means at which each curve is pinned to its per-N round.
CURVE_PIN_SIGMAS = (1e-3, 0.1, math.pi / 8, 0.5, 3 * math.pi / 8, math.pi, 5.0, 20.0)
CURVE_PIN_THETA0S = (0.0, 0.3, -0.45, 3.0, 1e300)


def test_qft_phase_curve_is_the_per_n_round_bit_for_bit():
    # bayes-phase's default grid and its --n-max 256 grid, plus an unsorted
    # one: each N reads its centred slice of the rows built at the largest N
    grids = (cli._n_grid(1, 200, 0), cli._n_grid(1, 256, 0), [7, 1, 40, 3])
    for theta0 in CURVE_PIN_THETA0S:
        for sigma in CURVE_PIN_SIGMAS + tuple(k / 10 for k in range(1, 11)):
            for Ns in grids[:1] if sigma not in (0.5, 5.0) else grids:
                want = [qft_phase_variance(N, sigma, theta0) for N in Ns]
                assert est.qft_phase_curve(Ns, sigma, theta0) == want, (sigma, theta0, Ns[-1])


def test_flat_prior_holevo_curve_is_the_canonical_limit():
    # at a flat prior the sine probe with the Fourier readout has Holevo
    # variance 1 / a_1^2 - 1 = tan^2(pi / (N + 2)) (Berry & Wiseman, PRL 85,
    # 5098, 2000); a wrapped prior of width 20 is flat in float64.  Each
    # outcome's 1 - a_1^2 is a difference of order-one terms, so the bound
    # grows with (N + 2)^2
    Ns = list(range(1, 65)) + [int(N) for N in np.unique(np.geomspace(65, 4096, 40).astype(int))]
    values = np.array(est.holevo_curve(Ns, [wrapped_gaussian_prior(20.0)])[0])
    Ns = np.array(Ns)
    exact = np.tan(np.pi / (Ns + 2)) ** 2
    gap = np.abs(values - exact) / exact
    assert np.all(gap <= (Ns + 2) ** 2 * np.finfo(float).eps), Ns[np.argmax(gap / (Ns + 2) ** 2)]


def test_holevo_curve_is_the_per_n_round_bit_for_bit():
    # holevo's default grid, every width and mean in one stacked call, with
    # wrapped and Gaussian priors side by side; and one prior alone on an
    # unsorted grid
    Ns = cli._n_grid(1, 100, 0)
    priors = [make(sigma, theta0) for make in (wrapped_gaussian_prior, gaussian_prior)
              for sigma in CURVE_PIN_SIGMAS for theta0 in CURVE_PIN_THETA0S]
    table = est.holevo_curve(Ns, priors)
    assert len(table) == len(priors)
    for prior, column in zip(priors, table):
        assert column == [holevo_bayes_round(N, prior) for N in Ns], prior
    prior = wrapped_gaussian_prior(0.3, -0.45)
    assert est.holevo_curve([9, 2, 30], [prior]) == [
        [holevo_bayes_round(N, prior) for N in (9, 2, 30)]]


def test_curves_check_their_inputs_and_take_an_empty_grid():
    assert est.qft_phase_curve([], 0.5, 0.3) == []
    for sigma, theta0 in ((0.0, 0.0), (math.inf, 0.0), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(EstimateError):
            est.qft_phase_curve([], sigma, theta0)
    priors = [wrapped_gaussian_prior(0.5), gaussian_prior(1.0, 0.3)]
    assert est.holevo_curve([], priors) == [[], []]
    assert est.holevo_curve([1, 2], []) == []
    # an N the round refuses is refused by the curve, with the same error
    for N in (0, -3):
        with pytest.raises(probes.ProbeError):
            qft_phase_variance(N, 0.5)
        with pytest.raises(probes.ProbeError):
            est.qft_phase_curve([2, N], 0.5)
        with pytest.raises(probes.ProbeError):
            est.holevo_curve([2, N], priors)


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
    live = ~np.isnan(near.estimates)
    np.testing.assert_allclose(far.estimates[live], near.estimates[live] + (theta0 - reduced),
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
    povm = Povm(np.eye(2)[:, None, :])
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
    # the limits of a prior's width: 0 for a point mass, and math.inf where
    # the mean phasor e^{-sigma^2 / 2} vanishes, from where e^{sigma^2}
    # overflows (sigma^2 above 709.78) up to the largest finite width
    for make in (gaussian_prior, wrapped_gaussian_prior):
        assert holevo_variance(make(1e-300, 0.4)) == 0.0
        assert holevo_variance(make(26.6)) == pytest.approx(math.expm1(26.6**2), rel=1e-15)
        for sigma in (26.7, 30.0, 1e100, 1e200, 1.7e308):
            assert holevo_variance(make(sigma)) == math.inf


def test_holevo_round_improves_on_near_flat_prior():
    prior = wrapped_gaussian_prior(math.pi)
    assert holevo_bayes_round(1, prior) < holevo_variance(prior)


def test_holevo_round_monotone_in_N():
    prior = wrapped_gaussian_prior(math.pi / 8)
    values = [holevo_bayes_round(N, prior) for N in range(10, 101, 10)]
    gains = [1.0 / v for v in values]
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_gauss_legendre_rule_is_shared_and_read_only():
    # the node rule of the Holevo oracles
    nodes, weights = reference._gauss_legendre(64)
    assert reference._gauss_legendre(64)[0] is nodes
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
    np.testing.assert_array_equal(nodes, ref_nodes)
    np.testing.assert_array_equal(weights, ref_weights)
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_holevo_outcome_distribution_shifts_with_prior_mean():
    N = 4
    base = _mass_outcomes(N, wrapped_gaussian_prior(0.7, 0.3))
    shifted = _mass_outcomes(N, wrapped_gaussian_prior(0.7, 0.3 + 2 * math.pi / (N + 1)))
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
                    np.testing.assert_allclose(_mass_outcomes(N, prior, probe),
                                               reference.outcome_probabilities_by_nodes(prior, law),
                                               rtol=0, atol=2e-14)


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
            np.testing.assert_allclose(_mass_outcomes(N, prior),
                                       reference.outcome_probabilities_by_nodes(prior, law),
                                       rtol=0, atol=2e-14)


@pytest.mark.parametrize("N", [1, 2, 8])
def test_flat_prior_round_matches_node_oracle(N):
    # the flat limit: at width 20 the wrapped prior's density is 1/(2 pi) to
    # 1e-15 and its harmonics past d = 0 are below e^-200
    prior = wrapped_gaussian_prior(20.0)
    assert holevo_bayes_round(N, prior) == pytest.approx(
        reference.holevo_bayes_round_by_nodes(prior, reference.outcome_law(probes.sine_coefficients(N))),
        rel=2e-12, abs=0)
    np.testing.assert_allclose(_mass_outcomes(N, prior), np.full(N + 1, 1 / (N + 1)),
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
    lambda: optimize_tau(3, probes.sine_coefficients(3), qft_povm(4)),
    lambda: bayes_round(gaussian_prior(0.5), probes.sine_coefficients(3), qft_povm(4)),
], ids=["qft-probe", "holevo-probe", "holevo-povm", "frequency-povm", "bayes-state-povm"])
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
], ids=["bound-nan", "bound-inf", "limit-negative", "limit-nan", "limit-zero", "limit-inf"])
def test_width_entry_points_take_the_priors_rule(call):
    # 0 < width < inf, as Prior asks: an EstimateError, and no NaN, bare
    # ZeroDivisionError or RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimateError, match="must be positive and finite"):
            call()


_MOMENT_WEIGHTS = (lambda t: 1.0, lambda t: np.exp(1j * t))


def test_periodic_round_builds_its_harmonic_rows_once(monkeypatch):
    calls = []
    build = est._periodic_harmonics

    def counting(prior, N):
        calls.append(N)
        return build(prior, N)

    monkeypatch.setattr(est, "_periodic_harmonics", counting)
    holevo_bayes_round(3, wrapped_gaussian_prior(0.4, 0.3), povm=qft_povm(3))
    assert calls == [3]


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
    wrapped_gaussian_prior(sigma, theta0) for sigma in (0.1, 0.3, 1.0, math.pi)
    for theta0 in (0.0, 0.2)
], ids=lambda prior: f"{prior.kind}-{prior.sigma:.3g}-{prior.theta0:g}")
def test_harmonic_moments_match_adaptive_quadrature(prior):
    # the closed-form 1 and e^{i theta} harmonics of the Holevo rounds
    for N in (1, 3, 10):
        mass, centred = est._periodic_harmonics(prior, N)
        moments = np.vstack([mass, np.exp(1j * prior.centre) * (mass + centred)])
        assert moments.shape == (2, 2 * N + 1)
        for row, weight in enumerate(_MOMENT_WEIGHTS):
            for col, k in enumerate(range(-N, N + 1)):
                want = reference._quad_complex(
                    lambda t: weight(t) * float(prior.pdf(t)) * np.exp(-1j * k * t),
                    -math.pi, math.pi, rtol=1e-12)
                assert abs(moments[row, col] - want) <= 1e-12, (N, row, k)


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
            "est.bayes_round(est.gaussian_prior(0.5, 0.2), probes.sine_coefficients(3),\n"
            "                est.qft_povm(3))\n"
            "est.holevo_bayes_round(3, prior)\n"
            "print('scipy.integrate' in sys.modules)")
    assert _run_fresh(code) == "False"


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


def test_outcome_law_holds_one_array_of_its_size():
    # the m log minus term goes through a small scratch block, not a second
    # law-sized temporary; with two, the freed heap passed glibc's trim
    # threshold at N = 200, and every call of the rule faulted in fresh pages
    N, sigma = 200, 0.5
    M, first, last = est._node_window(N, sigma)
    half = (math.pi / M) * np.arange(first, last + 1) + math.pi / 4
    plus, minus = np.sin(half) ** 2, np.cos(half) ** 2
    assert len(plus) == 226  # the rule's every node at this width
    est._outcome_law(N, plus, minus)  # caches the log-binomial row
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        law = est._outcome_law(N, plus, minus)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * law.nbytes, peak / law.nbytes


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
    assert van_trees_bound(1, 0.3) == pytest.approx(0.09 / 1.09, rel=1e-12)


@pytest.mark.parametrize("N", [0, -1, -4])
def test_van_trees_bound_refuses_fewer_than_one_qubit(N):
    # at N = -1 the formula gave 1/3, above the prior's own 0.25, and at
    # N = -4 it divided by zero
    with pytest.raises(EstimateError, match="N must be >= 1"):
        van_trees_bound(N, 0.5)


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
        return reference.traces_dense(probe, _dephased_row(3, sigma, t), povm).real

    analytic = dephased_fisher_information(probe, povm, sigma, theta)
    numeric = reference.fisher_information_by_differences(probs, theta, step=1e-5)
    assert numeric == pytest.approx(analytic, rel=1e-5)


# ---------------------------------------------------------------------------
# frequency estimation

def _frequency_round(N: int, tau, probe, povm):
    """optimize_tau's objective, prepared afresh for one call, at one
    interrogation time or an array of them."""
    half = est._half_kernel(est._checked_probe(N, probe, povm), povm)
    return est._frequency_objective(half)(tau)


def test_frequency_round_equals_phase_at_matched_width():
    for N in (2, 5):
        probe = probes.sine_coefficients(N)
        povm = qft_povm(N)
        for width in (0.3, 0.8):
            freq = _frequency_round(N, width, probe, povm)
            phase = bayes_round(gaussian_prior(width), probe, povm).avg_posterior_variance
            assert freq == pytest.approx(phase / width**2, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 40, 64])
def test_fourier_frequency_route_matches_qft_povm(N):
    probe = probes.sine_coefficients(N)
    povm = qft_povm(N)
    fast = [_frequency_round(N, tau, probe, None) for tau in TAU_GRID]
    dense = [_frequency_round(N, tau, probe, povm) for tau in TAU_GRID]
    np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=0)
    # outcome by outcome too: conjugated roots of unity only relabel k as -k,
    # which leaves every MSE unchanged
    np.testing.assert_allclose(est._fourier_matrix(est._half_kernel(probe, None)),
                               est._half_kernel(probe, povm)[:N + 1], rtol=0, atol=1e-15)


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
    np.testing.assert_array_equal(_frequency_round(N, grid, probe, None),
                                  _frequency_round(N, TAU_GRID, probe, None).reshape(6, 10))


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
            lambda tau: _frequency_round(N, tau, probe, povm), TAU_GRID)
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
            assert value == _frequency_round(N, tau, probe, povm), tau
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
    assert optimum.vbar <= _frequency_round(N, 1.0, probe, povm) + 1e-12
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

@pytest.mark.parametrize("call", [
    lambda: reference._gauss_legendre_converged(wrapped_gaussian_prior(1e-3).pdf,
                                                lambda thetas, w: w @ np.exp(1j * thetas)),
], ids=["holevo-variance"])
def test_prior_too_narrow_for_the_rule_raises(call):
    # the node oracles' rule on all of [-pi, pi], taking the mean phasor of
    # the Holevo variance: at sigma = 1e-3 the first orders' nodes miss the
    # prior, every value is 0 at two orders, and that must not count as
    # converged
    with pytest.raises(reference.QuadratureError):
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
    (lambda: holevo_variance(wrapped_gaussian_prior(1e-3)), lambda: math.expm1(1e-6), 1e-8),
    (lambda: holevo_bayes_round(2, wrapped_gaussian_prior(1e-3)),
     lambda: _narrow_holevo_round_by_quad(2, 1e-3), 1e-8),
    (lambda: holevo_bayes_round(2, gaussian_prior(1e-3)),
     lambda: _narrow_holevo_round_by_quad(2, 1e-3), 1e-8),
    (lambda: _mass_outcomes(2, gaussian_prior(1e-3)),
     lambda: _narrow_fourier_integrals_by_quad(2, 1e-3)[0], None),
], ids=["holevo-variance", "holevo-round", "gaussian-holevo-round", "outcome-probabilities"])
def test_narrow_wrapped_prior_integrates(call, expected, rel):
    # a width-1e-3 prior, each value against its closed form or an adaptive
    # quadrature over +-12 sigma: the Holevo rounds of a wrapped prior and of
    # an unwrapped Gaussian take the same closed-form harmonics
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


def test_convergence_is_relative_to_the_value():
    # the node oracles' rule, on a flat density
    def flat(thetas):
        return np.full_like(thetas, 1 / (2 * math.pi))

    # a value of 1e-6 whose orders differ by 5e-15, 5e-9 of itself: converged
    # in absolute terms, but not to 1e-12 of its own size
    with pytest.raises(reference.QuadratureError):
        reference._gauss_legendre_converged(
            flat, lambda thetas, w: 1e-6 * (1 + 0.64e-6 / len(thetas)))
    # the mean of a flat prior is 0 up to rounding; it is judged against
    # the largest entry of the result, not against itself
    mean, second = reference._gauss_legendre_converged(
        flat, lambda thetas, w: np.array([w @ thetas, w @ thetas**2]))
    assert abs(mean) <= 1e-14
    assert second == pytest.approx(math.pi**2 / 3, rel=1e-13)


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
    with pytest.raises(EstimateError):
        est.Prior("flat", 0.0, 1.0)
