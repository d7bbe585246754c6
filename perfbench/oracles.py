"""Independent oracles for the benchmark's correctness checks.

Nothing here imports clustersense: every value is rebuilt from the physics
with numpy and scipy only, by a different route than the program takes.

* Gaussian-prior phase variances (classical parallel strategy and the sine
  probe with a Fourier-basis readout) are float64 composite Gauss-Legendre
  integrals of the outcome law against the prior on theta0 +- 10 sigma,
  refined by doubling the panel count until two refinements agree.  The
  program instead uses exact combinatorial sums in extended precision and
  closed-form characteristic functions.
* Wrapped-prior Holevo variances use the periodic trapezoid rule with the
  wrapped normal written as its Fourier series.  The program sums images and
  uses Gauss-Legendre rules.
* Target states and unitaries for the compressor and the measurement
  patterns come from their closed-form definitions.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

#: Outcomes with a smaller total probability carry no weight in the averages.
PROB_FLOOR = 1e-14
#: Points per Gauss-Legendre panel; panels double until convergence.
PANEL_ORDER = 24
MAX_PANELS = 4096


class OracleError(Exception):
    """An oracle integral did not converge."""


# ---------------------------------------------------------------------------
# Closed forms

def sine_probe(N: int) -> np.ndarray:
    """Sine-profile coefficients sqrt(2/(N+2)) sin((n+1) pi / (N+2)), n = 0..N."""
    n = np.arange(N + 1)
    return np.sqrt(2.0 / (N + 2)) * np.sin((n + 1) * math.pi / (N + 2))


def van_trees_bound(N: int, sigma: float) -> float:
    """sigma^2 / (1 + N sigma^2): no classical strategy does better."""
    return sigma**2 / (1.0 + N * sigma**2)


def classical_n1(sigma: float) -> float:
    """One qubit, rotated-X readout: V = sigma^2 (1 - sigma^2 e^{-sigma^2})."""
    return sigma**2 * (1.0 - sigma**2 * math.exp(-(sigma**2)))


def qft_n1(sigma: float, theta0: float) -> float:
    """One qubit, sine probe (|0> + |1>)/sqrt(2), Fourier readout.

    p(0|theta) = cos^2(theta/2) and p(1|theta) = sin^2(theta/2), so
    V = sigma^2 - sigma^4 sin^2(theta0) e^{-sigma^2} / (1 - cos^2(theta0) e^{-sigma^2}),
    which is sigma^2 at theta0 = 0.
    """
    damp = math.exp(-(sigma**2))
    denom = 1.0 - math.cos(theta0) ** 2 * damp
    return sigma**2 - sigma**4 * math.sin(theta0) ** 2 * damp / denom


# ---------------------------------------------------------------------------
# Outcome laws

def binomial_law(N: int, phi: np.ndarray) -> np.ndarray:
    """P(m | phi) for N |+> qubits read out in the rotated-X basis, where
    m counts '-' results and each qubit gives '+' with (1 + sin phi)/2."""
    s = np.sin(phi)
    m = np.arange(N + 1)
    with np.errstate(divide="ignore"):
        log_plus = np.log((1.0 + s) / 2.0)
        log_minus = np.log((1.0 - s) / 2.0)
    log_binom = gammaln(N + 1) - gammaln(m + 1) - gammaln(N - m + 1)
    plus = np.where((N - m)[None, :] == 0, 0.0, (N - m)[None, :] * log_plus[:, None])
    minus = np.where(m[None, :] == 0, 0.0, m[None, :] * log_minus[:, None])
    return np.exp(log_binom[None, :] + plus + minus)


def fourier_law(psi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """P(k | theta) = |sum_n psi_n e^{-i n theta} e^{-2 pi i n k / (N+1)}|^2 / (N+1)."""
    n = np.arange(len(psi))
    encoded = psi[None, :] * np.exp(-1j * np.outer(theta, n))
    return np.abs(np.fft.fft(encoded, axis=1)) ** 2 / len(psi)


# ---------------------------------------------------------------------------
# Quadrature

_PANEL_NODES, _PANEL_WEIGHTS = leggauss(PANEL_ORDER)


def _composite_rule(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, panels + 1)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * _PANEL_NODES[None, :]).ravel()
    weights = (half[:, None] * _PANEL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _gaussian_variance(law, sigma: float, rtol: float) -> float:
    """sigma^2 - sum_m g_m^2 / p_m with p_m = E[P(m|phi)], g_m = E[phi P(m|phi)],
    phi ~ N(0, sigma^2), integrated on +-10 sigma.

    Convergence is judged against sigma^2, the scale of the two terms whose
    difference is the result: the difference itself can be hundreds of
    times smaller and carries their rounding."""
    previous = None
    panels = 4
    while panels <= MAX_PANELS:
        phi, w = _composite_rule(-10.0 * sigma, 10.0 * sigma, panels)
        w = w * np.exp(-(phi**2) / (2.0 * sigma**2)) / (math.sqrt(2.0 * math.pi) * sigma)
        law_values = law(phi)
        p = w @ law_values
        g = (w * phi) @ law_values
        live = p > PROB_FLOOR
        value = sigma**2 - float(np.sum(g[live] ** 2 / p[live]))
        if previous is not None and abs(value - previous) <= rtol * sigma**2:
            return value
        previous = value
        panels *= 2
    raise OracleError(f"Gauss-Legendre variance did not converge (last {previous!r})")


def classical_parallel_variance(N: int, sigma: float, rtol: float = 1e-13) -> float:
    """Average posterior MSE of N |+> qubits with per-qubit rotated-X readout
    aligned to the prior mean; independent of that mean."""
    return _gaussian_variance(lambda phi: binomial_law(N, phi), sigma, rtol)


def qft_phase_variance(N: int, sigma: float, theta0: float = 0.0, rtol: float = 1e-13) -> float:
    """Average posterior MSE of the sine probe with the Fourier-basis readout."""
    psi = sine_probe(N)
    return _gaussian_variance(lambda phi: fourier_law(psi, phi + theta0), sigma, rtol)


def wrapped_normal_pdf(theta: np.ndarray, sigma: float, theta0: float) -> np.ndarray:
    """(1 / 2 pi) (1 + 2 sum_k e^{-k^2 sigma^2 / 2} cos k (theta - theta0))."""
    k_max = max(1, math.ceil(math.sqrt(2.0 * 50.0) / sigma))
    k = np.arange(1, k_max + 1)
    series = np.exp(-(k**2) * sigma**2 / 2.0)[None, :] * np.cos(np.outer(theta - theta0, k))
    return (1.0 + 2.0 * series.sum(axis=1)) / (2.0 * math.pi)


def holevo_variance(N: int, sigma: float, theta0: float = 0.0, rtol: float = 1e-11) -> float:
    """Average posterior Holevo variance, sum_m p_m (|<e^{i theta}>_m|^-2 - 1),
    of the sine probe with the Fourier readout under a wrapped-normal prior."""
    psi = sine_probe(N)
    previous = None
    points = 256
    while points <= 1 << 16:
        theta = -math.pi + 2.0 * math.pi * np.arange(points) / points
        w = wrapped_normal_pdf(theta, sigma, theta0) * (2.0 * math.pi / points)
        law_values = fourier_law(psi, theta)
        p = w @ law_values
        phasor = (w * np.exp(1j * theta)) @ law_values
        live = p > PROB_FLOOR
        value = float(np.sum(p[live] * (p[live] ** 2 / np.abs(phasor[live]) ** 2 - 1.0)))
        if previous is not None and abs(value - previous) <= rtol * abs(value):
            return value
        previous = value
        points *= 2
    raise OracleError(f"trapezoid Holevo variance did not converge (last {previous!r})")


# ---------------------------------------------------------------------------
# Circuit and pattern targets (qubit 0 is the most significant bit)

def unary_index(n: int, N: int) -> int:
    """Basis index of |1>^n |0>^(N-n)."""
    return ((1 << n) - 1) << (N - n)


def unary_embedding(coeffs: np.ndarray) -> np.ndarray:
    """sum_n c_n |1>^n |0>^(N-n) as a 2^N amplitude vector."""
    N = len(coeffs) - 1
    amps = np.zeros(2**N, dtype=complex)
    for n, c in enumerate(coeffs):
        amps[unary_index(n, N)] = c
    return amps


def compressed_target(coeffs: np.ndarray, lam: int) -> np.ndarray:
    """The compressor maps |n>_unary to |n> in binary, MSB first on lam qubits."""
    amps = np.zeros(2**lam, dtype=complex)
    amps[: len(coeffs)] = coeffs
    return amps


def ghz_target(n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return amps


def ry(phi: float) -> np.ndarray:
    """exp(+i phi Y / 2)."""
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array([[c, s], [-s, c]], dtype=complex)


def h_rz(phi: float) -> np.ndarray:
    """One teleportation step at angle phi: H exp(+i phi Z / 2)."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    return h @ np.diag([np.exp(1j * phi / 2.0), np.exp(-1j * phi / 2.0)])


def cnot() -> np.ndarray:
    """Control on the first (most significant) qubit."""
    return np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| for normalized b; equals 1 only when a = b up to global phase."""
    return float(abs(np.vdot(b / np.linalg.norm(b), a)))
