"""Reference routes that the tests pin the package against.

* The exact combinatorial sums of the optimal parallel classical strategy,
  in mpmath at 40 + 0.35 N decimal digits: outcome weights expand into the
  moments E[sin^s theta] and E[theta sin^s theta], and the two nested
  alternating binomial sums cancel far beyond double precision, so the
  integer part is exact and only the transcendental part is rounded.
* Adaptive quadrature (scipy.integrate.quad) over the prior's support
  (+-10 sigma about a Gaussian prior's mean, [-pi, pi] otherwise), and
  with it integrals of p(m|theta) against the prior, for the Bayesian
  rounds and for the classical strategy; the package itself integrates
  priors by fixed Gauss-Legendre rules.  Each takes its outcome law from
  its own route: the eigenvectors of each effect for a round, and the
  binomial law from math.comb for the classical strategy.
* The Fisher information by central differences of an outcome law, and
  the GHZ parity law it is applied to, where the package takes the exact
  slope of the parity law and the analytic derivative of the dephased
  state.
* The Holevo round by node quadrature: the outcome law evaluated node by
  node and integrated against the prior, where the package contracts the
  probe's autocorrelation with the prior's closed-form harmonics.
* The dense gate kernel: each `simcore.Gate` applied to all 2^n amplitudes
  in place, by exchanging, scaling or mixing the two parts its target
  splits the state into (`apply_gate`, `run_circuit`, `circuit_unitary`).
  It is the oracle for everything circuit-shaped; the package itself
  applies no gate.
* The projection of one qubit onto an assigned outcome, in place and as a
  fresh state, and the qubit drop that follows it.
* The whole cluster state of a graph: every vertex in |+> or its injected
  state, then one CZ per edge through `run_circuit`, for the stepwise
  branch walker that the pattern sweep is pinned against.
* The compressor run densely: the 2^n-amplitude embedding through every
  gate by `run_circuit`, then one qubit drop per non-output wire.
* The QFT-readout variance through two dense DFT products on Gamma and eta
  written out in closed form.
* Each POVM effect as a dense (N+1)^2 matrix F_k^+ F_k, and through it the
  traces Tr(E_k psi psi^+ o h) against the dense operator of each harmonic
  row and the outcome law from each effect's eigenvectors, where the
  package keeps only the factors and takes the autocorrelation of the
  probe weighted by each factor row.
* The periodic trapezoid rule of the classical strategy on all of its
  nodes, each weighted by its Gaussian images and its outcome law built
  with np.where for 0 log 0, where the package builds only the nodes near
  the prior's mean, sums wide priors by their Fourier series and zeroes
  one column of each outer product in place of the np.where.
* The Gaussian round over a readout kernel's full spectrum, d = -N..N:
  complex traces against the complex Gaussian rows (the package's
  `_contract` over `_gaussian_harmonics`), one width at a time, where the
  interrogation-time searches take two real products over the kernel's
  d >= 0 half.
* The interrogation-time search as a loop of one objective call per width,
  where the package evaluates the whole grid in one call; and its
  refinement by golden section, which shrinks the bracket by a fixed ratio
  per call, where the package fits parabolas by Brent's method.
* The Fisher information of a wide wrapped prior from its Fourier series
  written out term by term and integrated in mpmath, where the package
  takes the score from three Fourier terms on Gauss-Legendre nodes.

None of these is on a production path; they are slow and kept for their
independence.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

from clustersense.compress import CompressError, CompressorLayout
from clustersense.estimate import (
    _NODE_FLOOR,
    PROB_FLOOR,
    EstimateError,
    Povm,
    Prior,
    QuadratureError,
    TauOptimum,
    _brent_minimize,
    _contract,
    _gauss_legendre_converged,
    _gaussian_harmonics,
    _index_rows,
    _information,
    gaussian_prior,
    parity_strategy,
)
from clustersense.mbqc import Graph, PatternError
from clustersense.probes import SubspaceState, sine_coefficients
from clustersense.simcore import (
    MAX_QUBITS,
    NULL_PROB,
    Circuit,
    Gate,
    SimulationError,
    StateVector,
    cz,
    product_state,
)

# ---------------------------------------------------------------------------
# Adaptive quadrature

def _quad(f, a: float, b: float, rtol: float = 1e-9) -> float:
    value, err = integrate.quad(f, a, b, epsabs=1e-13, epsrel=rtol, limit=400)
    if err > 1e-8 * max(1.0, abs(value)):
        raise QuadratureError(f"integral error estimate {err:.2e} too large for value {value:.6e}")
    return value


def _quad_complex(f, a: float, b: float, rtol: float = 1e-9) -> complex:
    re = _quad(lambda t: f(t).real, a, b, rtol)
    im = _quad(lambda t: f(t).imag, a, b, rtol)
    return re + 1j * im


def support(prior: Prior) -> tuple[float, float]:
    """The quadrature range of a prior: +-10 sigma about a Gaussian prior's
    mean, [-pi, pi] for a wrapped or flat one."""
    if prior.kind == "gaussian":
        return prior.theta0 - 10 * prior.sigma, prior.theta0 + 10 * prior.sigma
    return -math.pi, math.pi


# ---------------------------------------------------------------------------
# Local estimation by central differences

def parity_law(N: int):
    """theta -> (p(even), p(odd)) of the GHZ parity strategy."""

    def probs(theta: float) -> np.ndarray:
        p_even, p_odd, _ = parity_strategy(N, theta)
        return np.array([p_even, p_odd])

    return probs


def fisher_information_by_differences(probs_fn, theta: float, step: float = 1e-5) -> float:
    """sum_k p_k'^2 / p_k over the outcomes with p_k > PROB_FLOOR, each
    slope p_k' a central difference of half-width `step`.  For a law whose
    highest harmonic is e^{i N theta} the slope is off by a relative
    O((N step)^2), and rounding adds about 1e-16 / step."""
    p0 = np.asarray(probs_fn(theta), dtype=float)
    if np.min(p0) < -1e-12:
        raise EstimateError(f"negative outcome probability {np.min(p0):.3e}")
    dp = (np.asarray(probs_fn(theta + step)) - np.asarray(probs_fn(theta - step))) / (2 * step)
    live = p0 > PROB_FLOOR
    return float(np.sum(dp[live] ** 2 / p0[live]))


# ---------------------------------------------------------------------------
# Classical parallel strategy: exact sums in mpmath

def _signed_expansion(N: int, m: int) -> list[int]:
    """Exact integer coefficients of (1+x)^(N-m) (1-x)^m.

    These are the binary Krawtchouk values K_s(m; N), generated by their
    three-term recurrence (the division is always exact), which is O(N)
    instead of the O(N^2) double binomial sum.
    """
    out = [0] * (N + 1)
    out[0] = 1
    if N >= 1:
        out[1] = N - 2 * m
    for s in range(1, N):
        out[s + 1] = ((N - 2 * m) * out[s] - (N - s + 1) * out[s - 1]) // (s + 1)
    return out


def _sin_power_moment(n: int, sigma) -> "mpmath.mpf":
    """E[sin^n theta] for theta ~ N(0, sigma^2); zero for odd n."""
    if n % 2 == 1:
        return mpmath.mpf(0)
    if n == 0:
        return mpmath.mpf(1)
    half = n // 2
    scale = mpmath.mpf(2) ** (-n)
    total = mpmath.binomial(n, half) * scale
    for l in range(half):
        total += (2 * (-1) ** (half - l)) * mpmath.binomial(n, l) * scale * mpmath.exp(
            -((n - 2 * l) ** 2) * sigma**2 / 2)
    return total


def _theta_sin_power_moment(n: int, sigma) -> "mpmath.mpf":
    """E[theta sin^n theta] for theta ~ N(0, sigma^2); zero for even n."""
    if n % 2 == 0:
        return mpmath.mpf(0)
    prefactor = n * sigma**2 * mpmath.mpf(2) ** (1 - n)
    total = mpmath.exp(-(sigma**2) / 2) * mpmath.binomial(n - 1, (n - 1) // 2)
    for l in range((n - 1) // 2):
        sign = (-1) ** ((n - 2 * l - 1) // 2)
        total += sign * mpmath.binomial(n - 1, l) * (
            mpmath.exp(-((n - 2 * l - 2) ** 2) * sigma**2 / 2)
            + mpmath.exp(-((n - 2 * l) ** 2) * sigma**2 / 2))
    return prefactor * total


def _classical_parallel_from_tables(N: int, sig, even_moments: dict, odd_moments: dict) -> float:
    scale = mpmath.mpf(2) ** (-N)
    subtract = mpmath.mpf(0)
    for m in range(N + 1):
        coeffs = _signed_expansion(N, m)
        binom = mpmath.binomial(N, m) * scale
        weight = binom * mpmath.fsum(coeffs[s] * even_moments[s] for s in range(0, N + 1, 2))
        gamma_m = binom * mpmath.fsum(coeffs[s] * odd_moments[s] for s in range(1, N + 1, 2))
        if weight > mpmath.mpf(10) ** (-30):
            subtract += gamma_m**2 / weight
    return float(sig**2 - subtract)


def classical_parallel_curve(Ns, sigma: float) -> list[float]:
    """classical_parallel_variance over an N grid, sharing the moment tables
    (they depend on sigma and the power only)."""
    Ns = list(Ns)
    n_max = max(Ns)
    dps = 40 + int(0.35 * n_max)
    with mpmath.workdps(dps):
        sig = mpmath.mpf(sigma)
        even = {s: _sin_power_moment(s, sig) for s in range(0, n_max + 1, 2)}
        odd = {s: _theta_sin_power_moment(s, sig) for s in range(1, n_max + 1, 2)}
        return [_classical_parallel_from_tables(N, sig, even, odd) for N in Ns]


def xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x log y elementwise, with 0 log 0 = 0: a vanishing probability raised
    to the power 0 is 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def outcome_law_by_xlogy(N: int, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """C(N, m) plus^(N-m) minus^m, one row per entry of plus and minus, as
    the exponential of log C(N, m), each the log of the exact integer, plus
    (N - m) log plus + m log minus, with 0^0 = 1 through np.where."""
    m = np.arange(N + 1)
    log_binomials = np.array([math.log(math.comb(N, k)) for k in m])
    return np.exp(log_binomials + xlogy(N - m, plus[:, None]) + xlogy(m, minus[:, None]))


def wrapped_weights_by_images(theta: np.ndarray, sigma: float):
    """w0 = sum_k g(x_k), w1 = sum_k x_k g(x_k) over the Gaussian images
    x_k = theta + 2 pi k up to 40 sigma + pi, and sum_k |x_k| g(x_k), the
    scale that bounds the rounding of w1's sum of signed terms."""
    n_images = math.ceil((40 * sigma + math.pi) / (2 * math.pi))
    unwrapped = theta[:, None] + 2 * math.pi * np.arange(-n_images, n_images + 1)
    g = np.exp(-0.5 * (unwrapped / sigma) ** 2)
    return g.sum(axis=1), (unwrapped * g).sum(axis=1), (np.abs(unwrapped) * g).sum(axis=1)


def wrapped_prior_fisher_by_series(sigma: float, terms: int) -> float:
    """I(p) = int p'^2 / p over [-pi, pi] for the wrapped Gaussian
    p = (1 + 2 sum_j e^{-j^2 sigma^2 / 2} cos j theta) / 2 pi, its Fourier
    series written out to j = terms, by mpmath quadrature at 30 digits.
    The terms are summed one by one: mpmath.nsum misjudges a series whose
    terms fall near e^-200."""
    with mpmath.workdps(30):
        decay = [mpmath.exp(-mpmath.mpf(j * sigma) ** 2 / 2) for j in range(1, terms + 1)]

        def integrand(t):
            p = 1 + 2 * sum(d * mpmath.cos(j * t) for j, d in enumerate(decay, 1))
            dp = -2 * sum(j * d * mpmath.sin(j * t) for j, d in enumerate(decay, 1))
            return dp**2 / p

        return float(mpmath.quad(integrand, [-mpmath.pi, 0, mpmath.pi]) / (2 * mpmath.pi))


def classical_parallel_sums_by_all_nodes(N: int, sigma: float,
                                         node_floor: float = _NODE_FLOOR) -> float:
    """sigma^2 - sum_m gamma_m^2 / p_m by the periodic trapezoid rule on all
    M = N + 2 + ceil(12 / sigma) nodes, each weighted by its wrapped Gaussian
    sums; nodes below `node_floor` times the largest weight are dropped
    (node_floor=0 keeps every node)."""
    M = N + 2 + math.ceil(12.0 / sigma)
    theta = (2 * math.pi / M) * (np.arange(M) - M // 2)
    w0, w1, _ = wrapped_weights_by_images(theta, sigma)
    live = w0 >= node_floor * w0.max()
    half = theta[live] / 2 + math.pi / 4
    P = outcome_law_by_xlogy(N, np.sin(half) ** 2, np.cos(half) ** 2)
    scale = math.sqrt(2 * math.pi) / (M * sigma)
    p = scale * (w0[live] @ P)
    gamma = scale * (w1[live] @ P)
    seen = p > 0
    return sigma**2 - float(np.sum(gamma[seen] ** 2 / p[seen]))


def product_law(N: int, theta_ref: float = 0.0):
    """theta -> P(m|theta), m = 0..N, for N |+> qubits each measured in the
    rotated-X basis aligned to theta_ref, m counting the '-' results:
    C(N, m) plus^(N-m) minus^m with plus, minus = (1 +- sin(theta - theta_ref)) / 2,
    the binomial taken from math.comb."""

    def probs(theta: float) -> np.ndarray:
        s = math.sin(theta - theta_ref)
        plus, minus = (1 + s) / 2, (1 - s) / 2
        return np.array([math.comb(N, m) * plus ** (N - m) * minus**m for m in range(N + 1)])

    return probs


def classical_parallel_variance_quadrature(N: int, sigma: float, theta0: float = 0.0,
                                           rtol: float = 1e-9) -> float:
    """Quadrature oracle for the parallel classical strategy (any theta0),
    with the outcome law of product_law."""
    probs_fn = product_law(N, theta_ref=theta0)
    prior = gaussian_prior(sigma, theta0)
    lo, hi = support(prior)
    subtract = 0.0
    for m in range(N + 1):
        def weighted(t, power, m=m):
            return (t - theta0) ** power * float(prior.pdf(t)) * float(probs_fn(t)[m])

        p = _quad(lambda t: weighted(t, 0), lo, hi, rtol)
        if p < PROB_FLOOR:
            continue
        g = _quad(lambda t: weighted(t, 1), lo, hi, rtol)
        subtract += g**2 / p
    return sigma**2 - subtract


# ---------------------------------------------------------------------------
# Bayesian round by quadrature

def bayes_variance_quadrature(prior: Prior, probe: SubspaceState, povm: Povm,
                              rtol: float = 1e-9) -> float:
    """Average posterior variance by direct integration of p(m|theta) against
    the prior — the independent oracle for the closed-form route; the law
    comes from the eigenvectors of each effect (outcome_law)."""
    law = outcome_law(probe, povm)
    lo, hi = support(prior)
    n_out = len(povm.labels)
    p = np.empty(n_out)
    first = np.empty(n_out)
    second = np.empty(n_out)
    for m in range(n_out):
        def weighted(t, power, m=m):
            return t**power * float(prior.pdf(t)) * float(law(np.array([t]))[0, m])

        p[m] = _quad(lambda t: weighted(t, 0), lo, hi, rtol)
        first[m] = _quad(lambda t: weighted(t, 1), lo, hi, rtol)
        second[m] = _quad(lambda t: weighted(t, 2), lo, hi, rtol)
    live = p > PROB_FLOOR
    return float(np.sum(second[live]) - np.sum(first[live] ** 2 / p[live]))


# ---------------------------------------------------------------------------
# Holevo round by node quadrature

def _offset_law(prior: Prior):
    """(centre, pdf, intervals) for the prior's law of the offset
    x = theta - centre, centre its mean reduced into [-pi, pi] (0 for a flat
    prior).  The density is written in x, so no node near +-pi loses the
    digits of its offset.  A wrapped prior is a sum of Gaussian images on the
    circle, or on +-12 sigma when that is narrower; an unwrapped Gaussian
    spans +-12 sigma of the real line, with no images at all."""
    if prior.kind == "flat":
        return 0.0, lambda x: np.full_like(x, 1 / (2 * math.pi)), ((-math.pi, math.pi),)
    sigma = prior.sigma
    if prior.kind == "gaussian":
        q, half = np.zeros(1), 12 * sigma
    else:
        q_max = math.ceil((math.pi + 12 * sigma) / (2 * math.pi))
        q, half = np.arange(-q_max, q_max + 1), min(math.pi, 12 * sigma)

    def pdf(x):
        images = x[:, None] + 2 * math.pi * q
        return np.exp(-images**2 / (2 * sigma**2)).sum(axis=1) / (math.sqrt(2 * math.pi) * sigma)

    return math.remainder(prior.theta0, 2 * math.pi), pdf, ((-half, half),)


def outcome_law(probe: SubspaceState, povm: Povm | None = None):
    """thetas -> P(m | theta), one row per node: |DFT(psi_n e^{-i n theta})|^2
    / (N + 1) for the Fourier readout, else the squared overlaps of the
    encoded probe with the eigenvectors of each effect, summed per effect
    (the eigenvectors are found once, here)."""
    n = np.arange(probe.N + 1)
    if povm is not None:
        values, vectors = np.linalg.eigh(dense_effects(povm))
        owner, column = np.nonzero(values > 1e-12)
        rows = vectors[owner, :, column] * np.sqrt(values[owner, column])[:, None]
        per_effect = np.zeros((len(owner), len(povm.labels)))
        per_effect[np.arange(len(owner)), owner] = 1.0

    def law(thetas):
        u = probe.coeffs * np.exp(-1j * np.outer(thetas, n))
        if povm is None:
            return np.abs(np.fft.fft(u, axis=1)) ** 2 / (probe.N + 1)
        return np.abs(u @ rows.conj().T) ** 2 @ per_effect

    return law


def holevo_bayes_round_by_nodes(prior: Prior, law, tol: float = 1e-13) -> float:
    """sum_m p_m (|phi_m / p_m|^-2 - 1) with p_m and phi_m, the integrals of
    P(m|theta) = law(theta) and e^{i theta} P(m|theta) against the prior,
    taken node by node by Gauss-Legendre rules of doubling order until two
    agree to `tol` relative to the value.

    Each outcome's phasor is taken about its own direction theta_m = arg
    phi_m, so that p_m^2 - |phi_m|^2 = S_m (2 p_m - S_m) - T_m^2 with
    S_m = int w 2 sin^2((theta - theta_m) / 2) P(m|theta) >= 0 and
    T_m = int w sin(theta - theta_m) P(m|theta), which is 0 up to rounding:
    nothing cancels, at any prior width.
    """
    centre, pdf, intervals = _offset_law(prior)

    def evaluate(x, w):
        P = law(centre + x)
        p = w @ P
        P = P[:, p > PROB_FLOOR]
        p = p[p > PROB_FLOOR]
        y = x[:, None] - np.angle((w * np.exp(1j * x)) @ P)
        S = w @ (2 * np.sin(y / 2) ** 2 * P)
        T = w @ (np.sin(y) * P)
        return float(np.sum(p * (S * (2 * p - S) - T**2) / ((p - S) ** 2 + T**2)))

    return _gauss_legendre_converged(pdf, evaluate, tol, intervals)


def outcome_probabilities_by_nodes(prior: Prior, law, tol: float = 1e-12) -> np.ndarray:
    """p(m), the integral of law(theta) against the prior node by node, to
    `tol` relative to the largest p(m).  The default is looser than the
    round's: each p(m), about 1 / (N + 1), carries the rounding of a sum of
    terms as large as the whole law's."""
    centre, pdf, intervals = _offset_law(prior)
    return _gauss_legendre_converged(pdf, lambda x, w: w @ law(centre + x), tol, intervals)


# ---------------------------------------------------------------------------
# Explicit POVMs through dense operators

def dense_effects(povm: Povm) -> np.ndarray:
    """The (K, N+1, N+1) stack of effects E_k = F_k^+ F_k."""
    return np.einsum("kri,krj->kij", povm.factors.conj(), povm.factors)


def traces_dense(probe: SubspaceState, harmonics: np.ndarray, povm: Povm) -> np.ndarray:
    """Tr(E_k psi psi^+ o h) for each effect and each row h of `harmonics`,
    each row's operator psi_n psi_m* h_{n-m} built as an (N+1)^2 matrix
    through an explicit index matrix n - m."""
    n = np.arange(probe.N + 1)
    operators = (np.outer(probe.coeffs, probe.coeffs.conj())
                 * harmonics[..., n[:, None] - n + probe.N])
    return np.einsum("kij,...ji->...k", dense_effects(povm), operators)


# ---------------------------------------------------------------------------
# The dense gate kernel

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def base_matrix(gate: Gate) -> np.ndarray:
    """Unitary applied on the gate's target factors (controls handled
    separately); the gate's constructor has checked its kind and parameters."""
    kind = gate.kind
    fixed = {"X": _X, "Y": _Y, "Z": _Z, "H": _H, "SWAP": _SWAP}
    if kind in fixed:
        return fixed[kind]
    if kind == "PHASE":
        a0, a1 = gate.phases
        return np.array([[np.exp(1j * a0), 0], [0, np.exp(1j * a1)]])
    c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
    if kind == "RX":
        return np.array([[c, 1j * s], [1j * s, c]])
    if kind == "RY":
        return np.array([[c, s], [-s, c]], dtype=complex)
    return np.array([[np.exp(1j * gate.angle / 2), 0], [0, np.exp(-1j * gate.angle / 2)]])


#: Amplitudes per block in the kernel's two-part updates.  Blocks this small
#: keep the temporaries in cache and let the allocator reuse them; whole-part
#: temporaries at 17+ qubits cost a fresh page fault per 4 KiB.
_BLOCK = 2**14


def _blocks(zero: np.ndarray, one: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Matching views of two equally shaped parts, split along their leading
    axes into blocks of about _BLOCK amplitudes."""
    lead, size = 0, zero.size
    while size > _BLOCK and lead < zero.ndim - 1:
        size //= zero.shape[lead]
        lead += 1
    if lead == 0:
        return [(zero, one)]
    return [(zero[i], one[i]) for i in np.ndindex(zero.shape[:lead])]


def _apply_inplace(work: np.ndarray, gate: Gate) -> None:
    """Apply `gate` to `work` in place.

    `work` has one length-2 axis per qubit, in qubit order, optionally
    followed by batch axes that the gate leaves alone.  The controls are
    fixed by indexing, so each branch touches only the controlled slice:
    X-family gates and SWAP exchange two of its parts, diagonal gates scale
    them, and only H, Y, RX and RY mix two parts with a dense 2x2 update.
    """
    index = [slice(None)] * work.ndim
    for c, p in zip(gate.controls, gate.polarity):
        index[c] = p
    kind = gate.kind
    if kind == "SWAP":
        # the |01> and |10> parts play the roles of X's target-0 and
        # target-1 parts; the Ellipsis keeps a fully indexed part a 0-d
        # view, not a copy
        a, b = gate.targets
        index[a], index[b] = 0, 1
        zero = work[(*index, ...)]
        index[a], index[b] = 1, 0
        one = work[(*index, ...)]
    else:
        (t,) = gate.targets
        index[t] = 0
        zero = work[(*index, ...)]
        index[t] = 1
        one = work[(*index, ...)]
    if kind in ("X", "SWAP"):
        for z, o in _blocks(zero, one):
            kept = z.copy()
            z[...] = o
            o[...] = kept
    elif kind in ("Z", "RZ", "PHASE"):
        mat = base_matrix(gate)
        for part, factor in ((zero, mat[0, 0]), (one, mat[1, 1])):
            if factor != 1:
                part *= factor
    else:
        (m00, m01), (m10, m11) = base_matrix(gate)
        for z, o in _blocks(zero, one):
            kept = z.copy()
            z *= m00
            z += m01 * o
            o *= m11
            o += m10 * kept


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Transform the state by the gate's unitary; norm is preserved."""
    return run_circuit(Circuit(state.n_qubits, [gate]), state)


def run_circuit(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit's gates in order to a copy of `initial`."""
    if initial.n_qubits != circuit.n_qubits:
        raise SimulationError("initial state size does not match circuit")
    n = circuit.n_qubits
    work = initial.amps.reshape((2,) * n).copy()
    for op in circuit.ops:
        _apply_inplace(work, op)
    return StateVector(n, work.reshape(-1))


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2**n unitary of a circuit (n <= 12)."""
    n = circuit.n_qubits
    if n > 12:
        raise SimulationError("circuit_unitary supports at most 12 qubits")
    dim = 2**n
    # basis column k rides along the trailing batch axis
    cols = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for op in circuit.ops:
        _apply_inplace(cols, op)
    return cols.reshape(dim, dim)


# ---------------------------------------------------------------------------
# Measurement of one branch

def _project_inplace(work: np.ndarray, qubit: int, bit: int) -> float:
    """Project `qubit` of `work` onto `bit` in place and renormalize.

    Returns the branch probability; below NULL_PROB it returns 0.0 and
    leaves `work` unspecified.
    """
    if bit not in (0, 1):
        raise SimulationError(f"outcome must be a bit, got {bit!r}")
    index = [slice(None)] * work.ndim
    index[qubit] = bit
    kept = work[(*index, ...)]  # the Ellipsis keeps a 1-qubit part a view
    prob = float(np.vdot(kept, kept).real)
    if prob < NULL_PROB:
        return 0.0
    kept /= math.sqrt(prob)
    index[qubit] = 1 - bit
    work[(*index, ...)] = 0.0
    return prob


def measure_branch(state: StateVector, qubit: int, outcome: int) -> tuple[StateVector, float]:
    """Project `qubit` onto `outcome` and renormalize.

    Returns the post-measurement state and the branch probability; a
    zero-probability branch returns (null state, 0.0).
    """
    if not 0 <= qubit < state.n_qubits:
        raise SimulationError(f"qubit index {qubit} out of range")
    work = state.amps.reshape((2,) * state.n_qubits).copy()
    prob = _project_inplace(work, qubit, outcome)
    if prob == 0.0:
        return StateVector.null(state.n_qubits), 0.0
    return StateVector(state.n_qubits, work.reshape(-1)), prob


def drop_qubit(state: StateVector, qubit: int, outcome: int) -> StateVector:
    """Remove a qubit known to be in |outcome> (e.g. after a projection).

    Errors if the state carries weight on the complementary branch.
    """
    psi = state.amps.reshape((2,) * state.n_qubits)
    index = [slice(None)] * state.n_qubits
    index[qubit] = 1 - outcome
    discarded = psi[tuple(index)]
    if float(np.vdot(discarded, discarded).real) > 1e-20:
        raise SimulationError(f"qubit {qubit} is not definitely |{outcome}>")
    index[qubit] = outcome
    return StateVector(state.n_qubits - 1, np.ascontiguousarray(psi[tuple(index)]).reshape(-1))


# ---------------------------------------------------------------------------
# Cluster states

def cluster_state(graph: Graph, injected: dict[int, np.ndarray] | None = None) -> StateVector:
    """|+> on every vertex (or the injected state), then CZ across each edge."""
    n = graph.n_vertices
    if n > MAX_QUBITS:
        raise PatternError(f"{n} vertices exceed the dense-simulation cap")
    injected = injected or {}
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    state = product_state([np.asarray(injected.get(v, plus), dtype=complex) for v in range(n)])
    return run_circuit(Circuit(n, [cz(a, b) for a, b in sorted(graph.edges)]), state)


# ---------------------------------------------------------------------------
# The compressor on the dense simulator

def compress_statevector_dense(state: StateVector, layout: CompressorLayout,
                               circuit: Circuit) -> StateVector:
    """Embed an N-qubit unary-register state, run the compressor gate by gate
    on all 2^n_qubits amplitudes, drop every non-output wire (which must be
    |0>), and return the lambda-qubit result (MSB-first qubit order)."""
    if state.n_qubits != layout.N:
        raise CompressError("input must live on the N unary wires")
    full = np.zeros(2 ** layout.n_qubits, dtype=complex)
    shift = layout.n_qubits - layout.N
    full[np.arange(2**layout.N) << shift] = state.amps
    result = run_circuit(circuit, StateVector(layout.n_qubits, full))
    keep = layout.final_binary_msb_first()
    for wire in sorted(set(range(layout.n_qubits)) - set(keep), reverse=True):
        result = drop_qubit(result, wire, 0)
        keep = tuple(w - 1 if w > wire else w for w in keep)
    order = [keep.index(w) for w in sorted(keep)]
    # reorder remaining axes so the MSB of the value comes first
    psi = result.amps.reshape((2,) * layout.lam)
    psi = np.moveaxis(psi, order, range(layout.lam))
    return StateVector(layout.lam, np.ascontiguousarray(psi).reshape(-1))


# ---------------------------------------------------------------------------
# QFT readout through dense DFT products

def qft_phase_variance_dense(N: int, sigma: float, theta0: float = 0.0,
                             probe: SubspaceState | None = None) -> float:
    """Average posterior MSE of the probe with the (N+1)-point Fourier-basis
    readout: p_k and g_k as f_k^+ Gamma f_k and f_k^+ eta f_k, by two dense
    matrix products with the DFT columns, on the closed forms
    Gamma_nm = psi_n psi_m* e^{-i(n-m) theta0 - (n-m)^2 sigma^2 / 2} and
    eta_nm = (theta0 - i (n-m) sigma^2) Gamma_nm."""
    probe = probe if probe is not None else sine_coefficients(N)
    n = np.arange(N + 1)
    kappa = n[:, None] - n[None, :]
    gamma = (np.outer(probe.coeffs, probe.coeffs.conj())
             * np.exp(-1j * kappa * theta0 - kappa**2 * sigma**2 / 2.0))
    eta = (theta0 - 1j * kappa * sigma**2) * gamma
    f = np.exp(1j * np.outer(n, n) * 2 * math.pi / (N + 1)) / math.sqrt(N + 1)
    p = np.einsum("nk,nk->k", f.conj(), gamma @ f).real
    g = np.einsum("nk,nk->k", f.conj(), eta @ f).real - theta0 * p
    live = p > PROB_FLOOR
    return sigma**2 - float(np.sum(g[live] ** 2 / p[live]))


# ---------------------------------------------------------------------------
# Interrogation-time search, one width at a time

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_minimize(f, a: float, b: float, tol: float = 1e-6) -> tuple[float, float]:
    """Locate the minimum of a unimodal f on [a, b] to within tol."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def optimize_by_width_loop(objective, grid: np.ndarray, minimize=_brent_minimize) -> TauOptimum:
    """The best of objective(tau) over `grid`, one call per width, refined
    by `minimize` (the package's Brent search, or golden_section_minimize)
    between the neighbours of the best grid point; an optimum at either
    end of the grid is a boundary."""
    values = [objective(tau) for tau in grid]
    best = int(np.argmin(values))
    if best == 0 or best == len(grid) - 1:
        return TauOptimum(float(grid[best]), float(values[best]), boundary=True)
    tau, val = minimize(objective, float(grid[best - 1]), float(grid[best + 1]), tol=1e-6)
    if val > values[best]:
        tau, val = grid[best], values[best]
    return TauOptimum(float(tau), float(val), boundary=False)


def full_kernel(half: np.ndarray) -> np.ndarray:
    """A readout kernel over d = -N..N, column d + N, from its d >= 0 half
    (_gaussian_round's form) by K_{k,-d} = K_kd*: the form _contract takes."""
    return np.concatenate([half[:, :0:-1].conj(), half], axis=1)


def gaussian_round_by_full_kernel(kernel: np.ndarray):
    """sigma -> sigma^2 - sum_k g_k^2 / p_k, one width at a time, from the
    complex traces of `kernel` over d = -N..N against the Gaussian 1 and
    first-moment rows of mean 0 (_contract over _gaussian_harmonics): the
    route the half-spectrum round is pinned to.  kernel is a (K, 2N + 1)
    kernel, or a probe's autocorrelation for the Fourier readout's fold and
    FFT."""
    rows = _index_rows(0.0, kernel.shape[-1] // 2)

    def mse(sigma):
        p, g = _contract(kernel, _gaussian_harmonics(sigma, rows)).real
        return sigma**2 - float(_information(p, g))

    return mse
