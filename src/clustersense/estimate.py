"""Local and Bayesian estimation on the unary-encoded probe subspace.

Phase conventions: the generator acts as H |n>_un = (n - N/2) |n>_un, the
encoding is exp(-i theta H), so a probe with coefficients psi_n picks up
relative phases e^{-i n theta}.  All operators on the subspace are plain
(N+1) x (N+1) matrices in the |n>_un basis.

A prior enters a round only through its harmonics
h_d = int p(theta) w(theta) e^{-i d theta} dtheta, d = -N..N, for w = 1,
theta, theta^2 and the centred phasor e^{i (theta - t0)} - 1 about the
prior's mean t0: the prior-averaged operators are psi psi^+ o h entrywise
(_on_subspace).  A Gaussian or wrapped prior's 1 harmonics are the row
e^{-i d theta0 - d^2 sigma^2 / 2} (_gaussian_row), which is also the factor
of the probe encoded at theta0 after Gaussian dephasing of width sigma.
The 1 and phasor harmonics are closed forms, and so are the theta and
theta^2 harmonics of a flat prior; those of a wrapped prior are integrated
over [-pi, pi] by Gauss-Legendre rules of doubling order, over theta0 +- 12
sigma only when narrower than pi / 12.  A measurement is a Povm, each effect
stored through its factor as E_k = F_k^+ F_k, or None for the (N+1)-point
Fourier readout.  Either way the traces start from one autocorrelation:
of the probe, folded mod N+1 and taken through one FFT for the Fourier
readout, or of the probe weighted by each factor row for a Povm
(_contract), so no (N+1)^2 matrix is built.  The kernel of every readout
is Hermitian in d, and so are a Gaussian prior's rows, so the tau
searches take each kernel's d >= 0 half as two real matrices
(_gaussian_round), and each width of a grid costs one real row and one
product; above N = 80 the Fourier readout's half takes two FFTs per width
in place of a matrix.  The optimal-parallel classical strategy has an
outcome law that is a trigonometric polynomial of degree N, so its Fourier
coefficients, taken by one FFT of the law on a 5-smooth number of nodes
above 2N, are a readout kernel like a Povm's (_classical_kernel), and the
classical tau search is the quantum one's objective over that kernel.  One width at a
time, as bayes-phase's column takes it, a periodic trapezoid rule against
the wrapped Gaussian integrates the law exactly in float64, with every
summed term positive.  Its node weights, like the wrapped prior's density
and score, are wrapped Gaussian sums from one helper (_wrapped_sums): image
sums below width pi, three Fourier terms from pi on.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .probes import SubspaceState, sine_coefficients
from .simcore import StateVector

PROB_FLOOR = 1e-14
CLASSICAL_PARALLEL_N_CAP = 256


class EstimateError(Exception):
    pass


class QuadratureError(EstimateError):
    """Gauss-Legendre rules up to the largest order did not integrate the
    prior to 1, or did not agree to the requested tolerance."""


class MSEValidityWarning(UserWarning):
    """Mean-square-error results are unreliable for priors wider than 1."""


# ---------------------------------------------------------------------------
# Numerics helpers

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _brent_minimize(f, a: float, b: float, tol: float = 1e-6) -> tuple[float, float]:
    """The least value of f seen on (a, b), and where, by Brent's method in
    its bounded form (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5): each step fits a parabola through the three
    best points so far, and takes a golden-section step instead when the
    parabola's minimum leaves the bracket or moves more than half the step
    before last.  It stops once the bracket is within 2 (sqrt(eps) |x| +
    tol / 3) of the best point x.  f is never called at a or b."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise EstimateError(f"the bracket must be finite with a < b, got ({a}, {b})")
    if not 0.0 < tol < math.inf:
        raise EstimateError(f"tol must be positive and finite, got {tol}")
    # x is the best point, w the second best and v the previous w
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    step = before_last = 0.0
    while True:
        middle = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        if abs(x - middle) <= 2.0 * tol1 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(before_last) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            limit, before_last = before_last, step
            if abs(p) < abs(0.5 * q * limit) and q * (a - x) < p < q * (b - x):
                golden = False
                step = p / q
                if min(x + step - a, b - x - step) < 2.0 * tol1:
                    step = tol1 if middle >= x else -tol1
        if golden:
            before_last = (a if x >= middle else b) - x
            step = _GOLDEN * before_last
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


@functools.lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order
    (each build is an eigenvalue solve); read-only because they are shared."""
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@functools.lru_cache(maxsize=32)
def _gauss_legendre_on(order: int, intervals: tuple[tuple[float, float], ...]):
    """Nodes and weights of one order-`order` rule on each interval, joined;
    read-only because they are shared."""
    nodes, weights = _gauss_legendre(order)
    thetas = np.concatenate([(a + b) / 2 + nodes * ((b - a) / 2) for a, b in intervals])
    scaled = np.concatenate([weights * ((b - a) / 2) for a, b in intervals])
    thetas.setflags(write=False)
    scaled.setflags(write=False)
    return thetas, scaled


def _gauss_legendre_converged(pdf, evaluate, tol: float = 1e-12,
                              intervals: tuple[tuple[float, float], ...] = ((-math.pi, math.pi),)):
    """evaluate(thetas, w), w the Gauss-Legendre weights times pdf(thetas),
    at orders 64, 128, ..., 2048 until two successive orders integrate pdf
    to 1 within `tol` (nodes can miss a narrow prior) and agree to `tol`
    relative to the largest |value| of the result, so a value far below 1
    keeps its own digits.  The scale is not taken entry by entry: an entry
    can vanish by symmetry (the mean of a prior centred on 0) and then
    carries only rounding.  An infinite value is returned at once.  Each of
    the `intervals` (all of [-pi, pi] by default) carries one rule of the
    order.
    """
    previous = None
    for order in (64, 128, 256, 512, 1024, 2048):
        thetas, weights = _gauss_legendre_on(order, intervals)
        w = weights * pdf(thetas)
        value = evaluate(thetas, w)
        if np.any(np.isinf(value)):
            return value
        if abs(np.sum(w) - 1.0) > tol:
            value = None
        elif previous is not None and np.all(
                np.abs(value - previous) <= tol * np.max(np.abs(value))):
            return value
        previous = value
    raise QuadratureError(f"Gauss-Legendre orders up to 2048 did not resolve the prior to {tol:g}")


# ---------------------------------------------------------------------------
# Priors

def _image_count(sigma: float) -> int:
    """Images kept on each side of a Gaussian image sum of width sigma: q up
    to n with 2 pi n >= 40 sigma + pi.  For an offset x with |x| <= 2 pi, as
    between two points of [-pi, pi], the next image lies farther than
    40 sigma from 0, and its term e^{-800} underflows to exactly zero."""
    return math.ceil((40 * sigma + math.pi) / (2 * math.pi))


#: Gaussian terms e^t with t below this are exactly 0, never a subnormal.
#: np.exp takes a slow path from about here down (about 100x its normal
#: cost for a subnormal result, 20x for 0).  Such a term lies below half an
#: ulp of the weight of every node the classical rule keeps (_NODE_FLOOR),
#: so those weights are the unfloored sums bit for bit.
_EXP_FLOOR = -708.0


def _gaussian_terms(images: np.ndarray, sigma) -> np.ndarray:
    """e^{-images^2 / 2 sigma^2}, 0 wherever the exponent is below
    _EXP_FLOOR; sigma is one width or one per image."""
    t = -0.5 * (images / sigma) ** 2
    t[t < _EXP_FLOOR] = -np.inf  # e^-inf is exactly 0 by exp's fast path
    return np.exp(t, out=t)


def _gaussian_images(x: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The images x + 2 pi q, |q| <= _image_count(sigma), of offsets x on a
    new last axis, and their Gaussian terms e^{-(x + 2 pi q)^2 / 2 sigma^2}
    (_gaussian_terms)."""
    n = _image_count(sigma)
    images = x[..., None] + 2 * math.pi * np.arange(-n, n + 1)
    return images, _gaussian_terms(images, sigma)


#: From this width on, wrapped Gaussian sums come from their Fourier series.
_FOURIER_WIDTH = math.pi


def _fourier_decay(sigma) -> tuple[np.ndarray, np.ndarray]:
    """j = 1, 2, 3 and e^{-j^2 sigma^2 / 2} on a new last axis of sigma."""
    j = np.arange(1, 4)
    return j, np.exp(-0.5 * np.multiply.outer(sigma, j) ** 2)


def _wrapped_sums(x, sigma, first_moment: bool = True) -> tuple[np.ndarray, ...]:
    """w0 = sum_q g(x + 2 pi q) and w1 = sum_q (x + 2 pi q) g(x + 2 pi q),
    g(y) = e^{-y^2 / 2 sigma^2}, at offsets x: below _FOURIER_WIDTH over
    every image that can be nonzero (_gaussian_images), from it on as
    w0 = (sigma / sqrt(2 pi)) (1 + 2 sum_j e^{-j^2 sigma^2 / 2} cos j x) and
    w1 = -sigma^2 dw0/dx to j = 3, past which e^{-8 pi^2} = 5e-35 of the sum
    is left out.  sigma is one width, or from _FOURIER_WIDTH on one per x.
    With first_moment=False only (w0,) is formed."""
    if getattr(sigma, "ndim", 0) == 0 and sigma < _FOURIER_WIDTH:  # np.ndim takes ~1 us
        images, g = _gaussian_images(x, sigma)
        w0 = g.sum(axis=-1)
        return (w0, (images * g).sum(axis=-1)) if first_moment else (w0,)
    j, decay = _fourier_decay(sigma)
    phase = np.multiply.outer(x, j)
    norm = np.divide(sigma, math.sqrt(2 * math.pi))
    w0 = norm * (1 + 2 * np.sum(decay * np.cos(phase), axis=-1))
    if not first_moment:
        return (w0,)
    w1 = norm * np.square(sigma) * 2 * np.sum(j * decay * np.sin(phase), axis=-1)
    return w0, w1


def _check_width(sigma, name: str = "sigma") -> None:
    """The width rule of every prior, and of every entry point that takes a
    width or an interrogation time: 0 < sigma < inf, for one value or each
    entry of an array, so NaN fails too."""
    if not np.all((0 < sigma) & (sigma < math.inf)):
        raise EstimateError(f"{name} must be positive and finite, got {sigma}")


@dataclass(frozen=True)
class Prior:
    """Gaussian / wrapped-Gaussian / flat prior with a finite mean theta0 and
    a positive finite width sigma (a flat prior ignores sigma).

    The wrapped density lives on [-pi, pi]: the sum w0 of _wrapped_sums
    about the centre, over sqrt(2 pi) sigma.  It integrates to 1.0 in
    float64 and needs no renormalization.
    """

    kind: str
    theta0: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "wrapped_gaussian", "flat"):
            raise EstimateError(f"unknown prior kind {self.kind!r}")
        if not math.isfinite(self.theta0):
            raise EstimateError(f"the prior mean must be finite, got {self.theta0}")
        if self.kind != "flat":
            _check_width(self.sigma)

    @property
    def centre(self) -> float:
        """theta0 reduced into [-pi, pi], about which the prior's rows and
        images are built; 0.0 for a flat prior, whose rows are taken about 0."""
        return 0.0 if self.kind == "flat" else math.remainder(self.theta0, 2 * math.pi)

    def pdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-((theta - self.theta0) ** 2) / (2 * self.sigma**2)) / (
                math.sqrt(2 * math.pi) * self.sigma)
        if self.kind == "wrapped_gaussian":
            return _wrapped_sums(theta - self.centre, self.sigma, first_moment=False)[0] / (
                math.sqrt(2 * math.pi) * self.sigma)
        return np.full_like(theta, 1.0 / (2 * math.pi))

    def rule_intervals(self) -> tuple[tuple[float, float], ...]:
        """Where the prior integrator puts its rules: all of [-pi, pi], or
        theta0 +- 12 sigma for a wrapped prior narrower than pi / 12 (its
        mass outside is below e^-72), cut in two where it wraps past +-pi."""
        if self.kind != "wrapped_gaussian" or 12 * self.sigma >= math.pi:
            return ((-math.pi, math.pi),)
        lo, hi = self.centre - 12 * self.sigma, self.centre + 12 * self.sigma
        if hi > math.pi:
            return ((lo, math.pi), (-math.pi, hi - 2 * math.pi))
        if lo < -math.pi:
            return ((lo + 2 * math.pi, math.pi), (-math.pi, hi))
        return ((lo, hi),)

    def fisher_information(self) -> float:
        """I(p) = E[(d log p / d theta)^2]; 1/sigma^2 for a Gaussian."""
        if self.kind == "gaussian":
            return 1.0 / self.sigma**2
        if self.kind == "flat":
            return 0.0

        scores = []

        def density(thetas):
            # one pair of sums per order gives the density and the score
            # -d log p / d theta = w1 / (sigma^2 w0); every node lies within
            # pi of an image centre, or within 12 sigma on a narrow prior's
            # rule, so w0 is at least e^-72
            w0, w1 = _wrapped_sums(thetas - self.centre, self.sigma)
            scores.append(w1 / (self.sigma**2 * w0))
            return w0 / (math.sqrt(2 * math.pi) * self.sigma)

        return _gauss_legendre_converged(
            density, lambda thetas, w: float(np.sum(w * scores.pop() ** 2)), tol=1e-8,
            intervals=self.rule_intervals())


def gaussian_prior(sigma: float, theta0: float = 0.0) -> Prior:
    return Prior("gaussian", theta0, sigma)


def wrapped_gaussian_prior(sigma: float, theta0: float = 0.0) -> Prior:
    return Prior("wrapped_gaussian", theta0, sigma)


def flat_prior() -> Prior:
    return Prior("flat")


# ---------------------------------------------------------------------------
# POVMs on the unary subspace

@dataclass(frozen=True, eq=False)
class Povm:
    """A measurement on the (N+1)-dimensional subspace, each effect stored
    as E_k = F_k^+ F_k through its factor F_k = factors[k], of shape
    (r, N+1); an effect of rank below r has zero rows.  Effects written this
    way are Hermitian and positive semidefinite, so the constructor checks
    only that they sum to the identity."""

    factors: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        try:
            factors = np.array(self.factors, dtype=complex)
        except (TypeError, ValueError):  # ragged or not numeric
            factors = np.empty(0)
        if factors.ndim != 3 or factors.size == 0:
            raise EstimateError("factors must be a non-empty (K, r, N+1) array")
        if len(self.labels) != len(factors):
            raise EstimateError("one label per effect required")
        rows = factors.reshape(-1, factors.shape[2])
        if not np.max(np.abs(rows.conj().T @ rows - np.eye(factors.shape[2]))) <= 1e-10:
            raise EstimateError("effects do not sum to the identity")
        factors.setflags(write=False)
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return self.factors.shape[2]

    def outcome_probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Tr(E_k rho) = sum_r F_kr rho F_kr^+ for each effect."""
        return np.einsum("kri,ij,krj->k", self.factors, rho, self.factors.conj()).real


def qft_povm(N: int) -> Povm:
    """Fourier-basis projectors |e_k><e_k| for k = 0..N, each the factor
    <e_k|, plus the zero completion effect for the subspace-orthogonal
    outcome (never fires for states inside the subspace)."""
    if N < 1:
        raise EstimateError("N must be >= 1")
    n = np.arange(N + 1)
    bras = np.exp(-2j * math.pi * np.outer(n, n) / (N + 1)) / math.sqrt(N + 1)
    factors = np.vstack([bras, np.zeros(N + 1)])[:, None, :]
    labels = tuple(f"k={k}" for k in range(N + 1)) + ("overflow",)
    return Povm(factors, labels)


def single_qubit_optimal_povm(theta0: float = 0.0) -> Povm:
    """Rotated-X projectors, the optimal single-qubit Bayesian measurement
    for a Gaussian prior centered at theta0: the bras of
    (|0> +- |1>) / sqrt 2 under the encoding phases e^{-i phi (n - 1/2)},
    phi = theta0 + pi / 2."""
    phi = theta0 + math.pi / 2
    bras = np.array([[1.0, 1.0], [1.0, -1.0]]) * np.exp(1j * phi * (np.arange(2) - 0.5))
    return Povm(bras[:, None, :] / math.sqrt(2), ("+", "-"))


def _on_subspace(probe: SubspaceState, harmonics: np.ndarray) -> np.ndarray:
    """psi_n psi_m* h_{n-m} from harmonics h_d, d = -N..N, on the last axis:
    entry (n, m) of rho(theta) is psi_n psi_m* e^{-i (n-m) theta}.  Each row
    h is read through its Toeplitz view, which starts at d = 0 and steps one
    column right for n and one left for m, so no index matrix is built."""
    N = probe.N
    h = np.ascontiguousarray(harmonics)
    step = h.itemsize
    toeplitz = np.ndarray(h.shape[:-1] + (N + 1, N + 1), h.dtype, h, N * step,
                          h.strides[:-1] + (step, -step))
    return probe.coeffs[:, None] * probe.coeffs.conj() * toeplitz


def _autocorrelation(u: np.ndarray) -> np.ndarray:
    """a_d = sum_n u_n u*_{n-d}, d = -N..N at column d + N, of each row of u
    (n = 0..N on the last axis, leading axes kept); a single row costs one
    np.convolve and nothing more."""
    if u.ndim == 1:
        return np.convolve(u, u[::-1].conj())
    rows = [_autocorrelation(row) for row in u.reshape(-1, u.shape[-1])]
    return np.reshape(rows, u.shape[:-1] + (2 * u.shape[-1] - 1,))


def _readout_kernel(probe: SubspaceState, povm: Povm | None) -> np.ndarray:
    """What the traces of a readout need of the probe (_contract): the
    probe's autocorrelation a_d, shape (2N + 1,), for the Fourier readout
    (povm=None), or B_kd, shape (K, 2N + 1), for a Povm."""
    if povm is None:
        return _autocorrelation(probe.coeffs)
    return _autocorrelation(povm.factors * probe.coeffs).sum(axis=1)


def _half_kernel(probe: SubspaceState, povm: Povm | None) -> np.ndarray:
    """What the tau searches need of the readout (_gaussian_round): the
    d >= 0 half of its _readout_kernel, with the rest given by
    K_{k,-d} = K_kd*: a_d at d = 0..N, shape (N + 1,), for the Fourier
    readout, or B_kd at d = 0..N, shape (K, N + 1), for a Povm."""
    N = probe.N
    return _readout_kernel(probe, povm)[..., N:]


def _fourier_matrix(a: np.ndarray) -> np.ndarray:
    """The Fourier readout's half-spectrum kernel as a matrix, shape
    (N + 1, N + 1): a_d e^{-2 pi i d k / (N+1)} / (N+1) at row k, column d,
    the fold and FFT of _contract at d = 0..N, its phases gathered from the
    N + 1 roots of unity at d k mod N + 1 and laid out d first, as the
    classical kernel is, for _gaussian_round's transposed reads."""
    N = len(a) - 1
    n = np.arange(N + 1)
    powers = np.outer(n, n)
    powers %= N + 1
    half = (np.exp((-2j * math.pi / (N + 1)) * n) / (N + 1))[powers]
    half *= a[:, None]
    return half.T


def _contract(kernel: np.ndarray, harmonics: np.ndarray) -> np.ndarray:
    """Tr(E_k psi psi^+ o h) for each effect of the readout whose kernel is
    `kernel` (_readout_kernel) and each row h of `harmonics` (d = -N..N on
    the last axis, leading axes kept), complex, so a non-Hermitian row such
    as the centred phasor row needs no split.

    Fourier readout: f_k^+ A f_k sums A_nm e^{-2 pi i (n-m) k / (N+1)} / (N+1),
    and the entries of psi psi^+ o h on the diagonal n - m = d sum to a_d h_d:
    fold a_d h_d mod N+1 and take one FFT.  Povm: with
    E_k = sum_r F_kr^+ F_kr the trace is sum_d h_d B_kd, where B_kd sums over
    r the autocorrelation of the probe weighted by the factor row,
    u_n = F_krn psi_n, so every row costs the product h B^T, and a stack of
    rows is a stack of such products, each computed as if alone.  Neither
    builds an (N+1)^2 matrix.
    """
    if kernel.ndim == 2:
        return harmonics @ kernel.T
    N = len(kernel) // 2
    terms = kernel * harmonics
    folded = terms[..., N:].copy()
    folded[..., 1:] += terms[..., :N]  # d = -N..-1 lands on d + N + 1
    return np.fft.fft(folded, axis=-1) / (N + 1)


def _traces(probe: SubspaceState, harmonics: np.ndarray, povm: Povm | None) -> np.ndarray:
    """Tr(E_k psi psi^+ o h) for each effect of `povm` and each row h of
    `harmonics` (_contract); povm=None is the (N+1)-point Fourier readout."""
    return _contract(_readout_kernel(probe, povm), harmonics)


def _information(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_k g_k^2 / p_k over the last axis, skipping outcomes with
    p_k <= PROB_FLOOR: the Fisher information for g = dp/dtheta, and
    sigma^2 - V for a Gaussian prior with p_k = Tr(E_k Gamma),
    g_k = Tr(E_k eta) - theta0 p_k."""
    return np.divide(g**2, p, out=np.zeros_like(p), where=p > PROB_FLOOR).sum(axis=-1)


# ---------------------------------------------------------------------------
# Local estimation

def _four_variance(weights: np.ndarray) -> float:
    """4 Var(n) under weights over n = 0..N: 4 Var(H) of a pure state with
    weights[n] on the H = n - N/2 eigenspace, as the offset cancels."""
    n = np.arange(len(weights))
    mean = float(np.dot(weights, n))
    return 4.0 * (float(np.dot(weights, n**2)) - mean**2)


def qfi_pure(probe: SubspaceState) -> float:
    """4 Var(H) over |psi_n|^2."""
    return _four_variance(probe.probabilities())


def qfi_statevector(state: StateVector) -> float:
    """4 Var(H) for a full N-qubit state under H = sum_i Z_i / 2, from
    |amps|^2 binned by the number of ones in the basis index."""
    n = state.n_qubits
    index = np.arange(2**n)
    popcount = np.zeros(2**n, dtype=np.int64)
    for k in range(n):
        popcount += (index >> k) & 1
    return _four_variance(np.bincount(popcount, np.abs(state.amps) ** 2, minlength=n + 1))


def parity_strategy(N: int, theta: float) -> tuple[float, float, float]:
    """GHZ probe with local X measurements multiplied into a parity bit.

    Returns (p(+|theta), p(-|theta), reparametrized estimator variance);
    the variance is 1/N^2 independently of theta.
    """
    if N < 1:
        raise EstimateError("N must be >= 1")
    p_plus = math.cos(N * theta / 2) ** 2
    return p_plus, 1.0 - p_plus, 1.0 / N**2


@functools.lru_cache(maxsize=64)
def _log_binomials(N: int) -> np.ndarray:
    """log C(N, m) for m = 0..N, each the log of the exact integer;
    read-only because it is shared."""
    out = np.array([math.log(math.comb(N, m)) for m in range(N + 1)])
    out.setflags(write=False)
    return out


def _outcome_law(N: int, plus, minus) -> np.ndarray:
    """C(N, m) plus^(N-m) minus^m for m = 0..N on a new last axis, one row
    per entry of the single-qubit probabilities plus and minus, as the
    exponential of log C(N, m) + (N - m) log plus + m log minus.  The two
    products are outer products whose m = N and m = 0 columns are set to 0,
    so a vanishing probability raised to the power 0 gives 1."""
    m = np.arange(N + 1.0)  # float, so the outer products run no casting loop
    with np.errstate(divide="ignore", invalid="ignore"):
        law = np.multiply.outer(np.log(plus), N - m)
        second = np.multiply.outer(np.log(minus), m)
    law[..., N] = 0.0
    second[..., 0] = 0.0
    # in place: two arrays of the law's size, whose fresh pages cost more
    # than the arithmetic at N = 200
    law += _log_binomials(N)
    law += second
    return np.exp(law, out=law)


# ---------------------------------------------------------------------------
# Bayesian machinery

@functools.lru_cache(maxsize=64)
def _row_columns(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows k = -N..N and -k^2 / 2, as floats, and -i k; read-only
    because shared."""
    k = np.arange(-N, N + 1.0)
    rows = (k, -0.5 * k**2, -1j * k)
    for row in rows:
        row.setflags(write=False)
    return rows


def _index_rows(theta0: float, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the Gaussian rows about theta0 take of k = -N..N, whatever the
    width: -k^2 / 2, the phase i theta0 k and the slope -i k."""
    k, half_square, slope = _row_columns(N)
    return half_square, 1j * theta0 * k, slope


def _gaussian_row(sigma, rows, out=None) -> np.ndarray:
    """The Gaussian characteristic row e^{-i k theta0 - k^2 sigma^2 / 2},
    k = -N..N at column k + N, as exp(sigma^2 (x) (-k^2 / 2) - i theta0 k)
    from the _index_rows of theta0.  sigma is one width or an array of
    widths; the result has shape sigma.shape + (2N + 1,)."""
    half_square, phase, _ = rows
    return np.exp(np.multiply.outer(np.square(sigma), half_square) - phase, out=out)


def _periodic_harmonics(prior: Prior, N: int) -> np.ndarray:
    """Rows h_d = int p(theta) e^{-i d theta} dtheta and the centred phasor
    harmonics c_d = int p(theta) (e^{i (theta - t0)} - 1) e^{-i d theta} dtheta
    about t0 = prior.centre, d = -N..N, as a (2, 2N + 1) array with column
    d + N.

    Gaussian and wrapped priors: h_d = e^{-i d t0 - d^2 sigma^2 / 2} and
    c_d = e^{-i d t0} (e^{-(d-1)^2 sigma^2 / 2} - e^{-d^2 sigma^2 / 2}), formed
    through expm1 so that it keeps its digits at small sigma.  At integer d
    the wrapped law's harmonics are its parent Gaussian's characteristic
    function, and an unwrapped Gaussian enters a 2 pi-periodic integrand only
    through that function, so both give these rows.  A flat prior gives
    h_d = delta_{d,0} and c_d = delta_{d,1} - delta_{d,0} about t0 = 0.
    """
    mass, t0 = _mass_row(prior, N), prior.centre
    d = np.arange(-N, N + 1)
    if prior.kind == "flat":
        return np.stack([mass, (d == 1) - mass])
    s2 = prior.sigma**2
    # e^{-(d-1)^2 s2/2} - e^{-d^2 s2/2} as the larger term times expm1 of their
    # log ratio -|2d - 1| s2 / 2, so that nothing overflows
    x = (2 * d - 1) * s2 / 2.0
    centred = (-np.sign(x) * np.exp(-1j * d * t0 - np.minimum(d**2, (d - 1) ** 2) * s2 / 2.0)
               * np.expm1(-np.abs(x)))
    return np.stack([mass, centred])


def _mass_row(prior: Prior, N: int) -> np.ndarray:
    """The row h of _periodic_harmonics alone."""
    if prior.kind == "flat":
        return (np.arange(-N, N + 1) == 0).astype(complex)
    return _gaussian_row(prior.sigma, _index_rows(prior.centre, N))


def _gaussian_harmonics(sigma, rows) -> np.ndarray:
    """int p(theta) {1, theta - theta0} e^{-i k theta} dtheta, k = -N..N, for
    a Gaussian prior of mean theta0, from the _index_rows of theta0 (reduced
    into [-pi, pi] by the caller, so the phases keep their digits): the
    characteristic row and -i k sigma^2 times it.  sigma is one width or an
    array of widths; the result has shape sigma.shape + (2, 2N + 1), column
    k + N."""
    half_square, _, slope = rows
    s2 = np.square(sigma)
    out = np.empty(np.shape(s2) + (2, len(half_square)), dtype=complex)
    char = _gaussian_row(sigma, rows, out=out[..., 0, :])
    np.multiply(slope * s2[..., None], char, out=out[..., 1, :])
    return out


def _harmonic_moments(prior: Prior, N: int) -> np.ndarray:
    """int p(theta) {1, theta, theta^2} e^{-i k theta} dtheta for k = -N..N
    and a centred row, as a (4, 2N + 1) array, column k + N: closed forms
    in the Gaussian characteristic function for a Gaussian prior with its
    mean reduced into [-pi, pi], as periodic priors are, the centred row its
    first moment about that mean (_gaussian_harmonics); otherwise the 1 row
    from _periodic_harmonics and, for a flat prior, the theta and theta^2
    rows i (-1)^k / k and 2 (-1)^k / k^2 (0 and pi^2 / 3 at k = 0), for a
    wrapped prior integrated over [-pi, pi], with the centred phasor row of
    _periodic_harmonics, so that a round builds those rows once."""
    k = np.arange(-N, N + 1)
    if prior.kind == "gaussian":
        s2, t0 = prior.sigma**2, prior.centre
        char, centred = _gaussian_harmonics(prior.sigma, _index_rows(t0, N))
        return np.stack([char, t0 * char + centred,
                         (s2 + t0**2 - 2j * t0 * k * s2 - k**2 * s2**2) * char, centred])
    if prior.kind == "flat":
        off = k != 0
        first = np.zeros(2 * N + 1, dtype=complex)
        second = np.full(2 * N + 1, math.pi**2 / 3, dtype=complex)
        first[off] = 1j * (-1.0) ** k[off] / k[off]
        second[off] = 2 * (-1.0) ** k[off] / k[off] ** 2
    else:
        def evaluate(thetas, w):
            return np.stack([thetas * w, thetas**2 * w]) @ np.exp(-1j * np.outer(thetas, k))

        first, second = _gauss_legendre_converged(prior.pdf, evaluate,
                                                  intervals=prior.rule_intervals())
    mass, centred = _periodic_harmonics(prior, N)
    return np.stack([mass, first, second, centred])


def gamma_eta(prior: Prior, probe: SubspaceState) -> tuple[np.ndarray, np.ndarray]:
    """Prior-averaged state Gamma = int p rho dtheta and first moment
    eta = int theta p rho dtheta on the subspace: psi_n psi_m* h_{n-m} for
    the 1 and theta rows of _harmonic_moments.  For a Gaussian prior these
    are Gamma_nm = psi_n psi_m* e^{-i(n-m) theta0} e^{-(n-m)^2 sigma^2 / 2}
    and eta_nm = (theta0 - i (n-m) sigma^2) Gamma_nm.  The rounds themselves
    never build these matrices; they contract the harmonics directly.
    """
    gamma, eta = _on_subspace(probe, _harmonic_moments(prior, probe.N)[:2])
    if prior.kind == "gaussian":  # its rows take the mean reduced into [-pi, pi]
        eta = eta + (prior.theta0 - prior.centre) * gamma
    return gamma, eta


@dataclass(frozen=True, eq=False)
class EstimationResult:
    labels: tuple[str, ...]
    probs: np.ndarray
    estimates: np.ndarray
    posterior_variances: np.ndarray
    avg_posterior_variance: float
    # populated for wrapped/flat priors, where the circular width is the
    # meaningful posterior measure
    holevo_variances: np.ndarray | None = None
    avg_holevo_variance: float | None = None


def bayes_round(prior: Prior, probe: SubspaceState, povm: Povm) -> EstimationResult:
    """Single-shot Bayesian update: outcome probabilities Tr(E Gamma),
    estimates Tr(E eta)/Tr(E Gamma), and posterior MSE variances.  The POVM
    must act on the probe's N + 1 dimensions.

    For Gaussian priors the average variance uses the exact simplification
    sigma^2 - sum_m gamma_m^2 / Tr(E_m Gamma), gamma_m the trace of the
    centred row of _harmonic_moments; outcomes with probability below 1e-14
    carry zero weight and are skipped.  Wrapped and flat priors also get
    Holevo variances, from the centred phasor row of _periodic_harmonics as
    in holevo_bayes_round, so they keep their digits at narrow widths.
    """
    _checked_probe(probe.N, probe, povm)
    if prior.kind == "gaussian" and prior.sigma > 1.0:
        warnings.warn("MSE phase results are unreliable for sigma > 1", MSEValidityWarning)
    # Tr(E_m X) for X = Gamma, eta, Omega = int theta^2 p rho dtheta and the
    # centred moment: the first about the mean, or the phasor's
    traces = _traces(probe, _harmonic_moments(prior, probe.N), povm)
    probs, firsts, seconds = traces[:3].real

    live = probs > PROB_FLOOR
    estimates = np.full(len(probs), np.nan)
    variances = np.full(len(probs), np.nan)
    estimates[live] = firsts[live] / probs[live]
    variances[live] = seconds[live] / probs[live] - estimates[live] ** 2

    if prior.kind == "gaussian":  # its rows take the mean reduced into [-pi, pi]
        estimates += prior.theta0 - prior.centre
        avg = prior.sigma**2 - float(_information(probs, traces[3].real))
        return EstimationResult(povm.labels, probs, estimates, variances, avg)

    avg = float(np.sum(probs[live] * variances[live]))
    weighted = _weighted_holevo(probs[live], traces[3, live])
    holevo = np.full(len(probs), np.nan)
    holevo[live] = weighted / probs[live]
    return EstimationResult(povm.labels, probs, estimates, variances, avg,
                            holevo_variances=holevo, avg_holevo_variance=float(np.sum(weighted)))


def _checked_probe(N: int, probe: SubspaceState | None, povm: Povm | None) -> SubspaceState:
    """The probe of an N-qubit round (the sine state when None), checked
    against N and against the dimension of the measurement."""
    probe = probe if probe is not None else sine_coefficients(N)
    if probe.N != N:
        raise EstimateError(f"the probe has N={probe.N}, the round N={N}")
    if povm is not None and povm.dim != N + 1:
        raise EstimateError(f"POVM dimension {povm.dim} does not match N + 1 = {N + 1}")
    return probe


#: Up to this N the tau searches take the Fourier readout as the matrix
#: _fourier_matrix, whose O(N^2) build and products beat two FFTs per width
#: there (0.18 against 0.28 ms a search at N = 40); above it they take the
#: FFTs, in O(N) memory (1.0 against 2.6 ms at N = 256, 2.9 against 57 ms
#: at N = 1024).  Between N = 60 and 130 either can win, by the factors of
#: N + 1.
_FOURIER_MATRIX_N = 80


def _gaussian_round(half: np.ndarray):
    """sigma -> the average posterior MSE of one round under a Gaussian prior
    of mean 0 and width sigma: sigma^2 - sum_k g_k^2 / p_k with
    p_k = Tr(E_k Gamma) and g_k the trace of the first moment
    (_gaussian_harmonics), for the readout whose half-spectrum kernel is
    `half`: a probe's (_half_kernel) or the parallel classical strategy's
    (_classical_kernel), K_kd at d = 0..N, shape (K, N + 1), or the Fourier
    readout's a_d, shape (N + 1,).

    Each kernel is Hermitian in d, K_{k,-d} = K_kd*, and so are the 1 row
    e^{-d^2 sigma^2 / 2} and the first-moment row, -i d sigma^2 times it,
    so the terms at d and -d of each trace are conjugates.  With
    w = (1, 2, 2, ...), p_k = sum_d e^{-d^2 sigma^2 / 2} w_d Re K_kd and
    g_k = sigma^2 sum_d e^{-d^2 sigma^2 / 2} w_d d Im K_kd over d = 0..N.
    The two real matrices w Re K and w d Im K are built once, side by side,
    for every call of the returned function; a call forms one real row per
    width and one product with them.  The Fourier readout above
    _FOURIER_MATRIX_N builds no matrix: K_kd = a_d e^{-2 pi i d k / (N+1)}
    / (N+1), so each width's sums are one length-(N + 1) FFT of
    e^{-d^2 sigma^2 / 2} w_d a_d and one of d times it.  sigma is one width
    or an array of widths, and the result has its shape: each width's row
    is a product or a pair of FFTs of its own, as a single width's is, so
    no width's value depends on which widths share its call.
    """
    N = half.shape[-1] - 1
    if half.ndim == 1 and N <= _FOURIER_MATRIX_N:
        half = _fourier_matrix(half)
    d = np.arange(N + 1.0)
    w = np.full(N + 1, 2.0)
    w[0] = 1.0
    if half.ndim == 1:
        scaled = np.empty((2, N + 1), complex)
        np.multiply(half, w / (N + 1), out=scaled[0])
        np.multiply(scaled[0], d, out=scaled[1])

        def traces(rows):
            sums = np.fft.fft(rows * scaled, axis=-1)
            return sums[..., 0, :].real, sums[..., 1, :].imag
    else:
        K = half.shape[0]
        sides = np.empty((N + 1, 2 * K))
        np.multiply(half.real.T, w[:, None], out=sides[:, :K])
        np.multiply(half.imag.T, (w * d)[:, None], out=sides[:, K:])

        def traces(rows):
            sums = (rows @ sides)[..., 0, :]
            return sums[..., :K], sums[..., K:]

    half_square = -0.5 * d**2

    def mse(sigma):
        s2 = np.square(sigma)
        p, g = traces(np.exp(np.multiply.outer(s2, half_square))[..., None, :])
        return s2 - _information(p, s2[..., None] * g)

    return mse


def qft_phase_variance(N: int, sigma: float, theta0: float = 0.0,
                       probe: SubspaceState | None = None) -> float:
    """Average posterior MSE for the probe + Fourier-basis measurement.

    Same quantity as bayes_round with qft_povm, but p_k = f_k^+ Gamma f_k and
    g_k = f_k^+ eta f_k come from the probe's autocorrelation times the
    Gaussian harmonics and one FFT (_contract): O(N^2) for the
    autocorrelation, and no (N+1)^2 matrix is built.  The width and the
    mean are checked by the Gaussian prior they make.
    """
    gaussian_prior(sigma, theta0)
    kernel = _readout_kernel(_checked_probe(N, probe, None), None)
    p, g = _contract(kernel, _gaussian_harmonics(
        sigma, _index_rows(math.remainder(theta0, 2 * math.pi), N))).real
    return float(np.square(sigma) - _information(p, g))


# ---------------------------------------------------------------------------
# Holevo phase variance

def holevo_variance(dist) -> float:
    """|<e^{i theta}>|^-2 - 1 for a circular distribution.

    Accepts a Prior (closed form e^{sigma^2} - 1 for Gaussian and wrapped
    shapes, whose mean phasors are both e^{i theta0 - sigma^2 / 2}; infinite
    for flat), a normalized pdf callable on [-pi, pi], or a (values, weights)
    pair of samples.  A vanishing mean phasor is flagged as math.inf.
    """
    if isinstance(dist, Prior):
        return math.inf if dist.kind == "flat" else math.expm1(dist.sigma**2)
    if callable(dist):
        # the mass sets the scale that the phasor, 0 for a flat law, converges to
        phasor = _gauss_legendre_converged(
            lambda ts: np.array([float(dist(t)) for t in ts]),
            lambda thetas, w: np.array([np.sum(w), w @ np.exp(1j * thetas)]))[1]
    else:
        values, weights = dist
        weights = np.asarray(weights, dtype=float)
        phasor = np.sum(weights * np.exp(1j * np.asarray(values, dtype=float))) / np.sum(weights)
    mod_sq = abs(phasor) ** 2
    if mod_sq < 1e-28:
        return math.inf
    return 1.0 / mod_sq - 1.0


def holevo_bayes_round(N: int, prior: Prior, probe: SubspaceState | None = None,
                       povm: Povm | None = None) -> float:
    """Average posterior Holevo phase variance over the measurement outcomes,
    sum_m p_m (|phi_m / p_m|^-2 - 1).

    p_m = int p(theta) P(m|theta) dtheta and its e^{i theta} moment phi_m are
    traces against the prior's closed-form harmonics (_periodic_harmonics):
    exact at any width, with no quadrature, and an unwrapped Gaussian gives
    its wrap's value.  The phasor is taken about the prior's centre t0,
    e^{-i t0} phi_m = p_m + c_m, so p_m^2 - |phi_m|^2 = -(2 p_m Re c_m + |c_m|^2)
    keeps its digits when the prior is narrow.  The default probe/POVM pair
    is the sine state with the Fourier-basis measurement (one FFT).
    """
    probe = _checked_probe(N, probe, povm)
    p, centred = _traces(probe, _periodic_harmonics(prior, N), povm)
    live = p.real > PROB_FLOOR
    return float(np.sum(_weighted_holevo(p[live].real, centred[live])))


def _weighted_holevo(p: np.ndarray, centred: np.ndarray) -> np.ndarray:
    """p_m (|phi_m / p_m|^-2 - 1) per outcome, from p_m and the trace c_m of
    the centred phasor row (e^{-i t0} phi_m = p_m + c_m):
    -p_m (2 p_m Re c_m + |c_m|^2) / |p_m + c_m|^2, in which nothing cancels
    at a narrow prior; infinite where the phasor vanishes."""
    phasor_sq = np.abs(p + centred) ** 2
    vanished = phasor_sq < 1e-28 * p**2
    return np.where(vanished, np.inf, -p * (2 * p * centred.real + np.abs(centred) ** 2)
                    / np.where(vanished, 1.0, phasor_sq))


def holevo_outcome_probabilities(N: int, prior: Prior,
                                 probe: SubspaceState | None = None) -> np.ndarray:
    """Unconditional QFT outcome distribution p(k) under a periodic prior,
    from its closed-form harmonics."""
    probe = _checked_probe(N, probe, None)
    return _traces(probe, _mass_row(prior, N), None).real


# ---------------------------------------------------------------------------
# Classical baselines and bounds

def van_trees_bound(N: int, sigma: float) -> float:
    """Lower bound sigma^2 / (1 + N sigma^2) on the average posterior MSE of
    any classical strategy with a Gaussian prior."""
    _check_width(sigma)
    return sigma**2 / (1.0 + N * sigma**2)


#: Quadrature nodes whose wrapped prior weight is below this fraction of the
#: largest one are dropped: what they would add lies far below float64
#: rounding, and at narrow priors they are most of the M nodes.
_NODE_FLOOR = 1e-40


def _node_window(N: int, sigma: float) -> tuple[int, int, int]:
    """The rule size M = N + 2 + ceil(12 / sigma) and the first and last
    index k of the kept nodes 2 pi k / M: those within 14 sigma of 0, all M
    of them once 14 sigma >= pi."""
    M = N + 2 + math.ceil(12.0 / sigma)
    reach = min(M // 2, math.floor(14 * sigma * M / (2 * math.pi)))
    return M, -reach, min(reach, M - 1 - M // 2)


def _classical_round(N: int, sigma: float) -> float:
    """sigma^2 - sum_m gamma_m^2 / p_m for the parallel classical strategy
    at one width, by a periodic trapezoid rule: the column of
    classical_parallel_curve, and the independent reference of the kernel
    that the tau search runs on (_classical_kernel).

    With the basis aligned at theta0 the outcome law of N |+> qubits is
    P(m|theta) = C(N, m) ((1 + sin theta)/2)^(N-m) ((1 - sin theta)/2)^m, a
    trigonometric polynomial of degree N.  So p_m and gamma_m are integrals
    over one period against the wrapped weights sum_k g(theta + 2 pi k) and
    sum_k (theta + 2 pi k) g(theta + 2 pi k), whose Fourier coefficients
    decay as e^{-j^2 sigma^2 / 2} (_wrapped_sums).  The trapezoid rule on
    M = N + 2 + ceil(12 / sigma) equispaced nodes is then exact up to
    aliasing below e^{-72}.  P is built from log-binomials and the
    half-angle squares (1 +- sin theta)/2 = sin^2, cos^2(theta/2 + pi/4)
    (_outcome_law), so every term is a positive float64 and nothing cancels
    before the final subtraction.

    Only the nodes within 14 sigma of 0 are built, all M of them once
    14 sigma >= pi (_node_window).  Below that, every image of a node
    farther out lies farther than 14 sigma from 0 as well, so its wrapped
    weight is under 5 e^{-98} < _NODE_FLOOR times that of the node at 0 (at
    least 1): the floor would drop it.  The weight falls with |theta| on
    [-pi, pi], so the floor keeps one run of nodes about 0, and the law is
    built on that run alone.  The kept set, its order and the sums are those
    of the rule on all M nodes, at about 53 nodes in place of 12,042 at
    sigma = 1e-3.
    """
    M, first, last = _node_window(N, sigma)
    theta = (2 * math.pi / M) * np.arange(first, last + 1)
    w0, w1 = _wrapped_sums(theta, sigma)
    live = np.flatnonzero(w0 >= _NODE_FLOOR * w0.max())
    kept = slice(live[0], live[-1] + 1)
    half = theta[kept] / 2 + math.pi / 4
    P = _outcome_law(N, np.sin(half) ** 2, np.cos(half) ** 2)
    scale = math.sqrt(2 * math.pi) / (M * sigma)  # node spacing times the Gaussian's norm
    p = scale * (w0[kept] @ P)
    gamma = scale * (w1[kept] @ P)
    # an outcome whose weight underflows to 0 would add gamma_m^2 / p_m, which
    # Cauchy-Schwarz bounds by int theta^2 g P(m|theta): it underflows too
    seen = p > 0
    return sigma**2 - float(np.sum(gamma[seen] ** 2 / p[seen]))


def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: numpy's FFT runs such a length in radix
    2, 3 and 5 passes, and one is never far above n, unlike a power of two."""
    length = n
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


def _classical_kernel(N: int) -> np.ndarray:
    """The half-spectrum readout kernel B_md of the parallel classical
    strategy (_gaussian_round), shape (N + 1, N + 1) with column d = 0..N:
    P(m|theta) = sum_{d=-N..N} B_md e^{-i d theta} for the outcome law of
    _classical_round, a trigonometric polynomial of degree N, and
    B_{m,-d} = B_md* since the law is real.  Sampled on L equispaced nodes
    2 pi j / L of the period, L > 2N, the law's rfft over the nodes is
    L B_{m,-q} = L B_mq* at q = 0..N with no alias: exact up to rounding.
    L is the least 2^a 3^b 5^c above 2N (_fft_length)."""
    L = _fft_length(2 * N + 1)
    half = (math.pi / L) * np.arange(L) + math.pi / 4
    law = _outcome_law(N, np.sin(half) ** 2, np.cos(half) ** 2)
    kernel = np.fft.rfft(law, axis=0)[:N + 1].T  # column q holds L B_{m,-q}
    np.conjugate(kernel, out=kernel)
    kernel /= L
    return kernel


def _check_classical_n(N: int) -> None:
    if not isinstance(N, (int, np.integer)):
        raise EstimateError(f"N must be an integer, got {N!r}")
    if N < 1:
        raise EstimateError("N must be >= 1")
    if N > CLASSICAL_PARALLEL_N_CAP:
        raise EstimateError(f"N={N} exceeds the cap {CLASSICAL_PARALLEL_N_CAP}")


def classical_parallel_curve(Ns, sigma: float) -> list[float]:
    """classical_parallel_variance over an N grid, for
    1 <= N <= CLASSICAL_PARALLEL_N_CAP and any width up to the largest
    interrogation time of TAU_GRID (optimize_tau_classical's range)."""
    if not 0 < sigma <= TAU_GRID[-1]:
        raise EstimateError(f"supported width range is 0 < sigma <= {TAU_GRID[-1]:g}")
    Ns = list(Ns)
    for N in Ns:
        _check_classical_n(N)
    return [_classical_round(N, sigma) for N in Ns]


def classical_parallel_variance(N: int, sigma: float) -> float:
    """Average posterior MSE of the optimal parallel classical strategy
    (|+>^N probe, per-qubit rotated-X measurements, Gaussian prior).

    The outcome weights and first moments are integrated by a periodic
    trapezoid rule that is exact for this trigonometric-polynomial outcome
    law (see _classical_round).  The derivation absorbs theta0, so
    the result does not depend on the prior mean.
    """
    return classical_parallel_curve([N], sigma)[0]


def mse_limit_curve(sigmas) -> np.ndarray:
    """Minimal achievable posterior MSE, normalized by the prior variance.

    The limiting posterior is a delta comb at 2 pi k weighted by the prior;
    V_min = N sum_k e^{-(2 pi k)^2 / 2 sigma^2} (2 pi k)^2 with the
    normalization N over the same comb, the Gaussian images of 0
    (_gaussian_images), or from _FOURIER_WIDTH on V_min / sigma^2 =
    1 - 2 sigma^2 sum_j j^2 e^{-j^2 sigma^2 / 2} / (1 + 2 sum_j e^{-j^2 sigma^2 / 2})
    (_fourier_decay), which forms no sigma^4 to overflow.
    """
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    _check_width(sigmas)
    out = []
    for sigma in sigmas:
        if sigma < _FOURIER_WIDTH:
            comb, w = _gaussian_images(np.float64(0.0), sigma)
            out.append(float(np.sum(w * comb**2)) / float(np.sum(w)) / sigma**2)
            continue
        with np.errstate(over="ignore"):  # (j sigma)^2 = inf past 1.3e154: e^-inf = 0
            j, decay = _fourier_decay(sigma)
        out.append(1 - 2 * float(np.sum(j**2 * decay)) * sigma**2 / (1 + 2 * float(np.sum(decay))))
    return np.array(out)


# ---------------------------------------------------------------------------
# Noisy-local equivalence

def dephased_rho(probe: SubspaceState, sigma: float, theta: float) -> np.ndarray:
    """Probe after Gaussian parallel dephasing of width sigma, then encoding:
    psi psi^+ o h for the Gaussian row h_d = e^{-i d theta - d^2 sigma^2 / 2}."""
    return _on_subspace(probe, _gaussian_row(sigma, _index_rows(theta, probe.N)))


def dephased_fisher_information(probe: SubspaceState, povm: Povm, sigma: float,
                                theta: float) -> float:
    """FI of the dephased probe at theta, via the analytic state derivative:
    rho is psi psi^+ o h with h the Gaussian row of dephased_rho, and
    d rho / d theta is psi psi^+ o (-i d h)."""
    d = np.arange(-probe.N, probe.N + 1)
    h = _gaussian_row(sigma, _index_rows(theta, probe.N))
    return float(_information(*_traces(probe, np.stack([h, -1j * d * h]), povm).real))


def noisy_local_equivalence_check(N: int, sigma: float, probe: SubspaceState,
                                  povm: Povm, theta0: float = 0.0) -> float:
    """|V_post(Bayes) - (sigma^2 - sigma^4 FI(dephased probe at theta0))|.

    The Gaussian-prior Bayesian update and local estimation under parallel
    Gaussian noise are two readings of the same quantities, so the residual
    should sit at numerical noise.
    """
    if sigma == 0.0:
        return 0.0
    vbar = bayes_round(gaussian_prior(sigma, theta0), probe, povm).avg_posterior_variance
    fi = dephased_fisher_information(probe, povm, sigma, theta0)
    return abs(vbar - (sigma**2 - sigma**4 * fi))


# ---------------------------------------------------------------------------
# Frequency estimation

def _frequency_objective(half: np.ndarray):
    """tau -> the average posterior frequency MSE in units of delta^2 for a
    frequency prior of width delta and the readout whose half-spectrum
    kernel is `half` (_gaussian_round): the phase MSE at prior width
    tau = t delta over tau^2, in which delta cancels, so it is no input.
    The round is prepared once, so a search calls only what depends on tau:
    one real row per time and its product or FFTs.  tau is one interrogation
    time (a float is returned) or an array of them (an array of the same
    shape, each time's value that of a call of its own)."""
    mse = _gaussian_round(half)

    def vbar(tau):
        value = mse(tau) / np.square(tau)
        return float(value) if np.ndim(value) == 0 else value

    return vbar


def frequency_round(N: int, tau, probe: SubspaceState, povm: Povm | None):
    """The frequency objective of optimize_tau (_frequency_objective) at
    one interrogation time or an array of them, each of which must be
    positive and finite."""
    tau = np.asarray(tau, dtype=float)
    _check_width(tau, "tau")
    return _frequency_objective(_half_kernel(_checked_probe(N, probe, povm), povm))(tau)


@dataclass(frozen=True)
class TauOptimum:
    """The best interrogation time tau = t delta in units of 1 / delta, the
    frequency MSE vbar there in units of delta^2, and whether tau ends the grid."""

    tau: float
    vbar: float
    boundary: bool


TAU_GRID = np.geomspace(1e-3, 20.0, 60)


def _optimize_objective(objective, grid: np.ndarray) -> TauOptimum:
    """Minimum of objective over `grid`, refined by Brent's method
    (_brent_minimize) between the neighbours of the best grid point.
    objective maps an array of interrogation times to the array of its
    values: the whole grid is one call, and the refinement calls the same
    objective on one time at a time.  An optimum at either end of the grid
    is returned as a boundary."""
    values = objective(grid)
    best = int(np.argmin(values))
    if best == 0 or best == len(grid) - 1:
        return TauOptimum(float(grid[best]), float(values[best]), boundary=True)
    tau, val = _brent_minimize(objective, float(grid[best - 1]), float(grid[best + 1]), tol=1e-6)
    if val > values[best]:
        tau, val = grid[best], values[best]
    return TauOptimum(float(tau), float(val), boundary=False)


def optimize_tau(N: int, probe: SubspaceState, povm: Povm | None) -> TauOptimum:
    """Best interrogation time in units of 1 / delta, which holds for every
    frequency prior width delta: coarse log grid in [1e-3, 20] followed by
    Brent's parabolic refinement around the best grid point (the objective is
    observed to be unimodal, but the grid guards against surprises).
    povm=None is the (N+1)-point Fourier readout."""
    half = _half_kernel(_checked_probe(N, probe, povm), povm)
    return _optimize_objective(_frequency_objective(half), TAU_GRID)


def optimize_tau_classical(N: int) -> TauOptimum:
    """Interrogation-time optimum of the parallel classical strategy; the
    frequency objective (in delta^2 units) is the phase variance at width
    tau divided by tau^2.  It is optimize_tau's objective over the
    strategy's half-spectrum kernel (_classical_kernel), built once per
    search: the whole TAU_GRID is one stacked real product, and each call of
    the refinement one more."""
    _check_classical_n(N)
    return _optimize_objective(_frequency_objective(_classical_kernel(N)), TAU_GRID)
