"""Probe states on the unary-encoded subspace.

The (N+1)-dimensional subspace is spanned by |n>_un = |1>^n |0>^(N-n) for
n = 0..N.  A real nonnegative coefficient profile and N rotation angles
determine each other in closed form, psi_n = cos(phi_{n+1}/2) *
prod_{k<=n} sin(phi_k/2) with psi_N dropping the cosine;
`angles_from_amplitudes` inverts it for `mbqc.sine_pattern`.  The
controlled-Y cascade that prepares a profile from its angles as a circuit,
and the forward formula, are the tests' oracles in `tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .simcore import StateVector


class ProbeError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class SubspaceState:
    """Coefficients psi_0..psi_N over the unary basis; normalized."""

    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.N < 1:
            raise ProbeError(f"subspace size N={self.N} must be >= 1")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.N + 1,):
            raise ProbeError(f"expected {self.N + 1} coefficients, got shape {coeffs.shape}")
        if abs(np.vdot(coeffs, coeffs).real - 1.0) > 1e-12:
            raise ProbeError("coefficients are not normalized")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.coeffs) ** 2


@dataclass(frozen=True, eq=False)
class AngleSchedule:
    """Rotation angles phi_1..phi_N, each in [0, pi] so that both
    sin(phi/2) and cos(phi/2) are nonnegative."""

    N: int
    phis: np.ndarray

    def __post_init__(self):
        phis = np.asarray(self.phis, dtype=float)
        if phis.shape != (self.N,):
            raise ProbeError(f"expected {self.N} angles, got shape {phis.shape}")
        if np.any(phis < -1e-12) or np.any(phis > math.pi + 1e-12):
            raise ProbeError("angles must lie in [0, pi]")
        phis = np.clip(phis, 0.0, math.pi)
        phis.setflags(write=False)
        object.__setattr__(self, "phis", phis)


def sine_coefficients(N: int) -> SubspaceState:
    """Sinusoidal profile sqrt(2/(N+2)) * sin((n+1) pi / (N+2))."""
    if N < 1:
        raise ProbeError("N must be >= 1")
    n = np.arange(N + 1)
    coeffs = np.sqrt(2.0 / (N + 2)) * np.sin((n + 1) * math.pi / (N + 2))
    return SubspaceState(N, coeffs.astype(complex))


def angles_from_amplitudes(psi: SubspaceState) -> AngleSchedule:
    """Invert the amplitude formula for real nonnegative coefficients.

    phi_1 = 2 arccos(psi_0); phi_n = 2 arccos(psi_{n-1} / sqrt(remaining
    weight)), evaluated as 2 atan2(sqrt(remaining - psi_{n-1}^2), psi_{n-1}).
    Once the remaining weight is exhausted the later angles are
    arbitrary and are canonically set to 0.
    """
    coeffs = psi.coeffs
    if np.any(np.abs(coeffs.imag) > 1e-12) or np.any(coeffs.real < -1e-12):
        raise ProbeError("angle inversion requires real nonnegative coefficients")
    values = np.clip(coeffs.real, 0.0, None)
    # the remaining weight 1 - sum(psi_k^2, k <= n-2) is accumulated as a
    # suffix sum, which is exact for trailing zeros instead of cancelling
    suffix = np.concatenate((np.cumsum(values[::-1] ** 2)[::-1], [0.0]))
    # atan2 keeps full precision where the acos ratio nears 1, at any scale
    # of the remaining weight, and gives 0 once that weight is 0
    phis = 2.0 * np.arctan2(np.sqrt(suffix[1 : psi.N + 1]), values[: psi.N])
    return AngleSchedule(psi.N, phis)


def _unary_index(N: int, n):
    """Basis index 2^N - 2^(N-n) of |n>_un = |1>^n |0>^(N-n), for one n or an array of them."""
    return 2**N - 2 ** (N - n)


def check_dense_width(N: int) -> None:
    """An N-qubit unary state must fit the dense simulator."""
    if N > simcore.MAX_QUBITS:
        raise ProbeError(f"N={N} exceeds the dense-simulation cap {simcore.MAX_QUBITS}")


def unary_basis_state(n: int, N: int) -> StateVector:
    """|n>_un = |1>^n |0>^(N-n)."""
    if not 0 <= n <= N:
        raise ProbeError(f"unary value {n} outside [0, {N}]")
    check_dense_width(N)
    return simcore.basis_state(_unary_index(N, n), N)


def unary_embedding(psi: SubspaceState) -> StateVector:
    """Full N-qubit state sum_n psi_n |n>_un."""
    check_dense_width(psi.N)
    amps = np.zeros(2**psi.N, dtype=complex)
    amps[_unary_index(psi.N, np.arange(psi.N + 1))] = psi.coeffs
    return StateVector(psi.N, amps)


def ghz_state(N: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if not 1 <= N <= simcore.MAX_QUBITS:
        raise ProbeError(f"N={N} outside [1, {simcore.MAX_QUBITS}]")
    amps = np.zeros(2**N, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2)
    return StateVector(N, amps)


def ghz_subspace(N: int) -> SubspaceState:
    """GHZ written in the unary basis: psi_0 = psi_N = 1/sqrt(2)."""
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[0] = coeffs[N] = 1.0 / math.sqrt(2)
    return SubspaceState(N, coeffs)
