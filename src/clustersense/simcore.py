"""Dense state vectors and the gate and circuit data that `compress` and
`probes` build.  No code here applies a gate: `compress` pushes bit rows
through its permutation gates, `mbqc` sweeps its patterns, and the dense gate
kernel that the tests use as their oracle lives in `tests/reference.py`.
Adaptive measurement is an `mbqc` pattern, not a circuit.

Conventions, fixed once for the whole package:

* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
  the computational basis index (big-endian).
* Rotation gates use ``R_P(phi) = exp(+i phi P / 2)``, so
  ``Ry(phi) = [[cos(phi/2), sin(phi/2)], [-sin(phi/2), cos(phi/2)]]``.

States are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24

#: Branch weights below this are treated as exactly zero.  All shipped
#: patterns have branch probabilities >= 2**-20, far above it.
NULL_PROB = 1e-24


class SimulationError(Exception):
    """Contract violation in a simulator operation."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the 2**n computational basis states."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 0 or self.n_qubits > MAX_QUBITS:
            raise SimulationError(f"qubit count {self.n_qubits} outside [0, {MAX_QUBITS}]")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise SimulationError(f"amplitude vector has shape {amps.shape}, expected (2**{self.n_qubits},)")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def is_null(self) -> bool:
        return self.norm_sq() < NULL_PROB

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    @staticmethod
    def null(n_qubits: int) -> "StateVector":
        """Flagged empty state returned by zero-probability branches."""
        return StateVector(n_qubits, np.zeros(2**n_qubits, dtype=complex))


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def basis_state(bits: str | int, n_qubits: int | None = None) -> StateVector:
    """Computational basis state from a bit string ('110') or basis index."""
    if isinstance(bits, str):
        n = len(bits)
        index = int(bits, 2) if n else 0
    else:
        if n_qubits is None:
            raise SimulationError("basis index needs an explicit qubit count")
        n, index = n_qubits, bits
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def plus_state(n_qubits: int) -> StateVector:
    amps = np.full(2**n_qubits, 2.0 ** (-n_qubits / 2), dtype=complex)
    return StateVector(n_qubits, amps)


def product_state(single_qubit_states: list[np.ndarray]) -> StateVector:
    amps = np.array([1.0 + 0j])
    for chi in single_qubit_states:
        chi = np.asarray(chi, dtype=complex).reshape(2)
        amps = np.kron(amps, chi)
    return StateVector(len(single_qubit_states), amps)


# ---------------------------------------------------------------------------
# Gates

@dataclass(frozen=True)
class Gate:
    """A unitary from the fixed gate set X, Y, Z, H, SWAP, RX, RY, RZ (by a
    finite `angle`) and PHASE (by two `phases`), acting on `targets`,
    optionally conditioned on `controls` matching `polarity` (1 = |1>-control)."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarity: tuple[int, ...] = ()
    angle: float | None = None
    phases: tuple[float, float] | None = None  # PHASE: diag(e^{i a0}, e^{i a1})

    def __post_init__(self):
        if self.kind not in ("X", "Y", "Z", "H", "SWAP", "RX", "RY", "RZ", "PHASE"):
            raise SimulationError(f"unknown gate kind {self.kind!r}")
        if set(self.targets) & set(self.controls):
            raise SimulationError(f"gate {self.kind}: targets and controls overlap")
        if len(set(self.targets)) != len(self.targets) or len(set(self.controls)) != len(self.controls):
            raise SimulationError(f"gate {self.kind}: repeated qubit index")
        if len(self.polarity) != len(self.controls):
            raise SimulationError(f"gate {self.kind}: polarity mask length mismatch")
        if len(self.targets) != (2 if self.kind == "SWAP" else 1):
            raise SimulationError(f"gate {self.kind}: wrong target count {len(self.targets)}")
        if self.kind in ("RX", "RY", "RZ") and not (
                self.angle is not None and math.isfinite(self.angle)):
            raise SimulationError(f"gate {self.kind}: needs a finite angle, got {self.angle!r}")
        if self.kind == "PHASE" and (self.phases is None or len(self.phases) != 2):
            raise SimulationError(f"gate PHASE: needs two phases, got {self.phases!r}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


def x(q: int) -> Gate:
    return Gate("X", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def h(q: int) -> Gate:
    return Gate("H", (q,))


def ry(q: int, angle: float) -> Gate:
    return Gate("RY", (q,), angle=angle)


def rz(q: int, angle: float) -> Gate:
    return Gate("RZ", (q,), angle=angle)


def phase_diag(q: int, alpha0: float, alpha1: float) -> Gate:
    return Gate("PHASE", (q,), phases=(alpha0, alpha1))


def cz(a: int, b: int) -> Gate:
    return Gate("Z", (b,), controls=(a,), polarity=(1,))


def cnot(control: int, target: int) -> Gate:
    return Gate("X", (target,), controls=(control,), polarity=(1,))


def swap(a: int, b: int) -> Gate:
    return Gate("SWAP", (a, b))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate("X", (target,), controls=(c1, c2), polarity=(1, 1))


def mcx(controls: tuple[int, ...], target: int, polarity: tuple[int, ...] | None = None) -> Gate:
    if polarity is None:
        polarity = (1,) * len(controls)
    return Gate("X", (target,), controls=tuple(controls), polarity=tuple(polarity))


def controlled(gate: Gate, control: int, polarity: int = 1) -> Gate:
    return Gate(
        gate.kind,
        gate.targets,
        controls=gate.controls + (control,),
        polarity=gate.polarity + (polarity,),
        angle=gate.angle,
        phases=gate.phases,
    )


def cry(control: int, target: int, angle: float) -> Gate:
    return controlled(ry(target, angle), control)


# ---------------------------------------------------------------------------
# Circuits

@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, Gate):
                raise SimulationError(f"unsupported circuit op {op!r}")
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise SimulationError(f"qubit index {q} out of range for {self.n_qubits} qubits")


def fidelity_up_to_global_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>| for equally sized states."""
    if a.n_qubits != b.n_qubits:
        raise SimulationError("states have different qubit counts")
    return float(abs(np.vdot(a.amps, b.amps)))

