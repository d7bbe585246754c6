"""Dense state vectors, the gate and circuit data that `compress` and `probes`
build, and the dense gate kernel the tests use as their oracle.  Adaptive
measurement is an `mbqc` pattern, not a circuit.

Conventions, fixed once for the whole package:

* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
  the computational basis index (big-endian).
* Rotation gates use ``R_P(phi) = exp(+i phi P / 2)``, so
  ``Ry(phi) = [[cos(phi/2), sin(phi/2)], [-sin(phi/2), cos(phi/2)]]``.

States are immutable; every operation returns a fresh ``StateVector``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24

#: Branch weights below this are treated as exactly zero.  All shipped
#: patterns have branch probabilities >= 2**-20, far above it.
NULL_PROB = 1e-24

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


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
    """A unitary from the fixed gate set, acting on `targets`, optionally
    conditioned on `controls` matching `polarity` (1 = |1>-control)."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarity: tuple[int, ...] = ()
    angle: float | None = None
    phases: tuple[float, float] | None = None  # PHASE: diag(e^{i a0}, e^{i a1})

    def __post_init__(self):
        if set(self.targets) & set(self.controls):
            raise SimulationError(f"gate {self.kind}: targets and controls overlap")
        if len(set(self.targets)) != len(self.targets) or len(set(self.controls)) != len(self.controls):
            raise SimulationError(f"gate {self.kind}: repeated qubit index")
        if len(self.polarity) != len(self.controls):
            raise SimulationError(f"gate {self.kind}: polarity mask length mismatch")
        if len(self.targets) != (2 if self.kind == "SWAP" else 1):
            raise SimulationError(f"gate {self.kind}: wrong target count {len(self.targets)}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def base_matrix(self) -> np.ndarray:
        """Unitary applied on the target factors (controls handled separately)."""
        kind = self.kind
        if kind == "X":
            return _X
        if kind == "Y":
            return _Y
        if kind == "Z":
            return _Z
        if kind == "H":
            return _H
        if kind in ("RX", "RY", "RZ"):
            c, s = math.cos(self.angle / 2), math.sin(self.angle / 2)
            if kind == "RX":
                return np.array([[c, 1j * s], [1j * s, c]])
            if kind == "RY":
                return np.array([[c, s], [-s, c]], dtype=complex)
            return np.array([[np.exp(1j * self.angle / 2), 0], [0, np.exp(-1j * self.angle / 2)]])
        if kind == "PHASE":
            a0, a1 = self.phases
            return np.array([[np.exp(1j * a0), 0], [0, np.exp(1j * a1)]])
        if kind == "SWAP":
            return _SWAP
        raise SimulationError(f"unknown gate kind {kind!r}")


def x(q: int) -> Gate:
    return Gate("X", (q,))


def y(q: int) -> Gate:
    return Gate("Y", (q,))


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


# ---------------------------------------------------------------------------
# Application

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
        mat = gate.base_matrix()
        for part, factor in ((zero, mat[0, 0]), (one, mat[1, 1])):
            if factor != 1:
                part *= factor
    else:
        (m00, m01), (m10, m11) = gate.base_matrix()
        for z, o in _blocks(zero, one):
            kept = z.copy()
            z *= m00
            z += m01 * o
            o *= m11
            o += m10 * kept


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Transform the state by the gate's unitary; norm is preserved."""
    for q in gate.qubits:
        if not 0 <= q < state.n_qubits:
            raise SimulationError(f"qubit index {q} out of range for {state.n_qubits} qubits")
    work = state.amps.reshape((2,) * state.n_qubits).copy()
    _apply_inplace(work, gate)
    return StateVector(state.n_qubits, work.reshape(-1))


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


def fidelity_up_to_global_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>| for equally sized states."""
    if a.n_qubits != b.n_qubits:
        raise SimulationError("states have different qubit counts")
    return float(abs(np.vdot(a.amps, b.amps)))

