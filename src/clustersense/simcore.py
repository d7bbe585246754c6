"""Dense state vectors and the permutation gates and circuits that
`compress` builds.  No code here applies a gate: `compress` pushes bit rows
through its gates and `mbqc` sweeps its patterns.  The dense gate kernel
that the tests use as their oracle, with its own gates beside these (H, Y,
Z, the rotations and PHASE), lives in `tests/reference.py`.  Adaptive
measurement is an `mbqc` pattern, not a circuit.

Conventions, fixed once for the whole package:

* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of
  the computational basis index (big-endian).
* Rotations use ``R_P(phi) = exp(+i phi P / 2)``, so
  ``Ry(phi) = [[cos(phi/2), sin(phi/2)], [-sin(phi/2), cos(phi/2)]]``.

States are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24

#: Branch weights below this are treated as exactly zero.  All shipped
#: patterns have branch probabilities >= 2**-20, far above it.
NULL_PROB = 1e-24


class SimulationError(Exception):
    """Contract violation in a simulator operation."""


def _check_qubits(n_qubits) -> None:
    """A qubit count is an integer in [0, MAX_QUBITS], checked before any of
    its 2**n amplitudes are allocated."""
    if not (isinstance(n_qubits, (int, np.integer)) and 0 <= n_qubits <= MAX_QUBITS):
        raise SimulationError(f"qubit count {n_qubits!r} outside [0, {MAX_QUBITS}]")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the 2**n computational basis states."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        _check_qubits(self.n_qubits)
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise SimulationError(f"amplitude vector has shape {amps.shape}, expected (2**{self.n_qubits},)")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @staticmethod
    def null(n_qubits: int) -> "StateVector":
        """All-zero state returned by zero-probability branches."""
        return StateVector(n_qubits, np.zeros(2**n_qubits, dtype=complex))


def basis_state(bits: str | int, n_qubits: int | None = None) -> StateVector:
    """Computational basis state from a bit string ('110') or a basis index
    in [0, 2**n_qubits)."""
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise SimulationError(f"not a bit string: {bits!r}")
        n, index = len(bits), int(bits, 2) if bits else 0
    else:
        if n_qubits is None:
            raise SimulationError("basis index needs an explicit qubit count")
        n, index = n_qubits, bits
    _check_qubits(n)
    if not (isinstance(index, (int, np.integer)) and 0 <= index < 2**n):
        raise SimulationError(f"basis index {index!r} outside [0, 2**{n})")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def plus_state(n_qubits: int) -> StateVector:
    _check_qubits(n_qubits)
    amps = np.full(2**n_qubits, 2.0 ** (-n_qubits / 2), dtype=complex)
    return StateVector(n_qubits, amps)


def product_state(single_qubit_states: list[np.ndarray]) -> StateVector:
    _check_qubits(len(single_qubit_states))
    amps = np.array([1.0 + 0j])
    for chi in single_qubit_states:
        chi = np.asarray(chi, dtype=complex).reshape(2)
        amps = np.kron(amps, chi)
    return StateVector(len(single_qubit_states), amps)


# ---------------------------------------------------------------------------
# Gates

@dataclass(frozen=True)
class Gate:
    """A permutation of the basis states: an X on one target or a SWAP of
    two, firing where every one of `controls` matches its `polarity`
    (1 = |1>-control)."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarity: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("X", "SWAP"):
            raise SimulationError(f"gate kind {self.kind!r} is neither X nor SWAP")
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


def x(q: int) -> Gate:
    return Gate("X", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("X", (target,), controls=(control,), polarity=(1,))


def swap(a: int, b: int) -> Gate:
    return Gate("SWAP", (a, b))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate("X", (target,), controls=(c1, c2), polarity=(1, 1))


def mcx(controls: tuple[int, ...], target: int, polarity: tuple[int, ...]) -> Gate:
    return Gate("X", (target,), controls=tuple(controls), polarity=tuple(polarity))


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

