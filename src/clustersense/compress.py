"""Coherent unary-to-binary compression and its resource accounting.

The compressor runs N blocks.  Block k adds the unary bit u_k into a
lambda-qubit binary accumulator through a chain of half adders (Toffoli
writes the carry, CNOT adds mod 2), uncomputes the carries, coherently
erases u_k with a multi-controlled X conditioned on the binary encoding of
k, and finally shifts the binary register one wire down with lambda
nearest-neighbour swaps so the next unary bit is adjacent.

Wires are logical indices; the swap schedule is tracked so the final
position of each binary bit is known.  Semantics (not lattice layout) are
what gets verified.

Every gate is a `simcore.Gate`, an X (any controls and polarities) or a
SWAP, so the circuit permutes basis states without phases and runs on bit
rows, not amplitudes.  The N+1 images of the unary basis states
(`unary_images`) decide its action on the whole unary subspace, at any N.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .simcore import Circuit, Gate


class CompressError(Exception):
    pass


def binary_width(N: int) -> int:
    """lambda = ceil(log2(N+1)), the bits needed to hold values 0..N."""
    return max(1, math.ceil(math.log2(N + 1)))


@dataclass(frozen=True)
class CompressorLayout:
    """Wire assignments for an N-bit compressor.

    Wires 0..N-1 hold the inputs u_1..u_N; the accumulator and its carries
    start on the wires after them (`step_wires[0]`).  Each block ends with
    swaps, so the accumulator moves, and `final_binary` gives the wires
    holding bits b_0 (LSB) .. b_{lambda-1} (MSB) after all N blocks.
    """

    N: int
    lam: int
    final_binary: tuple[int, ...]
    step_wires: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    step_slices: tuple[tuple[int, int], ...] = ()

    @property
    def n_qubits(self) -> int:
        return self.N + 2 * self.lam - 1

    def final_binary_msb_first(self) -> tuple[int, ...]:
        return tuple(reversed(self.final_binary))


def make_layout(N: int) -> CompressorLayout:
    if N < 1:
        raise CompressError("N must be >= 1")
    lam = binary_width(N)
    binary = list(range(N, N + lam))
    carry = list(range(N + lam, N + 2 * lam - 1))
    steps = []
    for k in range(1, N + 1):
        u = k - 1
        steps.append((u, tuple(binary), tuple(carry)))
        # post-block swaps move the binary value onto [u, carries...];
        # the freed binary wires become the next carries, one wire retires.
        binary, carry = [u] + carry, binary[: lam - 1]
    return CompressorLayout(
        N=N,
        lam=lam,
        final_binary=tuple(binary),
        step_wires=tuple(steps),
    )


def _mcx_ladder(controls: list[int], polarity: list[int], target: int,
                ancillas: list[int]) -> list[Gate]:
    """Multi-controlled X via the standard ancilla-reusing Toffoli ladder.

    |0>-controls are X-conjugated (at most 2*lambda extra X gates); the AND
    tree costs 2(len(controls)-1) Toffolis plus a single CNOT, reusing the
    carry ancillas which are |0> at this point.
    """
    flips = [simcore.x(c) for c, p in zip(controls, polarity) if p == 0]
    m = len(controls)
    if m == 1:
        core = [simcore.cnot(controls[0], target)]
    elif m == 2:
        core = [simcore.toffoli(controls[0], controls[1], target)]
    else:
        if len(ancillas) < m - 1:
            raise CompressError("not enough ancillas for the Toffoli ladder")
        compute = [simcore.toffoli(controls[0], controls[1], ancillas[0])]
        compute += [simcore.toffoli(ancillas[i - 2], controls[i], ancillas[i - 1])
                    for i in range(2, m)]
        core = compute + [simcore.cnot(ancillas[m - 2], target)] + compute[::-1]
    return flips + core + flips


def build_step(k: int, layout: CompressorLayout) -> Circuit:
    """Block A_k: add u_k, uncompute carries, erase u_k, shift registers."""
    if not 1 <= k <= layout.N:
        raise CompressError(f"step {k} outside [1, {layout.N}]")
    u, binary, carry = layout.step_wires[k - 1]
    lam = layout.lam
    ops: list[Gate] = []

    # half-adder chain; the last digit never produces a carry, so it is a
    # plain CNOT without its own ancilla
    for i in range(lam - 1):
        carry_in = u if i == 0 else carry[i - 1]
        ops.append(simcore.toffoli(carry_in, binary[i], carry[i]))
        ops.append(simcore.cnot(carry_in, binary[i]))
    last_in = carry[lam - 2] if lam >= 2 else u
    ops.append(simcore.cnot(last_in, binary[lam - 1]))

    # uncompute carries in reverse; after the addition the carry equals
    # carry_in AND NOT new_bit, hence the negated control on the binary wire
    for i in range(lam - 2, -1, -1):
        carry_in = u if i == 0 else carry[i - 1]
        ops.append(simcore.mcx((carry_in, binary[i]), carry[i], polarity=(1, 0)))

    # erase u_k: the accumulator reads k exactly when u_k was 1
    bits = [(k >> i) & 1 for i in range(lam)]
    ops += _mcx_ladder(list(binary), bits, u, list(carry))

    # shift: u_k's wire and the carries are |0>, so lambda swaps move the
    # binary value into position for block k+1
    ops.append(simcore.swap(binary[0], u))
    ops += [simcore.swap(binary[i], carry[i - 1]) for i in range(1, lam)]
    return Circuit(layout.n_qubits, ops)


def build_compressor(N: int) -> tuple[Circuit, CompressorLayout]:
    """Concatenation of A_1..A_N on N + 2*lambda - 1 wires.

    Maps |n>_un (x) |0...0> to |binary(n)> on `layout.final_binary` with every
    other wire returned to |0>, and extends to superpositions by linearity.
    """
    layout = make_layout(N)
    ops: list = []
    slices = []
    for k in range(1, N + 1):
        step = build_step(k, layout)
        slices.append((len(ops), len(ops) + len(step.ops)))
        ops += list(step.ops)
    circuit = Circuit(layout.n_qubits, ops)
    layout = dataclasses.replace(layout, step_slices=tuple(slices))
    return circuit, layout


def classical_compress_oracle(bits: str) -> int:
    """Popcount of a valid unary string (all 1s precede all 0s)."""
    if set(bits) - {"0", "1"}:
        raise CompressError(f"not a bit string: {bits!r}")
    n = bits.count("1")
    if bits != "1" * n + "0" * (len(bits) - n):
        raise CompressError(f"not a unary encoding: {bits!r}")
    return n


def _push_bits(circuit: Circuit, bits: np.ndarray) -> np.ndarray:
    """Images of the basis states in the rows of a boolean (rows, n_qubits)
    array, column w holding wire w.  An X flips its target where every
    control matches its polarity; a SWAP, the only other kind of Gate,
    exchanges its two columns where they differ (and the controls match)."""
    wires = np.array(bits, dtype=bool).T.copy()  # one contiguous row per wire
    for op in circuit.ops:
        fires = True
        for wire, polarity in zip(op.controls, op.polarity):
            fires = fires & (wires[wire] if polarity else ~wires[wire])
        if op.kind == "X":
            wires[op.targets[0]] ^= fires
        else:
            wires[list(op.targets)] ^= fires & (wires[op.targets[0]] ^ wires[op.targets[1]])
    return wires.T


def _push_unary(circuit: Circuit, layout: CompressorLayout, unary: np.ndarray) -> np.ndarray:
    """_push_bits on (rows, N) unary-wire bits, with every other wire 0."""
    return _push_bits(circuit, np.pad(unary.astype(bool), ((0, 0), (0, layout.n_qubits - layout.N))))


def unary_images(circuit: Circuit, layout: CompressorLayout) -> np.ndarray:
    """Row n: the output bits of |1^n 0^(N-n)> (x) |0...0>, n = 0..N."""
    return _push_unary(circuit, layout, np.tri(layout.N + 1, layout.N, -1))


def compress_statevector(state: simcore.StateVector, layout: CompressorLayout,
                         circuit: Circuit) -> simcore.StateVector:
    """Embed an N-qubit unary-register state, run the compressor, check that
    all non-output wires are clean, and return the lambda-qubit result
    (MSB-first qubit order).

    Only the input's support goes through the gates, as bit rows.  The
    non-output wires are checked in descending order, like successive qubit
    drops: weight above 1e-20 on a set bit raises, and rows with it set are
    dropped.  The amplitudes land, unchanged, on their images' values.
    """
    if state.n_qubits != layout.N:
        raise CompressError("input must live on the N unary wires")
    support = np.flatnonzero(state.amps)
    amps = state.amps[support]
    images = _push_unary(circuit, layout, (support[:, None] >> np.arange(layout.N - 1, -1, -1)) & 1)
    for wire in sorted(set(range(layout.n_qubits)) - set(layout.final_binary), reverse=True):
        dirty = images[:, wire]
        if float(np.vdot(amps[dirty], amps[dirty]).real) > 1e-20:
            raise simcore.SimulationError(f"qubit {wire} is not definitely |0>")
        images, amps = images[~dirty], amps[~dirty]
    values = images[:, list(layout.final_binary_msb_first())] @ (1 << np.arange(layout.lam - 1, -1, -1))
    out = np.zeros(2**layout.lam, dtype=complex)
    out[values] = amps
    return simcore.StateVector(layout.lam, out)


# ---------------------------------------------------------------------------
# Resource accounting

@dataclass(frozen=True)
class ResourceReport:
    gate_count: int
    toffoli_count: int
    depth: int
    mbqc_qubit_estimate: int


def _is_toffoli(gate: Gate) -> bool:
    return gate.kind == "X" and len(gate.controls) == 2


def _depth_and_width(gates: tuple[Gate, ...]) -> tuple[int, int]:
    frontier: dict[int, int] = {}
    depth = 0
    touched: set[int] = set()
    for gate in gates:
        level = 1 + max((frontier.get(q, 0) for q in gate.qubits), default=0)
        for q in gate.qubits:
            frontier[q] = level
            touched.add(q)
        depth = max(depth, level)
    return depth, len(touched)


def count_resources(circuit: Circuit, step_slices: tuple[tuple[int, int], ...]) -> ResourceReport:
    """Exact gate/Toffoli/depth counts plus a measurement-based qubit estimate.

    The estimate charges each block of `step_slices` depth x width qubits (a
    block of depth d on w wires embeds in a cluster of about d*w vertices,
    teleportation wires included).
    """
    gates = circuit.ops
    estimate = 0
    for start, stop in step_slices:
        d, w = _depth_and_width(gates[start:stop])
        estimate += d * w
    depth, _ = _depth_and_width(gates)
    return ResourceReport(
        gate_count=len(gates),
        toffoli_count=sum(1 for g in gates if _is_toffoli(g)),
        depth=depth,
        mbqc_qubit_estimate=estimate,
    )
