"""Cluster states and adaptive measurement patterns, verified branch by branch.

A pattern is a graph (every vertex starts in |+>, CZ on every edge, optional
injected input states), an ordered list of single-qubit measurements in the
x-y plane, and per-output correction words.  Measuring a vertex at angle phi
means applying Rz(phi) then H and reading the computational basis; one such
step on a wire teleports H Z^s Rz(phi) onto the neighbour.  Angles may flip
sign with the parity of earlier outcomes, and corrections are words of
X/Z/H factors with outcome-parity exponents, applied after all measurements.

Verification runs every outcome branch at once and checks that corrected
outputs agree with a target state or unitary.  The full cluster is never
built: a vertex joins the state, in |+> with its CZs to live neighbours,
just before it or a neighbour is measured, so the live width is the
pattern's cut width and not its vertex count.  All branches of one
measurement level share one array with a trailing branch axis; measuring a
vertex removes its axis and doubles the branches, so the sweep costs the
sum over levels of 2**(live width + depth) amplitude operations, run in
chunks of the branch axis that keep every array under _CHUNK_AMPS
amplitudes.  A single branch (`run_pattern`) is the same sweep with one
column.

Renormalizing an outcome of conditional probability p scales its rounding by
1/sqrt(p), so verification at tolerance `tol` prunes the outcomes below
`verdict_cutoff(tol)`, counts the branches pruned, and leaves their weight
out of the probability sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import probes, simcore
from .simcore import StateVector

BRANCH_ENUM_CAP = 16
#: Bound on the rounding one sweep level leaves in a branch's normalized
#: amplitudes, before the 1/sqrt(p) growth of a rare outcome.
LEVEL_ROUNDING = 1e-15


class PatternError(Exception):
    pass


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise PatternError("self-loop")
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise PatternError(f"edge ({a},{b}) references a missing vertex")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


@dataclass(frozen=True)
class AngleSpec:
    """Measurement angle `base * (-1)**(parity of sign_deps outcomes + flip)`."""

    base: float
    sign_deps: tuple[int, ...] = ()
    flip: bool = False


@dataclass(frozen=True)
class CorrectionFactor:
    """One factor of a byproduct-correction word: X/Z/H raised to the parity
    of `deps` outcomes (xor `flip`); H factors typically use flip=True."""

    kind: str
    deps: tuple[int, ...] = ()
    flip: bool = False

    def __post_init__(self):
        if self.kind not in ("X", "Z", "H"):
            raise PatternError(f"correction factor kind {self.kind!r}")


@dataclass(frozen=True)
class MeasurementPattern:
    graph: Graph
    inputs: tuple[int, ...]
    measurements: tuple[tuple[int, AngleSpec], ...]
    outputs: tuple[int, ...]
    # a dict cannot be hashed: equality compares corrections, the hash skips them
    corrections: dict[int, tuple[CorrectionFactor, ...]] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        measured = [v for v, _ in self.measurements]
        if len(set(measured)) != len(measured):
            raise PatternError("vertex measured twice")
        if set(measured) & set(self.outputs):
            raise PatternError("output vertex is measured")
        if set(measured) | set(self.outputs) != set(range(self.graph.n_vertices)):
            raise PatternError("every vertex must be measured or an output")
        seen: set[int] = set()
        for v, spec in self.measurements:
            if any(d not in seen for d in spec.sign_deps):
                raise PatternError(f"angle of vertex {v} depends on a later outcome")
            seen.add(v)
        for out, word in self.corrections.items():
            if out not in self.outputs:
                raise PatternError(f"correction on non-output vertex {out}")
            for factor in word:
                if any(d not in seen for d in factor.deps):
                    raise PatternError("correction depends on an unmeasured vertex")

    @property
    def n_measured(self) -> int:
        return len(self.measurements)


def _parity(bits: np.ndarray, deps: tuple[int, ...], flip: bool) -> np.ndarray:
    """Per-branch parity of the outcomes of the `deps` vertices, xor `flip`."""
    parity = np.full(len(bits), bool(flip))
    for v in deps:
        parity ^= bits[:, v]
    return parity


def verdict_cutoff(tol: float) -> float:
    """Smallest conditional outcome probability whose branch fidelity is
    resolved to `tol`: (LEVEL_ROUNDING / tol)**2, and never below
    simcore.NULL_PROB.  A tol at or below LEVEL_ROUNDING resolves no branch and is refused."""
    if not tol > LEVEL_ROUNDING:
        raise PatternError(f"tol {tol:g} must exceed the sweep's rounding bound {LEVEL_ROUNDING:g}")
    return max(simcore.NULL_PROB, (LEVEL_ROUNDING / tol) ** 2)


#: Largest array, in amplitudes, that one sweep level writes: a level whose
#: result would be larger runs its branch axis in halves, depth-first.
_CHUNK_AMPS = 2**15


@dataclass(frozen=True)
class _Level:
    """One step of a sweep: vertices join the state, then one is measured.

    Each join is a vertex and the axes of its live neighbours at the time it
    joins; `axis` is the measured vertex's axis (None for the closing step
    that adds outputs no measurement reached) and `width` the number of live
    vertex axes once the joins are done.
    """

    joins: tuple[tuple[int, tuple[int, ...]], ...]
    axis: int | None
    width: int


def _plan(pattern: MeasurementPattern) -> tuple[list[_Level], list[int]]:
    """The levels of a lazy sweep and the final axis of each output.

    Before vertex v is measured, v and its neighbours that have not joined
    yet join the state; each new vertex is appended after the live axes, so
    every edge is entangled once both of its ends are live, and every edge of
    v before v is measured.  Outputs that no measurement reached join last.
    """
    neighbours: dict[int, set[int]] = {v: set() for v in range(pattern.graph.n_vertices)}
    for a, b in pattern.graph.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    live: list[int] = []
    joined: set[int] = set()

    def join(vertices) -> tuple[tuple[int, tuple[int, ...]], ...]:
        joins = []
        for v in vertices:
            joins.append((v, tuple(live.index(u) for u in sorted(neighbours[v]) if u in live)))
            live.append(v)
            joined.add(v)
        return tuple(joins)

    levels = []
    for vertex, _ in pattern.measurements:
        joins = join(sorted(({vertex} | neighbours[vertex]) - joined))
        levels.append(_Level(joins, live.index(vertex), len(live)))
        live.remove(vertex)
    joins = join([v for v in pattern.outputs if v not in joined])
    levels.append(_Level(joins, None, len(live)))
    width = max(level.width for level in levels)
    if width > simcore.MAX_QUBITS:
        raise PatternError(f"{width} live vertices at once exceed the dense-simulation cap "
                           f"{simcore.MAX_QUBITS}")
    return levels, [live.index(v) for v in pattern.outputs]


def _sweep_chunks(pattern: MeasurementPattern, injected: dict[int, np.ndarray] | None,
                  assignment: tuple[int, ...] | None = None,
                  cutoff: float = simcore.NULL_PROB,
                  plan: tuple[list[_Level], list[int]] | None = None):
    """Run every outcome branch of `pattern`, one measurement level at a time,
    and yield the corrected branch states in chunks.

    The state is a (2,)*m + (B,) array: one axis per live vertex, then a
    branch axis whose column b is the branch whose outcome bits, in
    measurement order, spell b big-endian.  A level adds its joining
    vertices in |+> (or their injected kets), each with a sign flip on the
    half where it and a live neighbour both read 1 (the CZ), then rotates
    the measured axis by each branch's adapted angle and writes both
    outcomes (or only the one `assignment` fixes) into one new array without
    that axis, so B doubles; branches whose outcome had conditional
    probability below `cutoff` are dropped.  The byproduct corrections fire
    per column at the end.

    A level whose result would exceed _CHUNK_AMPS amplitudes runs the two
    halves of the branch axis one after the other, depth-first, so chunks
    arrive in branch order.  Each yield is (states, probs): the chunk's
    corrected states, output axes in `pattern.outputs` order followed by
    the branch axis, and the probability of each branch.  `plan` is
    `_plan(pattern)` when the caller has it already.
    """
    levels, out_axes = plan or _plan(pattern)
    kets = {v: np.asarray(ket, dtype=complex) for v, ket in (injected or {}).items()}
    n = pattern.graph.n_vertices
    # per pending chunk: its next level, state, per-branch outcome bits of
    # every vertex, and branch probabilities
    stack = [(0, np.ones(1, dtype=complex), np.zeros((1, n), dtype=bool), np.ones(1))]
    while stack:
        depth, psi, bits, probs = stack.pop()
        if depth == len(levels):
            yield _corrected(pattern, psi, bits, out_axes), probs
            continue
        level = levels[depth]
        size = 2**level.width * len(probs)
        if level.axis is not None:
            outcomes = (0, 1) if assignment is None else (assignment[depth],)
            size = size // 2 * len(outcomes)
        if len(probs) > 1 and size > _CHUNK_AMPS:
            # the halves are views of disjoint columns, so a level may
            # write into one of them in place without touching the other
            half = len(probs) // 2
            stack.append((depth, psi[..., half:], bits[half:], probs[half:]))
            stack.append((depth, psi[..., :half], bits[:half], probs[:half]))
            continue
        for vertex, nbr_axes in level.joins:
            ket = kets.get(vertex, _KETP)
            grown = np.empty(psi.shape[:-1] + (2,) + psi.shape[-1:], dtype=complex)
            np.multiply(psi, ket[0], out=grown[..., 0, :])
            one = grown[..., 1, :]
            np.multiply(psi, ket[1], out=one)
            for axis in nbr_axes:
                flip = one[(slice(None),) * axis + (1,)]
                np.negative(flip, out=flip)
            psi = grown
        if level.axis is not None:
            psi, bits, probs = _measure(psi, bits, probs, level.axis, pattern.measurements[depth],
                                        outcomes, cutoff)
            if not len(probs):
                continue
        stack.append((depth + 1, psi, bits, probs))


def _measure(psi: np.ndarray, bits: np.ndarray, probs: np.ndarray, axis: int,
             measurement: tuple[int, AngleSpec], outcomes: tuple[int, ...], cutoff: float):
    """Measure the vertex on `axis` on every branch: the state without that
    axis and with len(outcomes) columns per branch, and the grown bits and
    probabilities, less the branches whose outcome fell below `cutoff`."""
    vertex, spec = measurement
    zero, one = np.moveaxis(psi, axis, 0)  # views of the two halves
    # Rz(phi) = diag(e^{i phi/2}, e^{-i phi/2}), then H without its 1/sqrt2:
    # halving the squared norms instead keeps the probabilities unbiased
    if spec.base:
        angle = np.where(_parity(bits, spec.sign_deps, spec.flip), -spec.base, spec.base)
        phase = np.exp(0.5j * angle)
        zero *= phase
        one *= phase.conj()
    rotated = np.empty(zero.shape + (len(outcomes),), dtype=complex)
    for k, bit in enumerate(outcomes):
        (np.subtract if bit else np.add)(zero, one, out=rotated[..., k])
    psi = rotated.reshape(zero.shape[:-1] + (-1,))
    flat = psi.reshape(-1, psi.shape[-1])
    p = (np.einsum("kb,kb->b", flat.real, flat.real)
         + np.einsum("kb,kb->b", flat.imag, flat.imag)) / 2
    bits = np.repeat(bits, len(outcomes), axis=0)
    for k, bit in enumerate(outcomes):
        bits[k::len(outcomes), vertex] = bit
    probs = np.repeat(probs, len(outcomes))
    keep = p >= cutoff
    if not keep.all():
        psi, p, bits, probs = psi[..., keep], p[keep], bits[keep], probs[keep]
    psi /= np.sqrt(2 * p)
    return psi, bits, probs * p


def _corrected(pattern: MeasurementPattern, psi: np.ndarray, bits: np.ndarray,
               out_axes: list[int]) -> np.ndarray:
    """Fire each output's correction word per branch column, then order the
    output axes as `pattern.outputs`, the branch axis last."""
    for out, axis in zip(pattern.outputs, out_axes):
        zero, one = np.moveaxis(psi, axis, 0)
        for factor in pattern.corrections.get(out, ()):
            fires = _parity(bits, factor.deps, factor.flip)
            if factor.kind == "Z":
                np.negative(one, out=one, where=fires)
            elif factor.kind == "X":
                kept = zero.copy()
                np.copyto(zero, one, where=fires)
                np.copyto(one, kept, where=fires)
            else:
                kept = zero / math.sqrt(2)
                np.divide(one, math.sqrt(2), out=one, where=fires)
                np.add(kept, one, out=zero, where=fires)
                np.subtract(kept, one, out=one, where=fires)
    return psi.transpose(out_axes + [len(out_axes)])


def run_pattern(pattern: MeasurementPattern, outcome_assignment: tuple[int, ...],
                injected: dict[int, np.ndarray] | None = None) -> tuple[StateVector, float]:
    """Execute one outcome branch and return the corrected output state and
    the branch probability.

    Measured qubits are removed, so the result lives on the output vertices
    in `pattern.outputs` order.  The branch is a sweep by `_sweep_chunks`
    with every outcome fixed: it keeps one column, so it arrives as one
    chunk, or as none when an outcome has probability below
    simcore.NULL_PROB, and such a null branch returns a flagged null state.
    """
    if len(outcome_assignment) != pattern.n_measured:
        raise PatternError(f"expected {pattern.n_measured} outcomes")
    for bit in outcome_assignment:
        if bit not in (0, 1):
            raise simcore.SimulationError(f"outcome must be a bit, got {bit!r}")
    k = len(pattern.outputs)
    for states, probs in _sweep_chunks(pattern, injected, outcome_assignment):
        return StateVector(k, states[..., 0].reshape(-1)), float(probs[0])
    return StateVector.null(k), 0.0


@dataclass(frozen=True)
class VerifyReport:
    pattern_vertices: int
    branches: int  #: the fewest outcome branches kept by any input case
    min_fidelity: float
    probability_sum: float
    passed: bool
    #: outcome branches left out, summed over the input cases: a conditional
    #: probability below verdict_cutoff(tol) on their path
    pruned: int = 0

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.pattern_vertices} vertices, {self.branches} branches: "
                f"min fidelity {self.min_fidelity:.12f}, probability sum "
                f"{self.probability_sum:.12f} -> {status}")


def verify_pattern(pattern: MeasurementPattern,
                   target: StateVector | np.ndarray,
                   input_states: list[list[np.ndarray]] | None = None,
                   tol: float = 1e-10) -> VerifyReport:
    """Branch-exhaustive check of a pattern against a target.

    `target` is either the expected output StateVector (for patterns without
    inputs) or a unitary matrix on the input qubits, in which case a fiducial
    set of product input states is driven through the pattern (a supplied
    `input_states` list overrides the default fiducials).

    Branches whose fidelity would rest on rounding (see `verdict_cutoff`)
    are pruned and counted in `pruned`; their weight stays out of
    `probability_sum`, which must still be within 1e-10 of 1.
    """
    if pattern.n_measured > BRANCH_ENUM_CAP:
        raise PatternError(
            f"{pattern.n_measured} measured vertices exceed the 2**{BRANCH_ENUM_CAP} enumeration cap")

    cases: list[tuple[dict[int, np.ndarray] | None, StateVector]] = []
    if isinstance(target, StateVector):
        cases.append((None, target))
    else:
        unitary = np.asarray(target, dtype=complex)
        k = len(pattern.inputs)
        if unitary.shape != (2**k, 2**k):
            raise PatternError(f"target unitary shape {unitary.shape} does not match {k} inputs")
        for combo in input_states if input_states is not None else _fiducial_inputs(k):
            injected = dict(zip(pattern.inputs, combo))
            in_state = simcore.product_state(list(combo))
            out = unitary @ in_state.amps
            cases.append((injected, StateVector(k, out)))

    n_out = len(pattern.outputs)
    plan = _plan(pattern)
    min_fid = 1.0
    worst_total = 1.0
    branches = 2**pattern.n_measured
    pruned = 0
    for injected, expected in cases:
        if expected.n_qubits != n_out:
            raise PatternError(f"target has {expected.n_qubits} qubits, the pattern {n_out} outputs")
        bra = expected.amps.conj().reshape((2,) * n_out)
        kept, total = 0, 0.0
        for states, probs in _sweep_chunks(pattern, injected, cutoff=verdict_cutoff(tol), plan=plan):
            overlaps = np.einsum(states, list(range(n_out + 1)), bra, list(range(n_out)), [n_out])
            min_fid = min(min_fid, float(np.abs(overlaps).min(initial=1.0)))
            total += float(probs.sum())
            kept += len(probs)
        branches = min(branches, kept)
        pruned += 2**pattern.n_measured - kept
        if abs(total - 1.0) >= abs(worst_total - 1.0):
            worst_total = total
    passed = (min_fid >= 1.0 - tol) and (abs(worst_total - 1.0) <= 1e-10)
    return VerifyReport(pattern.graph.n_vertices, branches, min_fid, worst_total, passed, pruned)


_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_KETP = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
_KETIP = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2)


def _fiducial_inputs(k: int) -> list[list[np.ndarray]]:
    """Product states sufficient to pin down a unitary up to global phase."""
    if k == 0:
        return [[]]
    singles = [_KET0, _KET1, _KETP, _KETIP]
    if k == 1:
        return [[s] for s in singles]
    combos: list[list[np.ndarray]] = []
    for i in range(2**k):
        combos.append([_KET1 if (i >> (k - 1 - j)) & 1 else _KET0 for j in range(k)])
    combos.append([_KETP] * k)
    combos.append([_KETIP] + [_KETP] * (k - 1))
    combos.append([_KETP] * (k - 1) + [_KETIP])
    return combos


# ---------------------------------------------------------------------------
# Shipped patterns

def teleport_pattern(phi: float) -> MeasurementPattern:
    """One teleportation step: input on vertex 0, measured at angle phi.

    The corrected output is H Rz(phi) |psi> — the Hadamard is intrinsic to a
    single step, only the Pauli byproduct X^s is corrected.
    """
    return MeasurementPattern(
        graph=path_graph(2),
        inputs=(0,),
        measurements=((0, AngleSpec(phi)),),
        outputs=(1,),
        corrections={1: (CorrectionFactor("X", deps=(0,)),)},
    )


def teleport_unitary(phi: float) -> np.ndarray:
    """Matrix implemented by teleport_pattern: H Rz(phi)."""
    rz = np.array([[np.exp(1j * phi / 2), 0], [0, np.exp(-1j * phi / 2)]])
    return np.array([[1, 1], [1, -1]]) / math.sqrt(2) @ rz


def y_rotation_pattern(phi: float) -> MeasurementPattern:
    """Ry(phi) on a 4-vertex wire (input vertex 0, output vertex 3): one
    rotation block on a bare input carrier.

    Angles pi/2, (-1)^{s0} phi, (-1)^{s1+1} pi/2; corrected by X^{s0+s2}
    Z^{s1} and the trailing H, which together undo the byproduct
    X^{s0+s2} Z^{s1} H.
    """
    builder = _PatternBuilder()
    out = _rotation_block(builder, _Carrier(vertex=builder.new_vertex()), phi)
    return builder.pattern(inputs=(0,), carriers=[out])


def ry_matrix(phi: float) -> np.ndarray:
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    return np.array([[c, s], [-s, c]], dtype=complex)


def cnot_pattern() -> MeasurementPattern:
    """Effective CNOT on four vertices of a 2D cluster.

    Vertex 0 is the control (input and output), vertex 1 the target input,
    vertex 3 the target output; 1 and 2 are measured at angle 0.
    """
    graph = Graph(4, frozenset({(1, 2), (2, 3), (0, 2)}))
    return MeasurementPattern(
        graph=graph,
        inputs=(0, 1),
        measurements=((1, AngleSpec(0.0)), (2, AngleSpec(0.0))),
        outputs=(0, 3),
        corrections={
            0: (CorrectionFactor("Z", deps=(1,)),),
            3: (CorrectionFactor("X", deps=(2,)), CorrectionFactor("Z", deps=(1,))),
        },
    )


CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def ghz_pattern(N: int) -> MeasurementPattern:
    """GHZ state of N qubits from a 1D cluster of 2N-1 vertices.

    The odd vertices are measured at angle 0; output vertex 2m is flipped
    when the running outcome parity s_1 + ... + s_m is odd.
    """
    if N < 2:
        raise PatternError("GHZ pattern needs N >= 2")
    graph = path_graph(2 * N - 1)
    measurements = tuple((v, AngleSpec(0.0)) for v in range(1, 2 * N - 1, 2))
    corrections = {}
    for m in range(1, N):
        deps = tuple(range(1, 2 * m, 2))
        corrections[2 * m] = (CorrectionFactor("X", deps=deps),)
    return MeasurementPattern(
        graph=graph,
        inputs=(),
        measurements=measurements,
        outputs=tuple(range(0, 2 * N - 1, 2)),
        corrections=corrections,
    )


# -- sine-state pattern ------------------------------------------------------
#
# The preparation cascade (one Y-rotation per probe qubit, each controlled on
# its predecessor) is compiled wire by wire.  Every rotation uses a block of
# three measured vertices; a controlled rotation becomes
# rotate(-phi/2) . CZ . rotate(+phi/2) using the cluster's own vertical edge,
# and one extra angle-0 vertex per non-final wire clears the block's Hadamard
# byproduct so the wire can act as a control.  Byproduct bookkeeping uses the
# step identity (measure at alpha => H Z^s Rz(alpha)) and the usual
# Pauli/H/CZ commutation rules; the outcome is validated branch-exhaustively.


class _PatternBuilder:
    def __init__(self):
        self.n_vertices = 0
        self.edges: set[tuple[int, int]] = set()
        self.measurements: list[tuple[int, AngleSpec]] = []

    def new_vertex(self, attach_to: int | None = None) -> int:
        v = self.n_vertices
        self.n_vertices += 1
        if attach_to is not None:
            self.edges.add((attach_to, v))
        return v

    def measure(self, vertex: int, spec: AngleSpec) -> None:
        self.measurements.append((vertex, spec))

    def pattern(self, inputs: tuple[int, ...], carriers: list[_Carrier]) -> MeasurementPattern:
        """The pattern built so far, with each carrier an output corrected
        by its byproduct word."""
        return MeasurementPattern(
            graph=Graph(self.n_vertices, frozenset(self.edges)),
            inputs=inputs,
            measurements=tuple(self.measurements),
            outputs=tuple(c.vertex for c in carriers),
            corrections={c.vertex: _correction_word(c) for c in carriers},
        )


def _xor(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(a) ^ set(b)))


@dataclass
class _Carrier:
    """A live wire end: its vertex and the accumulated byproduct
    X^(x deps) Z^(z deps) (H^has_h) in front of the logical state."""

    vertex: int
    x_deps: tuple[int, ...] = ()
    z_deps: tuple[int, ...] = ()
    has_h: bool = False


def _rotation_block(builder: _PatternBuilder, carrier: _Carrier, chi: float) -> _Carrier:
    """Append three measured vertices realizing logical Ry(chi) on the carrier.

    Input byproduct X^c Z^d is absorbed by adapting the three angles
    ((-1)^c pi/2, (-1)^{t1+d} chi, (-1)^{t2+c+1} pi/2); the new byproduct is
    X^{t1+t3+d} Z^{t2+c} H.
    """
    if carrier.has_h:
        raise PatternError("rotation block requires an H-free carrier")
    q1 = carrier.vertex
    q2 = builder.new_vertex(attach_to=q1)
    q3 = builder.new_vertex(attach_to=q2)
    out = builder.new_vertex(attach_to=q3)
    builder.measure(q1, AngleSpec(math.pi / 2, sign_deps=carrier.x_deps))
    builder.measure(q2, AngleSpec(chi, sign_deps=_xor((q1,), carrier.z_deps)))
    builder.measure(q3, AngleSpec(math.pi / 2, sign_deps=_xor((q2,), carrier.x_deps), flip=True))
    return _Carrier(
        vertex=out,
        x_deps=_xor(_xor((q1,), (q3,)), carrier.z_deps),
        z_deps=_xor((q2,), carrier.x_deps),
        has_h=True,
    )


def _hadamard_fixup(builder: _PatternBuilder, carrier: _Carrier) -> _Carrier:
    """One angle-0 step; cancels the carrier's H byproduct (X and Z swap)."""
    if not carrier.has_h:
        raise PatternError("fixup expects an H byproduct")
    q = carrier.vertex
    out = builder.new_vertex(attach_to=q)
    builder.measure(q, AngleSpec(0.0))
    return _Carrier(
        vertex=out,
        x_deps=_xor((q,), carrier.z_deps),
        z_deps=carrier.x_deps,
        has_h=False,
    )


def _correction_word(carrier: _Carrier) -> tuple[CorrectionFactor, ...]:
    word = [CorrectionFactor("X", deps=carrier.x_deps), CorrectionFactor("Z", deps=carrier.z_deps)]
    if carrier.has_h:
        word.append(CorrectionFactor("H", flip=True))
    return tuple(f for f in word if f.deps or f.flip)


def sine_pattern(N: int) -> MeasurementPattern:
    """Measurement pattern preparing the N-qubit sine probe from a bare cluster.

    Uses 8N-5 vertices for N >= 2 (4 for N=1), within the 3*(4N-2) budget of
    a three-row cluster strip.
    """
    if N < 1:
        raise PatternError("N must be >= 1")
    phis = probes.angles_from_amplitudes(probes.sine_coefficients(N)).phis
    builder = _PatternBuilder()
    carriers: list[_Carrier] = []

    # wire 1: |+> --block--> G(phi_1)|0>; the block's H byproduct is absorbed
    # by the |+> input (H Ry(chi) |+> = Ry(-chi)|0>), leaving X/Z only
    first = _Carrier(vertex=builder.new_vertex())
    blk = _rotation_block(builder, first, phis[0])
    carriers.append(_Carrier(blk.vertex, blk.x_deps, blk.z_deps, has_h=False))

    for k in range(2, N + 1):
        phi = phis[k - 1]
        # pre-rotation on a fresh wire: |+> -> G(-phi/2)|0>
        fresh = _Carrier(vertex=builder.new_vertex())
        pre = _rotation_block(builder, fresh, -phi / 2)
        pre = _Carrier(pre.vertex, pre.x_deps, pre.z_deps, has_h=False)
        # vertical edge to the previous wire = the logical CZ of the cascade;
        # each side picks up a Z with the partner's X parity
        prev = carriers[-1]
        builder.edges.add((prev.vertex, pre.vertex))
        carriers[-1] = _Carrier(prev.vertex, prev.x_deps, _xor(prev.z_deps, pre.x_deps), prev.has_h)
        pre = _Carrier(pre.vertex, pre.x_deps, _xor(pre.z_deps, prev.x_deps), False)
        # post-rotation completes C[G(phi)] (target starts in |0>)
        post = _rotation_block(builder, pre, -phi / 2)
        if k < N:
            post = _hadamard_fixup(builder, post)
        carriers.append(post)

    return builder.pattern(inputs=(), carriers=carriers)


def sine_pattern_vertex_budget(N: int) -> int:
    """Vertex allowance 3*(4N-2) of the three-row cluster strip."""
    return 3 * (4 * N - 2)


# ---------------------------------------------------------------------------
# Serialization (line-oriented, for golden-file tests)

def _deps_str(deps: tuple[int, ...], flip: bool) -> str:
    parts = ",".join(str(d) for d in deps) if deps else "-"
    return f"{parts}^1" if flip else parts


def pattern_to_text(pattern: MeasurementPattern) -> str:
    lines = [f"vertices {pattern.graph.n_vertices}"]
    lines += [f"edge {a} {b}" for a, b in sorted(pattern.graph.edges)]
    lines += [f"input {v}" for v in pattern.inputs]
    for v, spec in pattern.measurements:
        lines.append(f"measure {v} base={spec.base!r} sign={_deps_str(spec.sign_deps, spec.flip)}")
    for v in pattern.outputs:
        word = ";".join(f"{f.kind}:{_deps_str(f.deps, f.flip)}"
                        for f in pattern.corrections.get(v, ()))
        lines.append(f"output {v} correct={word or '-'}")
    return "\n".join(lines) + "\n"
