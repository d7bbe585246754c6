"""Cluster states and adaptive measurement patterns, verified branch by branch.

A pattern is a graph (every vertex starts in |+>, CZ on every edge, optional
injected input states), an ordered list of single-qubit measurements in the
x-y plane, and one byproduct per output.  Measuring a vertex at angle phi
means applying Rz(phi) then H and reading the computational basis; one such
step on a wire teleports H Z^s Rz(phi) onto the neighbour.  An angle is a
signed base that flips sign with the parity of earlier outcomes (AngleSpec).
An output's byproduct says that it holds X^x Z^z H^h times its logical
state, with x and z parities of earlier outcomes and h a constant (Danos,
Kashefi & Panangaden, JACM 54, 2007); after all measurements it is undone
as X^x, then Z^z, then H.

Verification runs every outcome branch at once and checks that corrected
outputs agree with a target state or unitary.  The full cluster is never
built: a vertex joins the state, in |+> with its CZs to live neighbours,
just before it or a neighbour is measured, so the live width is the
pattern's cut width and not its vertex count.  All branches of one
measurement level, for every input case, share one array with a trailing
branch axis; measuring a vertex removes its axis and doubles the branches,
so the sweep costs the sum over levels of 2**(live width + depth)
amplitude operations, run in chunks of the branch axis that keep every
array under _CHUNK_AMPS amplitudes, in one workspace taken per sweep.  The
Pauli part of each byproduct is undone as a per-branch frame.  A single branch
(`run_pattern`) is the same sweep with one column.

Renormalizing an outcome of conditional probability p scales its rounding by
1/sqrt(p), so verification at tolerance `tol` prunes the outcomes below
`verdict_cutoff(tol)`, counts the branches pruned, and leaves their weight
out of the probability sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    """Measurement angle `base * (-1)**(parity of sign_deps outcomes)`."""

    base: float
    sign_deps: tuple[int, ...] = ()


@dataclass(frozen=True)
class Byproduct:
    """The byproduct of one output: it holds X^(parity of the x outcomes)
    Z^(parity of the z outcomes) H^h times its logical state, so the sweep
    undoes X, then Z, then H.  A vertex listed twice cancels."""

    x: tuple[int, ...] = ()
    z: tuple[int, ...] = ()
    h: bool = False


@dataclass(frozen=True)
class MeasurementPattern:
    graph: Graph
    inputs: tuple[int, ...]
    measurements: tuple[tuple[int, AngleSpec], ...]
    outputs: tuple[int, ...]
    # a dict cannot be hashed: equality compares corrections, the hash skips them
    corrections: dict[int, Byproduct] = field(default_factory=dict, hash=False)

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
            if any(d not in seen for d in _checked_deps(spec.sign_deps)):
                raise PatternError(f"angle of vertex {v} depends on a later outcome")
            seen.add(v)
        for out, byproduct in self.corrections.items():
            if out not in self.outputs:
                raise PatternError(f"correction on non-output vertex {out}")
            if not isinstance(byproduct, Byproduct):
                raise PatternError(f"correction of vertex {out} is not a Byproduct")
            if any(d not in seen for d in _checked_deps(byproduct.x) + _checked_deps(byproduct.z)):
                raise PatternError("correction depends on an unmeasured vertex")

    @property
    def n_measured(self) -> int:
        return len(self.measurements)


def _checked_deps(deps) -> tuple[int, ...]:
    """`deps`, refused unless it is a tuple of vertex numbers."""
    if isinstance(deps, tuple) and all(isinstance(d, int) for d in deps):
        return deps
    raise PatternError(f"a dependency list must be a tuple of vertex numbers, got {deps!r}")


class _Parities:
    """The outcome parities a sweep reads, packed as bits per branch column.

    Bit r of a column's words is the parity of the outcomes of one
    dependency list, an adapted angle's `sign_deps` or a byproduct's `x` or
    `z`: measuring vertex v flips, on the columns that read 1, every bit
    whose list holds v, so reading a parity is reading a bit.  A vertex
    listed twice flips its bit twice, and no vertex flips the bit of the
    empty list.  A row after the bits holds each column's input case, which
    no flip touches.
    """

    def __init__(self, pattern: MeasurementPattern):
        deps_lists = [spec.sign_deps for _, spec in pattern.measurements if spec.base]
        deps_lists += [deps for byproduct in pattern.corrections.values()
                       for deps in (byproduct.x, byproduct.z)]
        self._bit: dict[tuple[int, ...], int] = {}
        masks = {v: 0 for v, _ in pattern.measurements}
        for deps in deps_lists:
            if deps not in self._bit:
                self._bit[deps] = bit = len(self._bit)
                for v in deps:
                    masks[v] ^= 1 << bit
        self.rows = -(-len(self._bit) // 64) + 1
        words = np.zeros((len(masks), self.rows), dtype=np.uint64)
        for r in range(self.rows - 1):
            words[:, r] = [mask >> 64 * r & 2**64 - 1 for mask in masks.values()]
        #: per measured vertex, the words its outcome 1 flips
        self.flips = dict(zip(masks, words.view(np.int64)[:, :, None]))

    def read(self, words: np.ndarray, deps: tuple[int, ...]) -> np.ndarray:
        """Per-column parity, 0 or 1, of the outcomes of the `deps` vertices."""
        bit = self._bit[deps]
        return words[bit // 64] >> bit % 64 & 1


@dataclass(frozen=True)
class _Columns:
    """Per branch column of a sweep chunk: its probability, and its words
    of `_Parities`, the last of them its input case."""

    probs: np.ndarray
    words: np.ndarray

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, index) -> _Columns:
        return _Columns(self.probs[index], self.words[:, index])

    @property
    def cases(self) -> np.ndarray:
        return self.words[-1]


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


class _Workspace:
    """The arrays a sweep writes its levels into: one block, taken once per
    sweep and carved into slots, so that levels and chunks take no fresh
    pages.

    Slot d holds what the level at depth d - 1 writes.  A pending half of a
    branch axis is a view of its depth's slot, and only the level above
    writes that slot again, after both halves are done.  Slot -1 holds the
    state a level's joins make before it measures, and slot -2 the scratch
    of one half that the corrections use.
    """

    def __init__(self, sizes: dict[int, int]):
        block = np.empty(sum(sizes.values()), dtype=complex)
        self._slots = {}
        offset = 0
        for slot, size in sizes.items():
            self._slots[slot] = block[offset:offset + size]
            offset += size

    def array(self, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        return self._slots[slot][:math.prod(shape)].reshape(shape)


def _slot_sizes(levels: list[_Level], n_cases: int, n_outcomes: int) -> dict[int, int]:
    """Amplitudes each workspace slot needs.  A level's chunk holds every
    column of its depth, or, when its result would exceed _CHUNK_AMPS
    amplitudes, as many as fit, one at least."""
    sizes = {-1: 0, -2: 0}
    columns = n_cases
    for depth, level in enumerate(levels):
        if level.axis is None:
            per_column = 2**level.width
        else:
            per_column = 2**level.width // 2 * n_outcomes
        chunk = min(columns, max(1, _CHUNK_AMPS // per_column))
        if level.joins:
            sizes[-1] = max(sizes[-1], 2**level.width * chunk)
        if level.axis is None:
            sizes[-2] = 2**level.width // 2 * chunk
        else:
            sizes[depth + 1] = per_column * chunk
            columns *= n_outcomes
    return sizes


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


def _on_axes(factor: np.ndarray, axes: tuple[int, ...], ndim: int) -> np.ndarray:
    """`factor`, one axis per entry of the increasing `axes`, spread over
    `ndim` axes with size 1 on the others."""
    shape = [1] * ndim
    for axis, size in zip(axes, factor.shape):
        shape[axis] = size
    return factor.reshape(shape)


def _halves(axis: int) -> tuple[tuple, tuple]:
    """Indices of the 0 and 1 halves of `axis`."""
    return (slice(None),) * axis + (0,), (slice(None),) * axis + (1,)


class _Step:
    """One level of `_plan`, readied for a sweep with the injected vertices
    `injected`.

    The joins multiply the state by `weights`, over the level's live axes
    and a branch axis of size 1: each joining vertex's |+> on its new axis
    (1 for an injected vertex, whose ket goes in per case), and -1 where it
    and a live neighbour both read 1, its CZs.  A measurement at a nonzero
    angle reads the parity of its sign dependencies and looks up, per
    parity, the relative phase e^{-i angle} of the one half and the common
    phase e^{i angle/2}.
    """

    def __init__(self, level: _Level, measurement: tuple[int, AngleSpec] | None,
                 parities: _Parities, injected):
        self.level = level
        ndim = level.width + 1
        first = level.width - len(level.joins)
        self.weights = 1.0
        self.injected = []
        for axis, (vertex, nbr_axes) in enumerate(level.joins, start=first):
            if vertex in injected:
                self.injected.append((axis, vertex))
            else:
                self.weights = self.weights * _on_axes(_KETP, (axis,), ndim)
            for nbr in nbr_axes:
                self.weights = self.weights * _on_axes(_CZ, (nbr, axis), ndim)
        if measurement is None:
            return
        vertex, spec = measurement
        self.halves = _halves(level.axis)
        self.flips = parities.flips[vertex]
        self.phases = None
        if spec.base:
            self.sign_deps = spec.sign_deps
            # rows: angle base and -base; columns: e^{-i angle}, e^{i angle/2}
            self.phases = np.exp(np.array([[-1j, 0.5j], [1j, -0.5j]]) * spec.base)


def _sweep_chunks(pattern: MeasurementPattern, cases: list[dict[int, np.ndarray]],
                  assignment: tuple[int, ...] | None = None,
                  cutoff: float = simcore.NULL_PROB,
                  plan: tuple[list[_Level], list[int]] | None = None):
    """Run every outcome branch of `pattern` for every input case, one
    measurement level at a time, and yield the corrected branch states in
    chunks.

    Each case maps vertices to the kets injected there, the same vertices in
    every case.  The state is a (2,)*m + (B,) array: one axis per live
    vertex, then a branch axis whose columns run over the cases and, within
    a case, over the branches whose outcome bits, in measurement order,
    spell the column big-endian.  A level multiplies its joining vertices in
    by one factor (see `_Step`), then rotates the measured axis by each
    column's adapted angle and writes both outcomes (or only the one
    `assignment` fixes) into one array without that axis, so B doubles;
    branches whose outcome had conditional probability below `cutoff` are
    dropped.  The byproducts are undone per column at the end.

    A level whose result would exceed _CHUNK_AMPS amplitudes runs the two
    halves of the branch axis one after the other, depth-first, so chunks
    arrive in branch order.  Each yield is (states, probs, cases): the
    chunk's corrected states, output axes in `pattern.outputs` order
    followed by the branch axis, and each column's probability and case.
    The states may be a view of the sweep's workspace, good until the next
    chunk is asked for.  `plan` is `_plan(pattern)` when the caller has it
    already.
    """
    levels, out_axes = plan or _plan(pattern)
    parities = _Parities(pattern)
    kets = {v: np.array([np.asarray(case[v], dtype=complex).reshape(2) for case in cases])
            for v in (cases[0] if cases else ())}
    measurements = list(pattern.measurements) + [None]
    steps = [_Step(level, measurement, parities, kets)
             for level, measurement in zip(levels, measurements)]
    workspace = _Workspace(_slot_sizes(levels, len(cases), 2 if assignment is None else 1))
    n = len(cases)
    words = np.zeros((parities.rows, n), dtype=np.int64)
    words[-1] = np.arange(n)
    stack = [(0, np.ones(n, dtype=complex), _Columns(np.ones(n), words))]
    while stack:
        depth, psi, cols = stack.pop()
        if depth == len(steps):
            yield (_corrected(pattern, parities, psi, cols.words, out_axes, workspace), cols.probs,
                   cols.cases)
            continue
        step = steps[depth]
        size = 2**step.level.width * len(cols)
        if step.level.axis is not None:
            outcomes = (0, 1) if assignment is None else (assignment[depth],)
            size = size // 2 * len(outcomes)
        if len(cols) > 1 and size > _CHUNK_AMPS:
            # the halves are views of disjoint columns, so a level may
            # write into one of them in place without touching the other
            half = len(cols) // 2
            stack.append((depth, psi[..., half:], cols[half:]))
            stack.append((depth, psi[..., :half], cols[:half]))
            continue
        if step.level.joins:
            psi = _join(psi, cols, step, kets,
                        workspace.array(-1, (2,) * step.level.width + (len(cols),)))
        if step.level.axis is not None:
            out = workspace.array(depth + 1,
                                  (2,) * (step.level.width - 1) + (len(cols), len(outcomes)))
            psi, cols = _measure(psi, cols, step, outcomes, parities, cutoff, out)
            if not len(cols):
                continue
        stack.append((depth + 1, psi, cols))


def _join(psi: np.ndarray, cols: _Columns, step: _Step, kets: dict[int, np.ndarray],
          out: np.ndarray) -> np.ndarray:
    """The state with the level's joining vertices appended, written to `out`."""
    weights = step.weights
    for axis, vertex in step.injected:
        ndim = step.level.width + 1
        weights = weights * _on_axes(kets[vertex][cols.cases].T, (axis, ndim - 1), ndim)
    grown = psi.reshape(psi.shape[:-1] + (1,) * len(step.level.joins) + psi.shape[-1:])
    return np.multiply(grown, weights, out=out)


def _measure(psi: np.ndarray, cols: _Columns, step: _Step, outcomes: tuple[int, ...],
             parities: _Parities, cutoff: float, out: np.ndarray) -> tuple[np.ndarray, _Columns]:
    """Measure the step's vertex on every column: the state without its
    axis and with len(outcomes) columns per column, written to `out`, and
    the grown columns, less those whose outcome fell below `cutoff`."""
    zero, one = psi[step.halves[0]], psi[step.halves[1]]
    # Rz(angle) = e^{i angle/2} diag(1, e^{-i angle}), then H without its
    # 1/sqrt2: the relative phase goes on the one half, and the common phase
    # joins the 1/sqrt(2p) that scales each outcome state
    common = 1.0
    if step.phases is not None:
        phases = step.phases.take(parities.read(cols.words, step.sign_deps), axis=0)
        np.multiply(one, phases[:, 0], out=one)
        common = phases[:, 1:]
    n = len(outcomes)
    for k, bit in enumerate(outcomes):
        (np.subtract if bit else np.add)(zero, one, out=out[..., k])
    psi = out.reshape(zero.shape[:-1] + (-1,))
    floats = psi.reshape(-1, psi.shape[-1]).view(float)  # re, im of each column side by side
    squares = np.einsum("kb,kb->b", floats, floats).reshape(-1, n, 2)
    norms = squares[..., 0] + squares[..., 1]  # 2p, per parent column and outcome
    words = np.repeat(cols.words, n, axis=1)
    for k, bit in enumerate(outcomes):
        if bit:
            words[:, k::n] ^= step.flips
    grown = _Columns((cols.probs[:, None] * (norms / 2)).reshape(-1), words)
    # an outcome below the cutoff is dropped: clamped, its scale stays finite
    scale = (common * (1 / np.sqrt(np.maximum(norms, 2 * cutoff)))).reshape(-1)
    if norms.min(initial=np.inf) < 2 * cutoff:
        keep = (norms >= 2 * cutoff).reshape(-1)
        psi, grown, scale = psi.compress(keep, axis=-1), grown[keep], scale[keep]
    psi *= scale
    return psi, grown


def _corrected(pattern: MeasurementPattern, parities: _Parities, psi: np.ndarray,
               words: np.ndarray, out_axes: list[int], workspace: _Workspace) -> np.ndarray:
    """Undo each output's byproduct per branch column, in place, then order
    the output axes as `pattern.outputs`, the branch axis last."""
    for out, axis in zip(pattern.outputs, out_axes):
        byproduct = pattern.corrections.get(out)
        if byproduct is None:
            continue
        halves = _halves(axis)
        zero, one = psi[halves[0]], psi[halves[1]]
        scratch = workspace.array(-2, zero.shape)
        x, z = (parities.read(words, deps) if deps else None
                for deps in (byproduct.x, byproduct.z))
        _pauli(zero, one, x, z, scratch)
        if byproduct.h:
            _hadamard(zero, one, scratch)
    return psi.transpose(out_axes + [len(out_axes)])


def _pauli(zero: np.ndarray, one: np.ndarray, x: np.ndarray | None, z: np.ndarray | None,
           scratch: np.ndarray) -> None:
    """Z^z X^x on one output, per branch column, in place on its two halves:
    X swaps them, and Z is a +-1 multiply of the one half."""
    if x is not None:
        # swap the halves where x, bit for bit and without a masked write:
        # their xor, cleared where x is 0, flips both
        a, b, d = zero.view(np.int64), one.view(np.int64), scratch.view(np.int64)
        np.bitwise_xor(a, b, out=d)
        np.bitwise_and(d, np.repeat(-x, 2), out=d)
        np.bitwise_xor(a, d, out=a)
        np.bitwise_xor(b, d, out=b)
    if z is not None:
        np.multiply(one, _SIGNS.take(z), out=one)


def _hadamard(zero: np.ndarray, one: np.ndarray, scratch: np.ndarray) -> None:
    """H on one output, in place on its two halves, with the arithmetic
    zero/sqrt2 +- one/sqrt2; `scratch` has the shape of a half."""
    # dividing the float views gives the complex quotients, without
    # numpy's complex division
    kept = np.divide(zero.view(float), math.sqrt(2), out=scratch.view(float)).view(complex)
    np.divide(one.view(float), math.sqrt(2), out=one.view(float))
    np.add(kept, one, out=zero)
    np.subtract(kept, one, out=one)


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
    for states, probs, _ in _sweep_chunks(pattern, [injected or {}], outcome_assignment):
        return StateVector(k, states[..., 0].flatten()), float(probs[0])
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
    `input_states` list overrides the default fiducials).  All input cases
    run in one sweep.

    Branches whose fidelity would rest on rounding (see `verdict_cutoff`)
    are pruned and counted in `pruned`; their weight stays out of
    `probability_sum`, which must still be within 1e-10 of 1 in every case.
    """
    if pattern.n_measured > BRANCH_ENUM_CAP:
        raise PatternError(
            f"{pattern.n_measured} measured vertices exceed the 2**{BRANCH_ENUM_CAP} enumeration cap")

    if isinstance(target, StateVector):
        cases, expected = [{}], [target]
    else:
        unitary = np.asarray(target, dtype=complex)
        k = len(pattern.inputs)
        if unitary.shape != (2**k, 2**k):
            raise PatternError(f"target unitary shape {unitary.shape} does not match {k} inputs")
        combos = input_states if input_states is not None else _fiducial_inputs(k)
        cases = [dict(zip(pattern.inputs, combo)) for combo in combos]
        expected = [StateVector(k, unitary @ simcore.product_state(list(combo)).amps)
                    for combo in combos]

    n_out = len(pattern.outputs)
    plan = _plan(pattern)
    for state in expected:
        if state.n_qubits != n_out:
            raise PatternError(f"target has {state.n_qubits} qubits, the pattern {n_out} outputs")
    cutoff = verdict_cutoff(tol)
    bras = np.array([state.amps.conj() for state in expected]).reshape((len(cases),) + (2,) * n_out)
    # contracting the output axes in the order the sweep holds them needs no copy
    order = [int(j) for j in np.argsort(plan[1])]
    min_fid = 1.0
    totals = [0.0] * len(cases)
    kept = [0] * len(cases)
    for states, probs, case in _sweep_chunks(pattern, cases, cutoff=cutoff, plan=plan):
        # a chunk's columns run over the cases in order
        bounds = np.searchsorted(case, np.arange(len(cases) + 1))
        for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                overlaps = np.tensordot(bras[c], states[..., lo:hi], axes=(order, order))
                min_fid = min(min_fid, float(np.abs(overlaps).min()))
                totals[c] += float(probs[lo:hi].sum())
                kept[c] += int(hi - lo)
    # the last case whose total is farthest from 1
    worst_total = max(reversed(totals), key=lambda total: abs(total - 1.0), default=1.0)
    branches = min(kept, default=2**pattern.n_measured)
    pruned = sum(2**pattern.n_measured - k for k in kept)
    passed = (min_fid >= 1.0 - tol) and (abs(worst_total - 1.0) <= 1e-10)
    return VerifyReport(pattern.graph.n_vertices, branches, min_fid, worst_total, passed, pruned)


_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)
_KETP = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
_KETIP = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2)
#: CZ on two axes: -1 where both read 1
_CZ = np.array([[1, 1], [1, -1]], dtype=complex)
#: (-1)**bit, indexed by the bit
_SIGNS = np.array([1, -1], dtype=complex)


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
        corrections={1: Byproduct(x=(0,))},
    )


def teleport_unitary(phi: float) -> np.ndarray:
    """Matrix implemented by teleport_pattern: H Rz(phi)."""
    rz = np.array([[np.exp(1j * phi / 2), 0], [0, np.exp(-1j * phi / 2)]])
    return np.array([[1, 1], [1, -1]]) / math.sqrt(2) @ rz


def y_rotation_pattern(phi: float) -> MeasurementPattern:
    """Ry(phi) on a 4-vertex wire (input vertex 0, output vertex 3): one
    rotation block on a bare input carrier.

    Angles pi/2, (-1)^{s0} phi, -(-1)^{s1} pi/2; the output's byproduct is
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
            0: Byproduct(z=(1,)),
            3: Byproduct(x=(2,), z=(1,)),
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
        corrections[2 * m] = Byproduct(x=deps)
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
        by its byproduct."""
        return MeasurementPattern(
            graph=Graph(self.n_vertices, frozenset(self.edges)),
            inputs=inputs,
            measurements=tuple(self.measurements),
            outputs=tuple(c.vertex for c in carriers),
            corrections={c.vertex: c.byproduct for c in carriers},
        )


def _xor(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(a) ^ set(b)))


@dataclass(frozen=True)
class _Carrier:
    """A live wire end: its vertex and the byproduct accumulated in front of
    its logical state."""

    vertex: int
    byproduct: Byproduct = Byproduct()


def _rotation_block(builder: _PatternBuilder, carrier: _Carrier, chi: float) -> _Carrier:
    """Append three measured vertices realizing logical Ry(chi) on the carrier.

    Input byproduct X^c Z^d is absorbed by adapting the three angles
    ((-1)^c pi/2, (-1)^{t1+d} chi, -(-1)^{t2+c} pi/2); the new byproduct is
    X^{t1+t3+d} Z^{t2+c} H.
    """
    c, d = carrier.byproduct.x, carrier.byproduct.z
    if carrier.byproduct.h:
        raise PatternError("rotation block requires an H-free carrier")
    q1 = carrier.vertex
    q2 = builder.new_vertex(attach_to=q1)
    q3 = builder.new_vertex(attach_to=q2)
    out = builder.new_vertex(attach_to=q3)
    builder.measure(q1, AngleSpec(math.pi / 2, sign_deps=c))
    builder.measure(q2, AngleSpec(chi, sign_deps=_xor((q1,), d)))
    builder.measure(q3, AngleSpec(-math.pi / 2, sign_deps=_xor((q2,), c)))
    return _Carrier(out, Byproduct(x=_xor(_xor((q1,), (q3,)), d), z=_xor((q2,), c), h=True))


def _hadamard_fixup(builder: _PatternBuilder, carrier: _Carrier) -> _Carrier:
    """One angle-0 step; cancels the carrier's H byproduct (X and Z swap)."""
    if not carrier.byproduct.h:
        raise PatternError("fixup expects an H byproduct")
    q = carrier.vertex
    out = builder.new_vertex(attach_to=q)
    builder.measure(q, AngleSpec(0.0))
    return _Carrier(out, Byproduct(x=_xor((q,), carrier.byproduct.z), z=carrier.byproduct.x))


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
    first = _rotation_block(builder, _Carrier(builder.new_vertex()), phis[0])
    carriers.append(replace(first, byproduct=replace(first.byproduct, h=False)))

    for k in range(2, N + 1):
        phi = phis[k - 1]
        # pre-rotation on a fresh wire: |+> -> G(-phi/2)|0>, its H absorbed too
        pre = _rotation_block(builder, _Carrier(builder.new_vertex()), -phi / 2)
        # vertical edge to the previous wire = the logical CZ of the cascade;
        # each side picks up a Z with the partner's X parity
        prev, a, b = carriers[-1], carriers[-1].byproduct, pre.byproduct
        builder.edges.add((prev.vertex, pre.vertex))
        carriers[-1] = replace(prev, byproduct=replace(a, z=_xor(a.z, b.x)))
        pre = replace(pre, byproduct=replace(b, z=_xor(b.z, a.x), h=False))
        # post-rotation completes C[G(phi)] (target starts in |0>)
        post = _rotation_block(builder, pre, -phi / 2)
        if k < N:
            post = _hadamard_fixup(builder, post)
        carriers.append(post)

    return builder.pattern(inputs=(), carriers=carriers)


def sine_pattern_vertex_budget(N: int) -> int:
    """Vertex allowance 3*(4N-2) of the three-row cluster strip."""
    return 3 * (4 * N - 2)

