import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import reference
from reference import (
    DenseCircuit,
    apply_gate,
    circuit_unitary,
    cluster_state,
    cz,
    drop_qubit,
    measure_branch,
)

from clustersense import mbqc, probes, simcore
from clustersense.mbqc import (
    AngleSpec,
    Byproduct,
    Graph,
    MeasurementPattern,
    PatternError,
    cnot_pattern,
    ghz_pattern,
    path_graph,
    run_pattern,
    sine_pattern,
    teleport_pattern,
    teleport_unitary,
    verify_pattern,
    y_rotation_pattern,
)
from clustersense.simcore import StateVector

# ---------------------------------------------------------------------------
# Reference: the stepwise branch walker, one gate, projection and qubit drop
# at a time through the dense kernel of reference.py, against which the
# batched executor is pinned.

def _odd(deps: tuple[int, ...], outcomes: dict[int, int]) -> bool:
    """Parity of the outcomes of the `deps` vertices, read from the walker's
    outcome dict: an adapted angle flips sign, and a byproduct's X or Z is
    undone, where it is odd."""
    return sum(outcomes[v] for v in deps) % 2 == 1


def _apply_corrections(state: StateVector, pattern: MeasurementPattern,
                       outcomes: dict[int, int], axis_of: dict[int, int]) -> StateVector:
    """Undo each output's byproduct X^x Z^z H^h gate by gate: X^x, then
    Z^z, then H."""
    for out in pattern.outputs:
        byproduct = pattern.corrections.get(out, Byproduct())
        for gate, fires in ((simcore.x, _odd(byproduct.x, outcomes)),
                            (reference.z, _odd(byproduct.z, outcomes)),
                            (reference.h, byproduct.h)):
            if fires:
                state = apply_gate(state, gate(axis_of[out]))
    return state


def _reorder_outputs(state: StateVector, pattern: MeasurementPattern,
                     axis_of: dict[int, int]) -> StateVector:
    axes = [axis_of[v] for v in pattern.outputs]
    psi = state.amps.reshape((2,) * state.n_qubits)
    psi = np.moveaxis(psi, axes, range(len(axes)))
    return StateVector(state.n_qubits, np.ascontiguousarray(psi).reshape(-1))


def _reference_leaves(pattern: MeasurementPattern, injected: dict[int, np.ndarray] | None,
                      cutoff: float = simcore.NULL_PROB):
    """Depth-first sweep over all outcome branches, sharing prefix states.

    An outcome of conditional probability below `cutoff` ends its branch.
    Yields (corrected output state, branch probability) per leaf.
    """
    root = cluster_state(pattern.graph, injected)

    def recurse(state: StateVector, axis_of: dict[int, int], outcomes: dict[int, int],
                prob: float, depth: int):
        if depth == pattern.n_measured:
            corrected = _apply_corrections(state, pattern, outcomes, axis_of)
            yield _reorder_outputs(corrected, pattern, axis_of), prob
            return
        vertex, spec = pattern.measurements[depth]
        axis = axis_of[vertex]
        angle = -spec.base if _odd(spec.sign_deps, outcomes) else spec.base
        rotated = apply_gate(state, reference.rz(axis, angle))
        rotated = apply_gate(rotated, reference.h(axis))
        for bit in (0, 1):
            branch, p = measure_branch(rotated, axis, bit)
            if p == 0.0 or p < cutoff:
                continue
            branch = drop_qubit(branch, axis, bit)
            sub_axes = {v: (a - 1 if a > axis else a) for v, a in axis_of.items() if v != vertex}
            yield from recurse(branch, sub_axes, {**outcomes, vertex: bit}, prob * p, depth + 1)

    axis_of = {v: v for v in range(pattern.graph.n_vertices)}
    yield from recurse(root, axis_of, {}, 1.0, 0)


def _reference_branches(pattern: MeasurementPattern, injected: dict[int, np.ndarray] | None,
                        target_state: StateVector, cutoff: float = simcore.NULL_PROB):
    """(fidelity with the target, branch probability) of each leaf of
    `_reference_leaves`."""
    for state, prob in _reference_leaves(pattern, injected, cutoff):
        yield simcore.fidelity_up_to_global_phase(state, target_state), prob


def _verdict(fids, probs, tol: float) -> bool:
    """verify_pattern's rule on one case: every kept branch within tol of
    fidelity 1, and the kept weight within 1e-10 of 1."""
    return min([1.0] + list(fids)) >= 1.0 - tol and abs(float(np.sum(probs)) - 1.0) <= 1e-10


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


@st.composite
def random_patterns(draw):
    """A random pattern on 2-7 vertices, injected inputs or None, and a
    random target on its outputs.  Exact |0>, |1> and |+> inputs and angles
    0 and +-pi/2 make some branches null."""
    n = draw(st.integers(2, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    order = draw(st.permutations(range(n)))
    n_measured = draw(st.integers(0, n - 1))
    measured, outputs = order[:n_measured], tuple(order[n_measured:])
    angles = st.sampled_from([0.0, math.pi / 2, -math.pi / 2]) | st.floats(-math.pi, math.pi)
    measurements = []
    for i, v in enumerate(measured):
        deps = draw(st.lists(st.sampled_from(measured[:i]), unique=True)) if i else []
        measurements.append((v, AngleSpec(draw(angles), tuple(deps))))
    # any dependency lists, a vertex listed twice cancelling
    deps = st.lists(st.sampled_from(measured)).map(tuple) if measured else st.just(())
    corrections = {v: Byproduct(draw(deps), draw(deps), draw(st.booleans())) for v in outputs}
    pattern = MeasurementPattern(Graph(n, frozenset(edges)), (), tuple(measurements), outputs,
                                 corrections)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    injected = None
    if draw(st.booleans()):
        exact = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]) / math.sqrt(2)]
        vertices = draw(st.lists(st.sampled_from(range(n)), unique=True, min_size=1))
        injected = {v: draw(st.sampled_from(exact)) if draw(st.booleans()) else _random_state(rng, 1)
                    for v in vertices}
    target = StateVector(len(outputs), _random_state(rng, len(outputs)))
    return pattern, injected, target


def test_two_vertex_cluster():
    state = cluster_state(path_graph(2))
    np.testing.assert_allclose(state.amps, np.array([1, 1, 1, -1]) / 2, atol=1e-15)


def test_square_cluster_symmetry():
    # the 4-cycle graph state is invariant under swapping both diagonals
    square = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    state = cluster_state(square)
    permuted = state.amps.reshape((2,) * 4).transpose((2, 3, 0, 1)).reshape(-1)
    np.testing.assert_allclose(state.amps, permuted, atol=1e-15)


def test_cluster_with_injected_input():
    psi = np.array([0.6, 0.8j])
    state = cluster_state(path_graph(3), injected={0: psi})
    expected = simcore.product_state([psi, np.array([1, 1]) / math.sqrt(2),
                                      np.array([1, 1]) / math.sqrt(2)])
    expected = apply_gate(expected, cz(0, 1))
    expected = apply_gate(expected, cz(1, 2))
    np.testing.assert_allclose(state.amps, expected.amps, atol=1e-14)


def test_cluster_state_matches_per_edge_route():
    graph = sine_pattern(3).graph
    psi = np.array([0.6, 0.8j])
    expected = simcore.product_state([psi] + [np.array([1, 1]) / math.sqrt(2)] * (graph.n_vertices - 1))
    for a, b in sorted(graph.edges):
        expected = apply_gate(expected, cz(a, b))
    np.testing.assert_array_equal(cluster_state(graph, injected={0: psi}).amps, expected.amps)


def test_cluster_size_cap():
    with pytest.raises(PatternError):
        cluster_state(path_graph(simcore.MAX_QUBITS + 1))


def test_graph_rejects_self_loops():
    with pytest.raises(PatternError):
        Graph(2, frozenset({(1, 1)}))


def test_teleport_reference_branch():
    # angle 0, outcome 0: output is H|psi>; for |0> input that is |+>
    pattern = teleport_pattern(0.0)
    out, prob = run_pattern(pattern, (0,), injected={0: np.array([1.0, 0.0])})
    assert prob == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(out.amps, np.array([1, 1]) / math.sqrt(2), atol=1e-12)


def test_teleport_pattern_verifies_against_its_unitary():
    for phi in (0.0, 1.1, -2.4):
        report = verify_pattern(teleport_pattern(phi), teleport_unitary(phi))
        assert report.passed


def test_y_rotation_pattern_all_branches():
    rng = np.random.default_rng(11)
    for phi in rng.uniform(-math.pi, math.pi, size=6):
        report = verify_pattern(y_rotation_pattern(phi), mbqc.ry_matrix(phi))
        assert report.passed
        assert report.branches == 8


def test_y_rotation_matches_simulator_gate():
    phi = 0.77
    psi = np.array([0.48, 0.6 + 0.64j])
    psi /= np.linalg.norm(psi)
    out, _ = run_pattern(y_rotation_pattern(phi), (1, 0, 1), injected={0: psi})
    expected = apply_gate(simcore.StateVector(1, psi), reference.ry(0, phi))
    assert simcore.fidelity_up_to_global_phase(out, expected) >= 1 - 1e-10


def test_cnot_pattern_all_branches():
    report = verify_pattern(cnot_pattern(), mbqc.CNOT_MATRIX)
    assert report.passed
    assert report.branches == 4


@pytest.mark.parametrize("N", [2, 3, 4])
def test_ghz_pattern(N):
    report = verify_pattern(ghz_pattern(N), probes.ghz_state(N))
    assert report.passed
    assert report.probability_sum == pytest.approx(1.0, abs=1e-10)


def test_patterns_hash_by_value():
    a, b = ghz_pattern(3), ghz_pattern(3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != ghz_pattern(4)
    # the hash skips the corrections dict, but equality still compares it
    assert a.corrections and dataclasses.replace(a, corrections={}) != a


def test_ghz_pattern_vertex_count():
    for N in range(2, 9):
        assert ghz_pattern(N).graph.n_vertices == 2 * N - 1


@pytest.mark.parametrize("N", [1, 2, 3])
def test_sine_pattern(N):
    target = probes.unary_embedding(probes.sine_coefficients(N))
    report = verify_pattern(sine_pattern(N), target)
    assert report.passed
    assert report.min_fidelity >= 1 - 1e-10


def test_sine_pattern_vertex_budget():
    for N in range(1, 9):
        pattern = sine_pattern(N)
        assert pattern.graph.n_vertices <= mbqc.sine_pattern_vertex_budget(N)


def test_run_pattern_agrees_with_enumeration():
    pattern = sine_pattern(2)
    target = probes.unary_embedding(probes.sine_coefficients(2))
    reference = list(_reference_branches(pattern, None, target))
    assert len(reference) == 2**pattern.n_measured
    total = 0.0
    for branch, (ref_fid, ref_prob) in enumerate(reference):
        # reference leaves come in depth-first order: the bits spell the index big-endian
        bits = tuple((branch >> (pattern.n_measured - 1 - k)) & 1 for k in range(pattern.n_measured))
        out, prob = run_pattern(pattern, bits)
        total += prob
        fid = simcore.fidelity_up_to_global_phase(out, target)
        assert fid >= 1 - 1e-10
        assert fid == pytest.approx(ref_fid, abs=1e-12)
        assert prob == pytest.approx(ref_prob, abs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-10)


# Hypothesis found this one: vertex 2 measured at 1e-10 leaves a branch of
# probability 1.25e-21.  Its normalized state is the rounding of amplitudes
# near 3.5e-11 scaled up, so the two routes' fidelities differ by 5e-7, and
# verification prunes it at any tolerance below 3e-5.
_NEAR_NULL_BRANCH = (
    MeasurementPattern(Graph(3, frozenset({(0, 1)})), (),
                       ((1, AngleSpec(0.0)), (2, AngleSpec(1e-10))), (0,)),
    {1: np.array([0.6 + 0.3j, -0.2 + 0.7j]) / math.sqrt(0.98)},
    StateVector(1, np.array([0.6, 0.8j])),
)


def _joined_sweep(pattern: MeasurementPattern, injected: dict[int, np.ndarray] | None,
                  cutoff: float = simcore.NULL_PROB) -> tuple[np.ndarray, np.ndarray]:
    """Every kept branch of `pattern`: the chunks of `_sweep_chunks` joined
    along the branch axis, which is empty when no branch is kept.  A chunk
    may be a view of the sweep's workspace, so each is copied as it comes."""
    chunks = [(np.empty((2,) * len(pattern.outputs) + (0,), dtype=complex), np.empty(0))]
    chunks += [(states.copy(), probs)
               for states, probs, _ in mbqc._sweep_chunks(pattern, [injected or {}], cutoff=cutoff)]
    states, probs = zip(*chunks)
    return np.concatenate(states, axis=-1), np.concatenate(probs)


def _assert_sweep_matches_reference(pattern: MeasurementPattern,
                                    injected: dict[int, np.ndarray] | None, target: StateVector):
    reference = list(_reference_branches(pattern, injected, target))
    states, probs = _joined_sweep(pattern, injected)
    k = len(pattern.outputs)
    assert states.shape == (2,) * k + (len(reference),)
    fids = []
    for b, (ref_fid, ref_prob) in enumerate(reference):
        fids.append(simcore.fidelity_up_to_global_phase(StateVector(k, states[..., b].reshape(-1)),
                                                        target))
        # rounding of the amplitudes (about 1e-14 after 7 levels) grows by
        # 1/sqrt(p) when a branch of probability p is normalized
        assert fids[-1] == pytest.approx(ref_fid, abs=1e-12 + 1e-14 / math.sqrt(ref_prob))
        assert probs[b] == pytest.approx(ref_prob, abs=1e-12)
    # both routes, with the branches that cannot decide the verdict pruned
    tol = 1e-10
    cutoff = mbqc.verdict_cutoff(tol)
    kept = list(_reference_branches(pattern, injected, target, cutoff))
    states, probs = _joined_sweep(pattern, injected, cutoff)
    assert len(probs) == len(kept)
    fids = [simcore.fidelity_up_to_global_phase(StateVector(k, states[..., b].reshape(-1)), target)
            for b in range(len(kept))]
    for fid, (ref_fid, ref_prob) in zip(fids, kept):
        assert fid == pytest.approx(ref_fid, abs=1e-12 + 1e-14 / math.sqrt(ref_prob))
    assert _verdict(fids, probs, tol) == _verdict(*zip(*kept), tol)
    if injected is None:
        report = verify_pattern(pattern, target, tol=tol)
        assert report.branches == len(kept)
        assert report.pruned == 2**pattern.n_measured - len(kept)
        assert report.min_fidelity == pytest.approx(min([1.0] + fids), abs=1e-12)
        assert report.probability_sum == pytest.approx(sum(p for _, p in kept), abs=1e-12)
        assert report.passed == _verdict(fids, probs, tol)


@settings(max_examples=200, deadline=None)
@given(random_patterns())
@example(_NEAR_NULL_BRANCH)
def test_sweep_matches_stepwise_reference(case):
    _assert_sweep_matches_reference(*case)


# |+> measured at angle 0 always reads 0, between two measurements on a
# wire: half the branches are dropped in the middle of the sweep
_NULL_BRANCH_ON_A_WIRE = MeasurementPattern(
    Graph(4, frozenset({(0, 1), (1, 3)})), (),
    ((0, AngleSpec(0.3)), (2, AngleSpec(0.0)), (1, AngleSpec(0.5, (0,)))), (3,))


def _corrected_near_null_branch() -> MeasurementPattern:
    # _NEAR_NULL_BRANCH with vertex 1 as the input and its byproduct
    # corrected: a deterministic pattern whose output is H|psi>
    return MeasurementPattern(Graph(3, frozenset({(0, 1)})), (1,),
                              ((1, AngleSpec(0.0)), (2, AngleSpec(1e-10))), (0,),
                              {0: Byproduct(x=(1,))})


_HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _ghz_wrong_when_s1_and_s3_differ() -> MeasurementPattern:
    # ghz_pattern(3) with an extra Z on its last output where s1 + s3 is odd:
    # branches 01 and 10 fail and the last, 11, passes, so the worst
    # fidelity is not in the last chunk
    ghz = ghz_pattern(3)
    wrong = dataclasses.replace(ghz.corrections[4], z=(1, 3))
    return MeasurementPattern(ghz.graph, (), ghz.measurements, ghz.outputs,
                              {**ghz.corrections, 4: wrong})


@pytest.mark.parametrize("case", [
    (sine_pattern(2), None, probes.unary_embedding(probes.sine_coefficients(2))),
    _NEAR_NULL_BRANCH,
    (_NULL_BRANCH_ON_A_WIRE, None, simcore.plus_state(1)),
], ids=["sine-2", "near-null", "null-branch"])
def test_chunked_sweep_matches_stepwise_reference(case, monkeypatch):
    monkeypatch.setattr(mbqc, "_CHUNK_AMPS", 2)
    pattern, injected, target = case
    assert len(list(mbqc._sweep_chunks(pattern, [injected or {}]))) > 1
    _assert_sweep_matches_reference(pattern, injected, target)


@pytest.mark.parametrize("pattern, target, inputs, tol", [
    (sine_pattern(2), probes.unary_embedding(probes.sine_coefficients(2)), None, 1e-10),
    (_corrected_near_null_branch(), _HADAMARD, [[_NEAR_NULL_BRANCH[1][1]]], 1e-12),
    (_NULL_BRANCH_ON_A_WIRE, simcore.plus_state(1), None, 1e-10),
    (cnot_pattern(), mbqc.CNOT_MATRIX, None, 1e-10),
    (_ghz_wrong_when_s1_and_s3_differ(), probes.ghz_state(3), None, 1e-10),
], ids=["sine-2", "corrected-near-null", "null-branch", "cnot", "ghz-early-failure"])
def test_chunked_verification_matches_one_chunk(pattern, target, inputs, tol, monkeypatch):
    whole = verify_pattern(pattern, target, inputs, tol)
    monkeypatch.setattr(mbqc, "_CHUNK_AMPS", 2)
    chunked = verify_pattern(pattern, target, inputs, tol)
    assert (chunked.branches, chunked.pruned, chunked.passed) == (
        whole.branches, whole.pruned, whole.passed)
    assert chunked.min_fidelity == pytest.approx(whole.min_fidelity, abs=1e-12)
    assert chunked.probability_sum == pytest.approx(whole.probability_sum, abs=1e-12)


# Byproducts on which the sweep's Pauli frame is pinned to the walker state
# by state, global phase included: X and Z, dependency lists in which a
# vertex cancels, and the trailing H of the sine and Y-rotation patterns.
_WORDS = {
    "X-then-Z": Byproduct(x=(0, 2), z=(1,)),
    "repeated-deps": Byproduct(x=(1, 1), z=(0, 2, 0)),
    "X+Z+H": Byproduct(x=(0, 2), z=(1,), h=True),
}


def _forked_wire(byproduct: Byproduct) -> MeasurementPattern:
    """A wire 0-1-2-3 with vertex 4 hanging off 1: input 0, adapted angles
    on 0, 1 and 2, and outputs 4 and 3, in that order.  `byproduct` is 3's,
    and X^s1 Z^s2 is 4's, so that no sign the frame of 3 gets wrong can
    cancel against the same sign on the other output."""
    return MeasurementPattern(
        Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (1, 4)})), (0,),
        ((0, AngleSpec(0.4)), (1, AngleSpec(-1.1, (0,))), (2, AngleSpec(-0.8, (1,)))),
        (4, 3), {3: byproduct, 4: Byproduct(x=(1,), z=(2,))})


@pytest.mark.parametrize("chunk", [2**15, 2], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("byproduct", _WORDS.values(), ids=_WORDS)
def test_correction_words_match_the_walker_state_by_state(byproduct, chunk, monkeypatch):
    monkeypatch.setattr(mbqc, "_CHUNK_AMPS", chunk)
    pattern = _forked_wire(byproduct)
    injected = {0: _random_state(np.random.default_rng(5), 1)}
    reference = list(_reference_leaves(pattern, injected))
    states, probs = _joined_sweep(pattern, injected)
    assert states.shape == (2, 2, len(reference)) and len(reference) == 8
    for b, (state, prob) in enumerate(reference):
        # the sweep's Rz, H and Pauli frame are the walker's gates, so the
        # states agree as vectors and not only up to a phase
        np.testing.assert_allclose(states[..., b].reshape(-1), state.amps, rtol=0, atol=1e-13)
        assert probs[b] == pytest.approx(prob, abs=1e-13)


def _two_inputs_with_h() -> MeasurementPattern:
    return MeasurementPattern(
        Graph(5, frozenset({(0, 2), (1, 2), (2, 3), (1, 4)})), (0, 1),
        ((0, AngleSpec(0.7)), (1, AngleSpec(-0.3, (0,))), (2, AngleSpec(-1.2, (1,)))),
        (3, 4),
        {3: Byproduct(x=(2,), z=(0, 1), h=True), 4: Byproduct(x=(1,), z=(2,))})


@pytest.mark.parametrize("chunk", [2**15, 2], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("pattern, unitary", [
    (cnot_pattern(), mbqc.CNOT_MATRIX),
    (y_rotation_pattern(0.9), mbqc.ry_matrix(0.9)),
    # no unitary is right for it: a failing verdict, aggregated over cases
    (_two_inputs_with_h(), np.eye(4)),
], ids=["cnot", "yrot", "two-inputs"])
def test_batched_cases_match_one_sweep_per_case(pattern, unitary, chunk, monkeypatch):
    monkeypatch.setattr(mbqc, "_CHUNK_AMPS", chunk)
    combos = mbqc._fiducial_inputs(len(pattern.inputs))
    cases = [dict(zip(pattern.inputs, combo)) for combo in combos]
    batched = [(states.copy(), probs, case) for states, probs, case in mbqc._sweep_chunks(pattern, cases)]
    states = np.concatenate([part for part, _, _ in batched], axis=-1)
    probs = np.concatenate([part for _, part, _ in batched])
    case_of = np.concatenate([part for _, _, part in batched])
    start = 0
    for c, case in enumerate(cases):
        alone, alone_probs = _joined_sweep(pattern, case)
        stop = start + alone.shape[-1]
        assert (case_of[start:stop] == c).all()
        np.testing.assert_allclose(states[..., start:stop], alone, rtol=0, atol=1e-15)
        np.testing.assert_allclose(probs[start:stop], alone_probs, rtol=0, atol=1e-15)
        start = stop
    assert start == len(probs)
    report = verify_pattern(pattern, unitary)
    per_case = [verify_pattern(pattern, unitary, [combo]) for combo in combos]
    assert report.branches == min(r.branches for r in per_case)
    assert report.pruned == sum(r.pruned for r in per_case)
    assert report.min_fidelity == pytest.approx(min(r.min_fidelity for r in per_case), abs=1e-15)
    worst = max((r.probability_sum for r in per_case), key=lambda total: abs(total - 1.0))
    assert report.probability_sum == pytest.approx(worst, abs=1e-15)
    assert report.passed == all(r.passed for r in per_case)


def test_live_width_not_vertex_count_meets_the_cap():
    def centre_first(n_leaves: int) -> MeasurementPattern:
        # measuring the centre first needs it and every leaf live at once
        leaves = tuple(range(1, n_leaves + 1))
        star = Graph(n_leaves + 1, frozenset((0, v) for v in leaves))
        return MeasurementPattern(star, (), ((0, AngleSpec(0.0)),), leaves)

    with pytest.raises(PatternError, match="live vertices"):
        run_pattern(centre_first(25), (0,))
    # the plan allocates nothing: exactly MAX_QUBITS live vertices pass it
    assert max(level.width for level in mbqc._plan(centre_first(simcore.MAX_QUBITS - 1))[0]) == (
        simcore.MAX_QUBITS)
    with pytest.raises(PatternError, match="live vertices"):
        mbqc._plan(centre_first(simcore.MAX_QUBITS))
    leaves = tuple(range(1, simcore.MAX_QUBITS + 2))
    star = Graph(len(leaves) + 1, frozenset((0, v) for v in leaves))
    # measuring the leaves first keeps two vertices live; the first X
    # outcome 0 leaves the centre in |0>, and the other leaves then agree
    leaves_first = MeasurementPattern(star, (), tuple((v, AngleSpec(0.0)) for v in leaves), (0,))
    out, prob = run_pattern(leaves_first, (0,) * len(leaves))
    assert prob == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(out.amps, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("N", [4, 6, 8, 12])
def test_sine_pattern_branches_past_the_dense_cap(N):
    pattern = sine_pattern(N)
    assert pattern.graph.n_vertices > simcore.MAX_QUBITS
    target = probes.unary_embedding(probes.sine_coefficients(N))
    rng = np.random.default_rng(N)
    for _ in range(4):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=pattern.n_measured))
        out, prob = run_pattern(pattern, bits)
        assert simcore.fidelity_up_to_global_phase(out, target) >= 1 - 1e-10
        # every outcome of a pattern with flow is a fair coin
        assert prob == pytest.approx(2.0 ** -pattern.n_measured, rel=1e-9)


@pytest.mark.parametrize("tol", [1e-15, 1e-16, 1e-300, 0.0, math.nan])
def test_tolerance_at_or_below_the_rounding_bound_is_refused(tol):
    # (1e-15 / tol)^2 would prune every branch, or overflow below about 1e-169
    with pytest.raises(PatternError, match="rounding bound"):
        verify_pattern(teleport_pattern(0.3), teleport_unitary(0.3), tol=tol)
    # just above the bound the sweep still resolves the shipped pattern
    assert verify_pattern(teleport_pattern(0.3), teleport_unitary(0.3), tol=1e-14).passed


def test_near_null_branch_does_not_decide_the_verdict():
    pattern = _corrected_near_null_branch()
    psi = _NEAR_NULL_BRANCH[1][1]
    target = StateVector(1, _HADAMARD @ psi)
    # Unpruned, its two branches of probability 1.25e-21 were measured 5e-13
    # (executor) and 1.1e-12 (reference) below fidelity 1, so at tol = 1e-12
    # rounding alone put the two verdicts on either side.  Pruned at
    # verdict_cutoff(tol), both routes pass.
    tol = 1e-12
    report = verify_pattern(pattern, _HADAMARD, input_states=[[psi]], tol=tol)
    assert report.passed and report.branches == 2 and report.pruned == 2
    kept = list(_reference_branches(pattern, {1: psi}, target, mbqc.verdict_cutoff(tol)))
    assert _verdict(*zip(*kept), tol)
    assert report.probability_sum == pytest.approx(1.0, abs=1e-15)
    # shipped patterns keep every branch at the default tolerance
    assert verify_pattern(sine_pattern(2), probes.unary_embedding(probes.sine_coefficients(2))).pruned == 0


def test_branch_count_is_the_fewest_kept_by_any_input_case():
    # measuring the |+> neighbour of the input in X reads the input's Z value:
    # the |0> and |1> fiducials each have a null branch, |+> and |+i> none
    pattern = MeasurementPattern(Graph(2, frozenset({(0, 1)})), (0,), ((1, AngleSpec(0.0)),), (0,))
    report = verify_pattern(pattern, np.eye(2))
    assert report.branches == 1
    assert report.pruned == 2
    assert not report.passed
    assert " 1 branches" in str(report)


def test_verification_plans_the_sweep_once(monkeypatch):
    # the plan depends on the pattern only, not on the input case
    calls = []
    plan = mbqc._plan
    monkeypatch.setattr(mbqc, "_plan", lambda pattern: calls.append(pattern) or plan(pattern))
    report = verify_pattern(cnot_pattern(), mbqc.CNOT_MATRIX)
    assert report.passed
    assert len(calls) == 1


def test_isolated_measured_vertex_has_a_null_branch():
    # |+> measured at angle 0 always reads 0; outcome 1 has probability 0
    pattern = MeasurementPattern(Graph(2, frozenset()), (), ((0, AngleSpec(0.0)),), (1,))
    report = verify_pattern(pattern, simcore.plus_state(1))
    assert report.passed
    assert report.branches == 1
    assert report.pruned == 1
    assert report.probability_sum == pytest.approx(1.0, abs=1e-15)
    out, prob = run_pattern(pattern, (1,))
    assert not out.amps.any() and out.n_qubits == 1
    assert prob == 0.0
    with pytest.raises(simcore.SimulationError):
        run_pattern(pattern, (2,))
    with pytest.raises(PatternError):
        verify_pattern(pattern, simcore.plus_state(2))


def test_corrupted_correction_fails_some_branch():
    pattern = ghz_pattern(3)
    broken = MeasurementPattern(
        graph=pattern.graph,
        inputs=pattern.inputs,
        measurements=pattern.measurements,
        outputs=pattern.outputs,
        corrections={**pattern.corrections, 4: Byproduct(z=(1,))},
    )
    report = verify_pattern(broken, probes.ghz_state(3))
    assert not report.passed


def test_branch_enumeration_cap():
    with pytest.raises(PatternError):
        verify_pattern(sine_pattern(4), probes.unary_embedding(probes.sine_coefficients(4)))


def test_angle_dependencies_must_be_measured_first():
    with pytest.raises(PatternError):
        MeasurementPattern(
            graph=path_graph(2),
            inputs=(),
            measurements=((0, AngleSpec(0.0, sign_deps=(1,))),),
            outputs=(1,),
        )


@pytest.mark.parametrize("corrections", [
    {0: Byproduct(x=(0,))},
    {1: Byproduct(z=(0, 1))},
    {1: (Byproduct(),)},
], ids=["on-a-measured-vertex", "on-an-unmeasured-vertex", "not-a-byproduct"])
def test_a_byproduct_sits_on_an_output_and_reads_measured_vertices(corrections):
    with pytest.raises(PatternError):
        MeasurementPattern(path_graph(2), (), ((0, AngleSpec(0.0)),), (1,), corrections)


@pytest.mark.parametrize("spec, byproduct", [
    (AngleSpec(0.0), Byproduct(x=[0])),
    (AngleSpec(0.0), Byproduct(x=0)),
    (AngleSpec(0.3, sign_deps=[0]), Byproduct()),
    (AngleSpec(0.0), Byproduct(z=("0",))),
    (AngleSpec(0.3, sign_deps=("0",)), Byproduct()),
], ids=["x-list", "x-int", "sign-list", "z-str-entry", "sign-str-entry"])
def test_a_dependency_list_is_a_tuple_of_vertex_numbers(spec, byproduct):
    # refused as the pattern is built, before any sweep keys its parities
    with pytest.raises(PatternError, match="tuple of vertex numbers"):
        MeasurementPattern(path_graph(3), (), ((0, AngleSpec(0.0)), (1, spec)), (2,),
                           {2: byproduct})


def test_x_past_cz_identity():
    # moving X past CZ: CZ (X x 1) = (X x Z) CZ up to global phase
    lhs = circuit_unitary(DenseCircuit(2, [simcore.x(0), cz(0, 1)]))
    rhs = circuit_unitary(DenseCircuit(2, [cz(0, 1), reference.z(1), simcore.x(0)]))
    overlap = abs(np.trace(lhs.conj().T @ rhs)) / 4
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_bare_cluster_qfi_is_linear():
    from clustersense import estimate

    for N in range(2, 11):
        state = cluster_state(path_graph(N))
        assert estimate.qfi_statevector(state) == pytest.approx(N, abs=1e-9)


def _deps_str(deps: tuple[int, ...]) -> str:
    return ",".join(str(d) for d in deps) if deps else "-"


def pattern_to_text(pattern: MeasurementPattern) -> str:
    """A pattern written line by line, for the golden-file tests below."""
    lines = [f"vertices {pattern.graph.n_vertices}"]
    lines += [f"edge {a} {b}" for a, b in sorted(pattern.graph.edges)]
    lines += [f"input {v}" for v in pattern.inputs]
    for v, spec in pattern.measurements:
        lines.append(f"measure {v} base={spec.base!r} sign={_deps_str(spec.sign_deps)}")
    for v in pattern.outputs:
        byproduct = pattern.corrections.get(v, Byproduct())
        word = [f"{kind}:{_deps_str(deps)}"
                for kind, deps in (("X", byproduct.x), ("Z", byproduct.z)) if deps]
        word += ["H:-^1"] * byproduct.h
        lines.append(f"output {v} correct={';'.join(word) or '-'}")
    return "\n".join(lines) + "\n"


def test_pattern_serialization_golden():
    assert pattern_to_text(teleport_pattern(0.0)) == (
        "vertices 2\n"
        "edge 0 1\n"
        "input 0\n"
        "measure 0 base=0.0 sign=-\n"
        "output 1 correct=X:0\n"
    )
    assert pattern_to_text(ghz_pattern(3)) == (
        "vertices 5\n"
        "edge 0 1\n"
        "edge 1 2\n"
        "edge 2 3\n"
        "edge 3 4\n"
        "measure 1 base=0.0 sign=-\n"
        "measure 3 base=0.0 sign=-\n"
        "output 0 correct=-\n"
        "output 2 correct=X:1\n"
        "output 4 correct=X:1,3\n"
    )
    assert pattern_to_text(y_rotation_pattern(0.7)) == (
        "vertices 4\n"
        "edge 0 1\n"
        "edge 1 2\n"
        "edge 2 3\n"
        "input 0\n"
        "measure 0 base=1.5707963267948966 sign=-\n"
        "measure 1 base=0.7 sign=0\n"
        "measure 2 base=-1.5707963267948966 sign=1\n"
        "output 3 correct=X:0,2;Z:1;H:-^1\n"
    )


def test_sine_pattern_serialization_is_stable():
    text_a = pattern_to_text(sine_pattern(3))
    text_b = pattern_to_text(sine_pattern(3))
    assert text_a == text_b
    assert text_a.startswith("vertices 19\n")
