import math
from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    apply_gate,
    base_matrix,
    circuit_unitary,
    drop_qubit,
    measure_branch,
    run_circuit,
)

from clustersense import simcore
from clustersense.simcore import (
    Circuit,
    SimulationError,
    StateVector,
    basis_state,
    fidelity_up_to_global_phase,
    plus_state,
    zero_state,
)

SQ2 = 1.0 / math.sqrt(2)


def test_hadamard_on_zero():
    out = apply_gate(zero_state(1), simcore.h(0))
    np.testing.assert_allclose(out.amps, [SQ2, SQ2], atol=1e-15)


def test_cz_phase_on_11():
    out = apply_gate(basis_state("11"), simcore.cz(0, 1))
    np.testing.assert_allclose(out.amps, [0, 0, 0, -1], atol=1e-15)


def test_ry_matches_matrix_oracle():
    # multiply the 2x2 exp(+i phi Y / 2) matrix against basis vectors
    for phi in (math.pi, 0.7, -2.1):
        c, s = math.cos(phi / 2), math.sin(phi / 2)
        matrix = np.array([[c, s], [-s, c]])
        for bits, column in (("0", 0), ("1", 1)):
            out = apply_gate(basis_state(bits), simcore.ry(0, phi))
            np.testing.assert_allclose(out.amps, matrix[:, column], atol=1e-14)


def test_ry_pi_on_zero_gives_minus_one():
    out = apply_gate(zero_state(1), simcore.ry(0, math.pi))
    np.testing.assert_allclose(out.amps, [0, -1], atol=1e-15)


def test_gate_index_out_of_range():
    with pytest.raises(SimulationError):
        apply_gate(zero_state(2), simcore.h(2))
    # a circuit holds only gates, each on its own qubits
    for op in (simcore.h(2), ("H", 0)):
        with pytest.raises(SimulationError):
            Circuit(2, [op])


def test_controls_and_targets_disjoint():
    with pytest.raises(SimulationError):
        simcore.Gate("X", (0,), controls=(0,), polarity=(1,))


def test_target_count_matches_kind():
    # and a known kind, with a finite angle for a rotation and two phases for PHASE
    for kind, targets, params in (("X", (0, 1), {}), ("SWAP", (0,), {}), ("FOO", (0,), {}),
                                  ("RY", (0,), {}), ("RX", (0,), {"angle": math.inf}),
                                  ("RZ", (0,), {"angle": math.nan}), ("PHASE", (0,), {}),
                                  ("PHASE", (0,), {"phases": (0.1,)})):
        with pytest.raises(SimulationError):
            simcore.Gate(kind, targets, **params)


def test_measure_plus_state():
    state, prob = measure_branch(plus_state(1), 0, 0)
    assert prob == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(state.amps, [1, 0], atol=1e-15)


def test_measure_bell_state():
    bell = StateVector(2, np.array([SQ2, 0, 0, SQ2]))
    state, prob = measure_branch(bell, 0, 1)
    assert prob == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(state.amps, [0, 0, 0, 1], atol=1e-15)


def test_measure_ghz3_middle_qubit():
    ghz = StateVector(3, np.array([SQ2, 0, 0, 0, 0, 0, 0, SQ2]))
    state, prob = measure_branch(ghz, 1, 0)
    assert prob == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(state.amps[0], 1.0, atol=1e-14)


@pytest.mark.parametrize("bit", [2, -1])
def test_assigned_outcome_must_be_a_bit(bit):
    with pytest.raises(SimulationError):
        measure_branch(plus_state(2), 0, bit)


def test_measure_zero_probability_branch_is_flagged():
    state, prob = measure_branch(zero_state(1), 0, 1)
    assert prob == 0.0
    assert state.is_null


def test_empty_circuit_is_identity():
    initial = plus_state(2)
    out = run_circuit(Circuit(2), initial)
    np.testing.assert_allclose(out.amps, initial.amps)


def _ghz_from_cluster(N: int, bits: tuple[int, ...]) -> tuple[StateVector, float]:
    """1D cluster of 2N-1 qubits; X-basis measurement of the odd qubits onto
    `bits` and outcome-parity X corrections leave the even qubits in a GHZ
    state.  Returns the even qubits' state and the branch probability."""
    n = 2 * N - 1
    ops = [simcore.h(q) for q in range(n)]
    ops += [simcore.cz(q, q + 1) for q in range(n - 1)]
    state, prob = run_circuit(Circuit(n, ops), zero_state(n)), 1.0
    measured = range(1, n, 2)
    for q, bit in zip(measured, bits):
        state, p = measure_branch(apply_gate(state, simcore.h(q)), q, bit)
        prob *= p
    for m in range(1, N):
        if sum(bits[:m]) % 2:
            state = apply_gate(state, simcore.x(2 * m))
    for q, bit in sorted(zip(measured, bits), reverse=True):
        state = drop_qubit(state, q, bit)
    return state, prob


def test_cluster_circuit_yields_ghz_on_reference_branch():
    reduced, prob = _ghz_from_cluster(4, (0, 0, 0))
    assert prob == pytest.approx(1 / 8, abs=1e-12)
    ghz4 = StateVector(4, np.array([SQ2] + [0] * 14 + [SQ2]))
    assert fidelity_up_to_global_phase(reduced, ghz4) >= 1 - 1e-10


def test_cluster_circuit_yields_ghz_on_every_branch():
    ghz4 = StateVector(4, np.array([SQ2] + [0] * 14 + [SQ2]))
    total = 0.0
    for branch in range(8):
        bits = tuple((branch >> k) & 1 for k in range(3))
        reduced, prob = _ghz_from_cluster(4, bits)
        total += prob
        assert fidelity_up_to_global_phase(reduced, ghz4) >= 1 - 1e-10
    assert total == pytest.approx(1.0, abs=1e-10)


def test_fidelity_examples():
    assert fidelity_up_to_global_phase(zero_state(1), zero_state(1)) == pytest.approx(1.0)
    phased = StateVector(1, np.exp(1j * math.pi / 7) * zero_state(1).amps)
    assert fidelity_up_to_global_phase(zero_state(1), phased) == pytest.approx(1.0)
    assert fidelity_up_to_global_phase(zero_state(1), basis_state("1")) == pytest.approx(0.0)
    with pytest.raises(SimulationError):
        fidelity_up_to_global_phase(zero_state(1), zero_state(2))


def test_gate_algebra_spot_checks():
    hh = circuit_unitary(Circuit(1, [simcore.h(0), simcore.h(0)]))
    np.testing.assert_allclose(hh, np.eye(2), atol=1e-14)
    cz_ab = circuit_unitary(Circuit(2, [simcore.cz(0, 1)]))
    cz_ba = circuit_unitary(Circuit(2, [simcore.cz(1, 0)]))
    np.testing.assert_allclose(cz_ab, cz_ba, atol=1e-15)
    # Ry(phi) Z and Z Ry(-phi) agree as states
    phi = 0.83
    for bits in ("0", "1"):
        a = apply_gate(apply_gate(basis_state(bits), simcore.z(0)), simcore.ry(0, phi))
        b = apply_gate(apply_gate(basis_state(bits), simcore.ry(0, -phi)), simcore.z(0))
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-14)


def test_drop_qubit_requires_definite_value():
    with pytest.raises(SimulationError):
        drop_qubit(plus_state(2), 0, 0)
    state, _ = measure_branch(plus_state(2), 0, 1)
    reduced = drop_qubit(state, 0, 1)
    np.testing.assert_allclose(reduced.amps, [SQ2, SQ2], atol=1e-15)


def test_mcx_polarity():
    gate = simcore.mcx((0, 1), 2, polarity=(1, 0))
    out = apply_gate(basis_state("100"), gate)
    np.testing.assert_allclose(out.amps[int("101", 2)], 1.0, atol=1e-15)
    out = apply_gate(basis_state("110"), gate)
    np.testing.assert_allclose(out.amps[int("110", 2)], 1.0, atol=1e-15)


def _reference_gate(amps: np.ndarray, n: int, gate: simcore.Gate) -> np.ndarray:
    """The dense matrix route: move the target axes of the slice selected by
    the controls to the front and multiply by the gate's matrix."""
    work = amps.copy().reshape((2,) * n)
    index = [slice(None)] * n
    for c, p in zip(gate.controls, gate.polarity):
        index[c] = p
    index = tuple(index)
    remaining = [q for q in range(n) if q not in gate.controls]
    positions = [remaining.index(t) for t in gate.targets]
    k = len(gate.targets)
    sub = np.moveaxis(work[index], positions, range(k))
    transformed = base_matrix(gate) @ sub.reshape(2**k, -1)
    work[index] = np.moveaxis(transformed.reshape(sub.shape), range(k), positions)
    return work.reshape(-1)


_KINDS = ("X", "Y", "Z", "H", "RX", "RY", "RZ", "PHASE", "SWAP")
# exact zeros exercise the kernel's skipping of unit diagonal factors
_ANGLES = st.one_of(st.just(0.0), st.floats(-2 * math.pi, 2 * math.pi))


@st.composite
def _gates(draw, n_qubits: int) -> simcore.Gate:
    kind = draw(st.sampled_from(_KINDS if n_qubits >= 2 else _KINDS[:-1]))
    n_targets = 2 if kind == "SWAP" else 1
    n_controls = draw(st.integers(0, min(2, n_qubits - n_targets)))
    qubits = draw(st.permutations(range(n_qubits)))
    polarity = draw(st.lists(st.integers(0, 1), min_size=n_controls, max_size=n_controls))
    return simcore.Gate(
        kind,
        tuple(qubits[:n_targets]),
        controls=tuple(qubits[n_targets:n_targets + n_controls]),
        polarity=tuple(polarity),
        angle=draw(_ANGLES) if kind in ("RX", "RY", "RZ") else None,
        phases=(draw(_ANGLES), draw(_ANGLES)) if kind == "PHASE" else None,
    )


@st.composite
def _states(draw, n_qubits: int) -> StateVector:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(n_qubits, raw / np.linalg.norm(raw))


@given(data=st.data(), n_qubits=st.integers(3, 6))
@settings(max_examples=40, deadline=None)
def test_norm_preserved_by_random_circuits(data, n_qubits):
    gates = data.draw(st.lists(_gates(n_qubits), min_size=1, max_size=20))
    out = run_circuit(Circuit(n_qubits, gates), plus_state(n_qubits))
    assert abs(out.norm_sq() - 1.0) < 1e-12


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_branch_probabilities_complete(data):
    ops = data.draw(st.lists(_gates(3), min_size=6, max_size=6))
    total = 0.0
    for branch in range(4):
        # qubit 0 projected after the third gate, qubit 2 after the last
        state, p0 = measure_branch(run_circuit(Circuit(3, ops[:3]), plus_state(3)), 0, branch & 1)
        _, p2 = measure_branch(run_circuit(Circuit(3, ops[3:]), state), 2, branch >> 1)
        total += p0 * p2
    assert total == pytest.approx(1.0, abs=1e-10)


# small blocks make the kernel split its parts on these few-qubit states too
_BLOCK_SIZES = st.sampled_from((1, 4, reference._BLOCK))


@given(data=st.data(), n_qubits=st.integers(1, 8), block=_BLOCK_SIZES)
@settings(max_examples=300, deadline=None)
def test_apply_gate_matches_dense_reference(data, n_qubits, block):
    gate = data.draw(_gates(n_qubits))
    state = data.draw(_states(n_qubits))
    before = state.amps.copy()
    with mock.patch.object(reference, "_BLOCK", block):
        out = apply_gate(state, gate)
    np.testing.assert_allclose(out.amps, _reference_gate(before, n_qubits, gate), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(state.amps, before)


@given(data=st.data(), n_qubits=st.integers(1, 5), block=_BLOCK_SIZES)
@settings(max_examples=60, deadline=None)
def test_circuit_unitary_matches_columnwise_reference(data, n_qubits, block):
    gates = data.draw(st.lists(_gates(n_qubits), max_size=12))
    dim = 2**n_qubits
    cols = np.eye(dim, dtype=complex)
    for gate in gates:
        for k in range(dim):
            cols[:, k] = _reference_gate(cols[:, k], n_qubits, gate)
    with mock.patch.object(reference, "_BLOCK", block):
        unitary = circuit_unitary(Circuit(n_qubits, gates))
    np.testing.assert_allclose(unitary, cols, rtol=0, atol=1e-12)


@given(data=st.data(), n_qubits=st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_run_circuit_matches_stepwise_reference(data, n_qubits):
    """Gates applied in place, against one fresh state per gate through the
    dense route."""
    gates = data.draw(st.lists(_gates(n_qubits), max_size=8))
    initial = data.draw(_states(n_qubits))
    before = initial.amps.copy()

    expected = initial.amps
    for gate in gates:
        expected = _reference_gate(expected, n_qubits, gate)

    out = run_circuit(Circuit(n_qubits, gates), initial)
    np.testing.assert_allclose(out.amps, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(initial.amps, before)


def test_qubit_cap_enforced():
    with pytest.raises(SimulationError):
        zero_state(simcore.MAX_QUBITS + 1)
