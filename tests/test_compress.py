import math

import numpy as np
import pytest
from reference import circuit_unitary, compress_statevector_dense, run_circuit

from clustersense import compress, probes, simcore
from clustersense.compress import (
    CompressError,
    build_compressor,
    build_qft,
    build_step,
    classical_compress_oracle,
    compress_statevector,
    count_resources,
    make_layout,
    unary_images,
)

#: Theory bound for one block: half adders 2(lam-1)+1, carry uncompute lam-1,
#: erase ladder 2(lam-1)+1 plus at most 2*lam polarity Xs, lam swaps < 8*lam.
STEP_GATES_PER_LAMBDA = 8.0
#: Whole-circuit budget anchored at the N=4 ratio (6.17); the extra headroom
#: covers the polarity-X share that grows with lambda toward the 8.0 bound.
#: The same constant as criterion 7's GATE_COUNT_C.
GATES_PER_N_LAMBDA = 6.17 + 2.0
#: Measured maximum of mbqc_estimate / (N lam^2) over N in {2..64} is 8.17.
MBQC_PER_N_LAMBDA_SQ = 8.5


def test_classical_oracle():
    assert classical_compress_oracle("1110000") == 3
    assert classical_compress_oracle("0000") == 0
    assert classical_compress_oracle("1111") == 4
    with pytest.raises(CompressError):
        classical_compress_oracle("0110")
    with pytest.raises(CompressError):
        classical_compress_oracle("12")


def test_layout_shapes():
    layout = make_layout(5)
    assert layout.lam == 3
    assert layout.n_qubits == 5 + 2 * 3 - 1
    assert len(layout.final_binary) == 3
    with pytest.raises(CompressError):
        make_layout(0)


def _embed_on_unary(N: int, layout, unary_bits: str) -> simcore.StateVector:
    return simcore.basis_state(unary_bits + "0" * (layout.n_qubits - N))


def test_first_step_adds_one():
    layout = make_layout(4)
    step = build_step(1, layout)
    out = run_circuit(step, _embed_on_unary(4, layout, "1000"))
    # u_1 consumed; after the shift the binary value 1 sits on the new wires
    _, binary, _ = layout.step_wires[1]
    index = int(np.argmax(np.abs(out.amps)))
    bits = format(index, f"0{layout.n_qubits}b")
    value = sum(int(bits[w]) << i for i, w in enumerate(binary))
    assert value == 1
    assert abs(out.amps[index]) == pytest.approx(1.0, abs=1e-12)
    others = [int(b) for w, b in enumerate(bits) if w not in binary]
    assert sum(others) == 0


def test_first_step_on_zero_is_identity():
    layout = make_layout(4)
    step = build_step(1, layout)
    initial = _embed_on_unary(4, layout, "0000")
    out = run_circuit(step, initial)
    assert simcore.fidelity_up_to_global_phase(out, initial) >= 1 - 1e-12


def test_step_index_range():
    layout = make_layout(3)
    with pytest.raises(CompressError):
        build_step(0, layout)
    with pytest.raises(CompressError):
        build_step(4, layout)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_all_unary_inputs_compress(N):
    circuit, layout = build_compressor(N)
    for n in range(N + 1):
        result = compress_statevector(probes.unary_basis_state(n, N), layout, circuit)
        target = simcore.basis_state(format(n, f"0{layout.lam}b"))
        assert simcore.fidelity_up_to_global_phase(result, target) >= 1 - 1e-10


def test_ancillas_return_to_zero_with_probability_one():
    N = 5
    circuit, layout = build_compressor(N)
    keep = set(layout.final_binary)
    for n in range(N + 1):
        state = probes.unary_basis_state(n, N)
        full = np.zeros(2**layout.n_qubits, dtype=complex)
        full[np.arange(2**N) << (layout.n_qubits - N)] = state.amps
        out = run_circuit(circuit, simcore.StateVector(layout.n_qubits, full))
        psi = out.amps.reshape((2,) * layout.n_qubits)
        index = tuple(slice(None) if w in keep else 0 for w in range(layout.n_qubits))
        clean_weight = float(np.sum(np.abs(psi[index]) ** 2))
        assert clean_weight >= 1 - 1e-12


def test_compressed_basis_states_stay_orthonormal():
    N = 8
    circuit, layout = build_compressor(N)
    outputs = [compress_statevector(probes.unary_basis_state(n, N), layout, circuit).amps
               for n in range(N + 1)]
    gram = np.array([[np.vdot(a, b) for b in outputs] for a in outputs])
    np.testing.assert_allclose(gram, np.eye(N + 1), atol=1e-10)


def test_linearity_on_random_superpositions():
    rng = np.random.default_rng(42)
    cases = [(2, 10), (3, 10), (5, 15), (8, 15)]
    for N, trials in cases:
        circuit, layout = build_compressor(N)
        for _ in range(trials):
            raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            coeffs = raw / np.linalg.norm(raw)
            state = probes.unary_embedding(probes.SubspaceState(N, coeffs))
            result = compress_statevector(state, layout, circuit)
            target = np.zeros(2**layout.lam, dtype=complex)
            target[: N + 1] = coeffs
            fid = simcore.fidelity_up_to_global_phase(
                result, simcore.StateVector(layout.lam, target))
            assert fid >= 1 - 1e-10


def test_no_weight_beyond_the_encoded_range():
    # the Fourier-completion outcome never fires: nothing lands above N
    N = 5
    rng = np.random.default_rng(3)
    circuit, layout = build_compressor(N)
    raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    state = probes.unary_embedding(probes.SubspaceState(N, raw / np.linalg.norm(raw)))
    result = compress_statevector(state, layout, circuit)
    assert float(np.sum(np.abs(result.amps[N + 1:]) ** 2)) < 1e-12


def test_sine_state_compression():
    N = 7
    circuit, layout = build_compressor(N)
    psi = probes.sine_coefficients(N)
    result = compress_statevector(probes.unary_embedding(psi), layout, circuit)
    target = np.zeros(2**layout.lam, dtype=complex)
    target[: N + 1] = psi.coeffs
    assert simcore.fidelity_up_to_global_phase(
        result, simcore.StateVector(layout.lam, target)) >= 1 - 1e-10


def test_qft_single_qubit_is_hadamard():
    unitary = circuit_unitary(build_qft(1))
    np.testing.assert_allclose(unitary, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-14)


def test_qft_zero_column_is_uniform():
    out = run_circuit(build_qft(2), simcore.zero_state(2))
    np.testing.assert_allclose(out.amps, [0.5] * 4, atol=1e-14)


@pytest.mark.parametrize("lam", [1, 2, 3, 4])
def test_qft_matches_dft_matrix(lam):
    dim = 2**lam
    dft = np.exp(2j * math.pi * np.outer(np.arange(dim), np.arange(dim)) / dim) / math.sqrt(dim)
    unitary = circuit_unitary(build_qft(lam))
    np.testing.assert_allclose(unitary, dft, atol=1e-10)


def test_count_resources_empty():
    report = count_resources(simcore.Circuit(2))
    assert (report.gate_count, report.toffoli_count, report.depth,
            report.mbqc_qubit_estimate) == (0, 0, 0, 0)


def test_step_gate_count_is_linear_in_lambda():
    for N in (4, 16, 64):
        layout = make_layout(N)
        for k in (1, N // 2 + 1, N):
            assert len(build_step(k, layout).ops) <= STEP_GATES_PER_LAMBDA * layout.lam


def test_resource_scaling_bounds():
    for N in (4, 8, 16, 32, 64):
        circuit, layout = build_compressor(N)
        report = count_resources(circuit, layout.step_slices)
        assert report.gate_count <= GATES_PER_N_LAMBDA * N * layout.lam
        assert report.mbqc_qubit_estimate <= MBQC_PER_N_LAMBDA_SQ * N * layout.lam**2
        assert report.toffoli_count > 0
        assert report.depth <= report.gate_count


def _outcome(route, state, layout, circuit):
    """The compressed amplitudes, or the message of the SimulationError raised."""
    try:
        return route(state, layout, circuit).amps
    except simcore.SimulationError as err:
        return str(err)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 12])
def test_index_route_matches_dense_reference(N):
    circuit, layout = build_compressor(N)
    rng = np.random.default_rng(N)
    inputs = [probes.unary_basis_state(n, N) for n in range(N + 1)]
    for _ in range(2):
        raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
        inputs.append(probes.unary_embedding(probes.SubspaceState(N, raw / np.linalg.norm(raw))))
    # a random basis state, a unary state with weight 1e-12 leaked onto a
    # non-unary string (above the 1e-20 clean-wire threshold), and a random
    # dense state over the whole register
    inputs.append(simcore.basis_state(int(rng.integers(2**N)), N))
    leaked = probes.unary_basis_state(N, N).amps * math.sqrt(1 - 1e-12)
    leaked[1] = 1e-6  # the string 0...01
    inputs.append(simcore.StateVector(N, leaked))
    raw = rng.normal(size=2**N) + 1j * rng.normal(size=2**N)
    inputs.append(simcore.StateVector(N, raw / np.linalg.norm(raw)))
    for state in inputs:
        fast = _outcome(compress_statevector, state, layout, circuit)
        dense = _outcome(compress_statevector_dense, state, layout, circuit)
        if isinstance(dense, str):
            assert fast == dense
        else:
            np.testing.assert_array_equal(fast, dense)
    if N >= 2:
        # only the unary strings come out clean; the rest fail on a named wire
        assert isinstance(_outcome(compress_statevector, inputs[-2], layout, circuit), str)
        assert isinstance(_outcome(compress_statevector, inputs[-1], layout, circuit), str)


def test_non_unary_input_fails_on_the_same_wire():
    circuit, layout = build_compressor(12)
    state = simcore.basis_state("010100000000")
    for route in (compress_statevector, compress_statevector_dense):
        with pytest.raises(simcore.SimulationError, match="qubit 13 "):
            route(state, layout, circuit)


def test_bit_route_rejects_gates_that_are_not_permutations():
    circuit, layout = build_compressor(2)
    for extra in (simcore.h(0), simcore.cz(0, 1)):
        broken = simcore.Circuit(circuit.n_qubits, circuit.ops + (extra,))
        with pytest.raises(CompressError):
            compress_statevector(probes.unary_basis_state(1, 2), layout, broken)


def _unary_image_problems(circuit, layout) -> list[str]:
    """What is wrong with the images of the N+1 unary inputs: row n must read
    n on final_binary, every other wire must be 0, and no two rows may agree."""
    images = unary_images(circuit, layout)
    place = 1 << np.arange(layout.lam - 1, -1, -1)
    values = images[:, list(layout.final_binary_msb_first())].astype(np.int64) @ place
    problems = [f"unary {n} reads {v}" for n, v in enumerate(values) if v != n]
    ancillas = sorted(set(range(layout.n_qubits)) - set(layout.final_binary))
    problems += [f"unary {n} leaves an ancilla set" for n in np.flatnonzero(images[:, ancillas].any(axis=1))]
    if len(np.unique(images, axis=0)) != layout.N + 1:
        problems.append("two unary inputs share an image")
    return problems


@pytest.mark.parametrize("N", [3, 7, 12, 31, 100, 255])
def test_unary_images_prove_the_subspace_action(N):
    # a phase-free permutation is fixed on the unary subspace by these N+1
    # images, so this is the whole action there, far past the dense cap
    circuit, layout = build_compressor(N)
    assert _unary_image_problems(circuit, layout) == []
    report = count_resources(circuit, layout.step_slices)
    assert report.gate_count <= GATES_PER_N_LAMBDA * N * layout.lam
    ancilla = min(set(range(layout.n_qubits)) - set(layout.final_binary))
    broken = simcore.Circuit(circuit.n_qubits, circuit.ops + (simcore.x(ancilla),))
    assert _unary_image_problems(broken, layout)
