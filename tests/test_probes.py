import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import run_circuit

from clustersense import simcore
from clustersense.probes import (
    AngleSchedule,
    ProbeError,
    SubspaceState,
    amplitudes_from_angles,
    angles_from_amplitudes,
    build_prep_circuit,
    ghz_state,
    sine_coefficients,
    unary_basis_state,
    unary_embedding,
)


def test_sine_coefficients_small_cases():
    # direct evaluation of sqrt(2/(N+2)) sin((n+1) pi / (N+2))
    one = sine_coefficients(1)
    np.testing.assert_allclose(one.coeffs.real, [math.sqrt(2 / 3) * math.sin(math.pi / 3)] * 2,
                               atol=1e-15)
    np.testing.assert_allclose(one.coeffs.real, [1 / math.sqrt(2)] * 2, atol=1e-15)
    two = sine_coefficients(2)
    np.testing.assert_allclose(two.coeffs.real, [0.5, math.sin(math.pi / 2) / math.sqrt(2), 0.5],
                               atol=1e-15)
    np.testing.assert_allclose(two.coeffs.real, [0.5, 0.70710678118654752, 0.5], atol=1e-11)


@pytest.mark.parametrize("N", [1, 2, 5, 17, 60])
def test_sine_profile_is_normalized(N):
    coeffs = sine_coefficients(N).coeffs
    assert abs(np.vdot(coeffs, coeffs).real - 1.0) < 1e-12


def test_sine_requires_positive_N():
    with pytest.raises(ProbeError):
        sine_coefficients(0)


def test_amplitudes_from_angles_extremes():
    N = 4
    flat = amplitudes_from_angles(AngleSchedule(N, np.zeros(N)))
    np.testing.assert_allclose(flat.coeffs.real, [1, 0, 0, 0, 0], atol=1e-15)
    full = amplitudes_from_angles(AngleSchedule(N, np.full(N, math.pi)))
    np.testing.assert_allclose(full.coeffs.real, [0, 0, 0, 0, 1], atol=1e-15)


def test_amplitudes_from_angles_direct_evaluation():
    # product formula at phi = (pi/2, pi/2)
    out = amplitudes_from_angles(AngleSchedule(2, np.array([math.pi / 2, math.pi / 2])))
    expect = [math.cos(math.pi / 4),
              math.sin(math.pi / 4) * math.cos(math.pi / 4),
              math.sin(math.pi / 4) * math.sin(math.pi / 4)]
    np.testing.assert_allclose(out.coeffs.real, expect, atol=1e-14)
    np.testing.assert_allclose(out.coeffs.real, [0.70710678, 0.5, 0.5], atol=1e-8)


def test_angles_from_amplitudes_extremes():
    N = 5
    coeffs = np.zeros(N + 1)
    coeffs[0] = 1.0
    schedule = angles_from_amplitudes(SubspaceState(N, coeffs.astype(complex)))
    np.testing.assert_allclose(schedule.phis, np.zeros(N), atol=1e-12)
    coeffs = np.zeros(N + 1)
    coeffs[N] = 1.0
    schedule = angles_from_amplitudes(SubspaceState(N, coeffs.astype(complex)))
    np.testing.assert_allclose(schedule.phis, np.full(N, math.pi), atol=1e-12)


def test_round_trip_on_sine_state():
    psi = sine_coefficients(4)
    back = amplitudes_from_angles(angles_from_amplitudes(psi))
    np.testing.assert_allclose(back.coeffs.real, psi.coeffs.real, atol=1e-10)


def test_inversion_rejects_complex_or_negative():
    with pytest.raises(ProbeError):
        angles_from_amplitudes(SubspaceState(1, np.array([1, 1j]) / math.sqrt(2)))
    with pytest.raises(ProbeError):
        angles_from_amplitudes(SubspaceState(1, np.array([1, -1]) / math.sqrt(2)))


@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=9))
@example([0.0, 1.0, 1e-7])  # acos of a ratio near 1 lost half its digits here
@example([1.0, 0.0, 1e-9])  # a weight cut-off dropped the 1e-9 amplitude here
@settings(max_examples=60, deadline=None)
def test_round_trip_property(raw):
    total = sum(v * v for v in raw)
    if total < 1e-6:
        return
    coeffs = np.array(raw) / math.sqrt(total)
    psi = SubspaceState(len(raw) - 1, coeffs.astype(complex))
    back = amplitudes_from_angles(angles_from_amplitudes(psi))
    np.testing.assert_allclose(back.coeffs.real, coeffs, atol=1e-10)


@given(st.lists(st.floats(0.4, math.pi - 0.4), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_angle_round_trip_for_interior_schedules(phis):
    # comfortably interior angles keep every residual weight well away from
    # zero, where the angle-side inversion is well conditioned; closer to the
    # edges the angles lose digits even though the amplitudes stay exact
    schedule = AngleSchedule(len(phis), np.array(phis))
    back = angles_from_amplitudes(amplitudes_from_angles(schedule))
    np.testing.assert_allclose(back.phis, schedule.phis, atol=1e-7)


def test_degenerate_inversion_sets_trailing_angles_to_zero():
    coeffs = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
    schedule = angles_from_amplitudes(SubspaceState(3, coeffs))
    assert schedule.phis[2] == 0.0
    back = amplitudes_from_angles(schedule)
    np.testing.assert_allclose(back.coeffs.real, coeffs.real, atol=1e-10)


def test_prep_circuit_single_qubit():
    psi = SubspaceState(1, np.array([1, 1], dtype=complex) / math.sqrt(2))
    circuit = build_prep_circuit(angles_from_amplitudes(psi))
    out = run_circuit(circuit, simcore.zero_state(1))
    np.testing.assert_allclose(out.amps, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_prep_circuit_sine_three_qubits():
    psi = sine_coefficients(3)
    circuit = build_prep_circuit(angles_from_amplitudes(psi))
    out = run_circuit(circuit, simcore.zero_state(3))
    assert simcore.fidelity_up_to_global_phase(out, unary_embedding(psi)) >= 1 - 1e-10


def test_prep_circuit_gate_count_is_N():
    for N in (1, 3, 6):
        schedule = angles_from_amplitudes(sine_coefficients(N))
        assert len(build_prep_circuit(schedule).ops) == N


def test_prep_circuit_output_support_is_unary():
    rng = np.random.default_rng(7)
    for _ in range(5):
        N = int(rng.integers(2, 7))
        phis = rng.uniform(0, math.pi, size=N)
        circuit = build_prep_circuit(AngleSchedule(N, phis))
        out = run_circuit(circuit, simcore.zero_state(N))
        unary_indices = {int("1" * n + "0" * (N - n), 2) for n in range(N + 1)}
        for index, amp in enumerate(out.amps):
            if index not in unary_indices:
                assert abs(amp) < 1e-12


def test_prep_circuit_matches_embedding_for_random_profiles():
    rng = np.random.default_rng(123)
    for N in range(1, 9):
        for _ in range(20):
            raw = rng.uniform(0, 1, size=N + 1)
            coeffs = raw / np.linalg.norm(raw)
            psi = SubspaceState(N, coeffs.astype(complex))
            circuit = build_prep_circuit(angles_from_amplitudes(psi))
            out = run_circuit(circuit, simcore.zero_state(N))
            assert simcore.fidelity_up_to_global_phase(out, unary_embedding(psi)) >= 1 - 1e-10


def test_ghz_state():
    out = ghz_state(2)
    np.testing.assert_allclose(out.amps, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-15)


def test_unary_basis_states():
    np.testing.assert_allclose(unary_basis_state(2, 4).amps[int("1100", 2)], 1.0)
    np.testing.assert_allclose(unary_basis_state(0, 3).amps[0], 1.0)
    with pytest.raises(ProbeError):
        unary_basis_state(4, 3)
