"""Acceptance criteria, one test per criterion, each printing one PASS/FAIL
line (visible with `pytest -s`, or in captured output on failure).

Grids and tolerances are pinned here; scaling-law fits use every integer N
in the stated interval.
"""

import math

import numpy as np
import pytest
import reference

from clustersense import compress, estimate as est, mbqc, probes, simcore

PLUS_PROBE = probes.SubspaceState(1, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_local_estimation():
    worst_rel = 0.0
    worst_prod = 0.0
    for N in range(1, 9):
        fi = reference.fisher_information_by_differences(reference.parity_law(N),
                                                         math.pi / (3 * N))
        worst_rel = max(worst_rel, abs(fi - N**2) / N**2)
        qfi_prod = est.qfi_statevector(simcore.plus_state(N))
        worst_prod = max(worst_prod, abs(qfi_prod - N))
    ok = worst_rel < 1e-6 and worst_prod < 1e-9
    assert _line(1, ok, f"parity FI rel dev {worst_rel:.2e} (tol 1e-6), "
                        f"product QFI dev {worst_prod:.2e}")


def test_criterion_02_single_qubit_closed_forms():
    worst = 0.0
    for sigma in (0.1, 0.5, 1.0):
        result = est.bayes_round(est.gaussian_prior(sigma), PLUS_PROBE,
                                 est.single_qubit_optimal_povm(0.0))
        want_v = sigma**2 * (1 - sigma**2 * math.exp(-(sigma**2)))
        want_t = sigma**2 * math.exp(-(sigma**2) / 2)
        worst = max(worst, abs(result.avg_posterior_variance - want_v))
        worst = max(worst, float(np.max(np.abs(np.sort(result.estimates) - [-want_t, want_t]))))
    ok = worst < 1e-8
    assert _line(2, ok, f"max deviation from closed forms {worst:.2e} (tol 1e-8)")


def test_criterion_03_classical_parallel_deviations():
    targets = {(0.1, 1): 5e-7, (0.1, 90): 1.65e-5, (0.5, 1): 6.6e-3, (0.5, 90): 2.9e-2}
    measured = {}
    ok = True
    for (sigma, N), expected in targets.items():
        vbar = est.classical_parallel_variance(N, sigma)
        bound = est.van_trees_bound(N, sigma)
        deviation = (vbar - bound) / bound
        measured[(sigma, N)] = deviation
        ok &= abs(deviation - expected) <= 0.15 * expected
    detail = ", ".join(f"sigma={s} N={n}: {d:.3e} (reference {targets[(s, n)]:.2e})"
                       for (s, n), d in measured.items())
    assert _line(3, ok, detail + " [each within +-15%]")


def test_criterion_04_quantum_advantage_at_six_qubits():
    results = {}
    ok = True
    for sigma in (0.5, 0.1):
        inv_v = 1.0 / est.qft_phase_variance(6, sigma)
        threshold = 6 + 1.0 / sigma**2
        results[sigma] = (inv_v, threshold)
        ok &= inv_v > threshold
    detail = ", ".join(f"sigma={s}: 1/V={v:.3f} > {t:.1f}" for s, (v, t) in results.items())
    assert _line(4, ok, detail)


def test_criterion_05_phase_scaling_exponents():
    ns = np.arange(20, 201)
    inv_quantum = np.array([1.0 / est.qft_phase_variance(int(n), 0.1) for n in ns])
    inv_classical = 1.0 / np.array(est.classical_parallel_curve([int(n) for n in ns], 0.1))
    fit_q = float(np.polyfit(np.log(ns), np.log(inv_quantum), 1)[0])
    fit_c = float(np.polyfit(np.log(ns), np.log(inv_classical), 1)[0])
    ok = fit_q >= 1.5 and fit_c <= 1.1
    assert _line(5, ok, f"quantum exponent {fit_q:.3f} (>= 1.5), "
                        f"classical exponent {fit_c:.3f} (<= 1.1), N in [20, 200], sigma=0.1")


def test_criterion_06_frequency_scaling_exponents():
    ns = list(range(8, 65))
    quantum_gains = []
    classical_gains = []
    for n in ns:
        povm = est.qft_povm(n)
        probe = probes.sine_coefficients(n)
        quantum_gains.append(1.0 / est.optimize_tau(n, probe, povm).vbar)
        classical_gains.append(1.0 / est.optimize_tau_classical(n).vbar)
    fit_q = float(np.polyfit(np.log(ns), np.log(quantum_gains), 1)[0])
    fit_c = float(np.polyfit(np.log(ns), np.log(classical_gains), 1)[0])
    ok = fit_q > 1.5 and abs(fit_c - 1.0) <= 0.15
    assert _line(6, ok, f"quantum exponent {fit_q:.3f} (> 1.5), classical exponent {fit_c:.3f} "
                        f"(1 +- 0.15), N in [8, 64]")


#: Gate budget constant measured once at N=4 (ratio 6.17) plus headroom for
#: the |0>-control conjugation share that grows with lambda toward its 8.0
#: asymptote.
GATE_COUNT_C = 6.17 + 2.0


def test_criterion_07_compression_correctness():
    rng = np.random.default_rng(2024)
    ok = True
    details = []
    for N in (3, 7, 12):
        circuit, layout = compress.build_compressor(N)
        report = compress.count_resources(circuit, layout.step_slices)
        ok &= report.gate_count <= GATE_COUNT_C * N * layout.lam
        worst_clean = 1.0
        worst_fid = 1.0
        keep = set(layout.final_binary)
        for n in range(N + 1):
            state = probes.unary_basis_state(n, N)
            full = np.zeros(2**layout.n_qubits, dtype=complex)
            full[np.arange(2**N) << (layout.n_qubits - N)] = state.amps
            out = reference.run_circuit(circuit, simcore.StateVector(layout.n_qubits, full))
            psi = out.amps.reshape((2,) * layout.n_qubits)
            index = tuple(slice(None) if w in keep else 0 for w in range(layout.n_qubits))
            worst_clean = min(worst_clean, float(np.sum(np.abs(psi[index]) ** 2)))
            reduced = compress.compress_statevector(state, layout, circuit)
            target = simcore.basis_state(format(n, f"0{layout.lam}b"))
            worst_fid = min(worst_fid, simcore.fidelity_up_to_global_phase(reduced, target))
        for _ in range(20):
            raw = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
            coeffs = raw / np.linalg.norm(raw)
            reduced = compress.compress_statevector(
                probes.unary_embedding(probes.SubspaceState(N, coeffs)), layout, circuit)
            target = np.zeros(2**layout.lam, dtype=complex)
            target[: N + 1] = coeffs
            worst_fid = min(worst_fid, simcore.fidelity_up_to_global_phase(
                reduced, simcore.StateVector(layout.lam, target)))
        ok &= worst_clean >= 1 - 1e-12 and worst_fid >= 1 - 1e-10
        details.append(f"N={N}: clean {1 - worst_clean:.1e}, fid gap {1 - worst_fid:.1e}, "
                       f"gates {report.gate_count} <= {GATE_COUNT_C * N * layout.lam:.0f}")
    assert _line(7, ok, "; ".join(details))


def test_criterion_08_pattern_determinism():
    rng = np.random.default_rng(99)
    ok = True
    details = []

    reports = [mbqc.verify_pattern(mbqc.teleport_pattern(phi), mbqc.teleport_unitary(phi))
               for phi in (0.0, 1.2, -0.8)]
    ok &= all(r.passed for r in reports)
    details.append(f"teleport min fid {min(r.min_fidelity for r in reports):.12f}")

    reports = [mbqc.verify_pattern(mbqc.y_rotation_pattern(phi), mbqc.ry_matrix(phi))
               for phi in rng.uniform(-math.pi, math.pi, size=10)]
    ok &= all(r.passed for r in reports)
    details.append(f"yrot(10 angles) min fid {min(r.min_fidelity for r in reports):.12f}")

    report = mbqc.verify_pattern(mbqc.cnot_pattern(), mbqc.CNOT_MATRIX)
    ok &= report.passed
    details.append(f"cnot min fid {report.min_fidelity:.12f}")

    for N in (2, 3, 4):
        pattern = mbqc.ghz_pattern(N)
        ok &= pattern.graph.n_vertices == 2 * N - 1
        report = mbqc.verify_pattern(pattern, probes.ghz_state(N))
        ok &= report.passed and abs(report.probability_sum - 1.0) <= 1e-10
    details.append("ghz N<=4 ok, 2N-1 vertices")

    for N in (1, 2, 3):
        pattern = mbqc.sine_pattern(N)
        ok &= pattern.graph.n_vertices <= mbqc.sine_pattern_vertex_budget(N)
        report = mbqc.verify_pattern(pattern, probes.unary_embedding(probes.sine_coefficients(N)))
        ok &= report.passed and abs(report.probability_sum - 1.0) <= 1e-10
    details.append("sine N<=3 ok, <= 3(4N-2) vertices")

    assert _line(8, ok, "; ".join(details))


def test_criterion_09_noisy_local_equivalence():
    worst = 0.0
    for N in (1, 4):
        for sigma in (0.3, 0.8):
            if N == 1:
                probe, povm = PLUS_PROBE, est.single_qubit_optimal_povm(0.0)
            else:
                probe, povm = probes.sine_coefficients(N), est.qft_povm(N)
            worst = max(worst, est.noisy_local_equivalence_check(N, sigma, probe, povm))
    ok = worst < 1e-8
    assert _line(9, ok, f"max residual {worst:.2e} (tol 1e-8)")


def test_criterion_10_mse_limit_curve():
    low = float(est.mse_limit_curve([0.2])[0])
    high = float(est.mse_limit_curve([5 * math.pi / 4])[0])
    grid = np.linspace(math.pi / 2, 5 * math.pi / 4, 400)
    curve = est.mse_limit_curve(grid)
    crossing = bool(np.any(curve < 0.5) and np.any(curve > 0.5))
    ok = low < 1e-6 and high > 0.9 and crossing
    assert _line(10, ok, f"V/s^2 at 0.2: {low:.1e} (< 1e-6), at 5pi/4: {high:.3f} (> 0.9), "
                         f"0.5-crossing in [pi/2, 5pi/4]: {crossing}")


def test_criterion_11_closed_forms_vs_quadrature():
    worst_entry = 0.0
    worst_v = 0.0
    worst_cl = 0.0
    for N in (2, 6, 10):
        probe = probes.sine_coefficients(N)
        povm = est.qft_povm(N)
        for sigma in (0.1, 0.5, 1.0):
            prior = est.gaussian_prior(sigma, theta0=0.2)
            gamma, eta = est.gamma_eta(prior, probe)
            lo, hi = reference.support(prior)
            for kappa in range(-N, N + 1):
                char = reference._quad_complex(
                    lambda t: float(prior.pdf(t)) * np.exp(-1j * kappa * t), lo, hi)
                first = reference._quad_complex(
                    lambda t: t * float(prior.pdf(t)) * np.exp(-1j * kappa * t), lo, hi)
                i, j = (kappa, 0) if kappa >= 0 else (0, -kappa)
                outer = probe.coeffs[i] * probe.coeffs[j].conjugate()
                worst_entry = max(worst_entry, abs(gamma[i, j] - outer * char),
                                  abs(eta[i, j] - outer * first))
            closed = est.bayes_round(prior, probe, povm).avg_posterior_variance
            quad = reference.bayes_variance_quadrature(prior, probe, povm)
            worst_v = max(worst_v, abs(closed - quad) / quad)
            closed_cl = est.classical_parallel_variance(N, sigma)
            quad_cl = reference.classical_parallel_variance_quadrature(N, sigma)
            worst_cl = max(worst_cl, abs(closed_cl - quad_cl) / quad_cl)
    ok = worst_entry < 1e-8 and worst_v < 1e-6 and worst_cl < 1e-6
    assert _line(11, ok, f"Gamma/eta entrywise {worst_entry:.1e} (tol 1e-8), "
                         f"V rel {worst_v:.1e}, classical rel {worst_cl:.1e} (tol 1e-6)")
