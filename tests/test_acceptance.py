"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; each test also asserts, so a plain pytest run fails loudly.
"""

import itertools
import time

import numpy as np
import pytest

from pseudospin import (
    IDENTITY2,
    evolve_operator,
    hamiltonian_from_field,
    inner,
    principal_sqrt,
)
from pseudospin.dynamics import (
    bloch_canonical,
    bloch_eta,
    correspondence_residual,
    effective_field,
    evolve_state,
    rhs_damped_precession,
    rhs_llg,
)
from pseudospin.grassmann import (
    GrassmannElement,
    correspondence_suite,
    generator,
    graded_commutator,
    involution_star,
    precession_hamiltonian,
    quantize,
)
from pseudospin.linalg import SIGMA
from pseudospin.metric import build_isometry, canonical_rotation
from pseudospin.rabi import (
    PseudoHermitianRabi,
    RabiParameters,
    ph_condition_residual,
    ph_condition_residual_spin_valve,
    ph_rabi_amplitude,
    rotating_frame_hamiltonian,
    solve_suppression_B,
    solve_suppression_spin_valve,
)

RNG = np.random.default_rng(20260810)

SUPPRESSED = RabiParameters(b=np.sqrt(1.5), b_z=1.0, omega=2.0, alpha=0.5)


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def damped_pair(v, alpha):
    f = np.array([v, 0.0, 1j * alpha])
    b = np.array([np.sign(v) * np.sqrt(v**2 - alpha**2), 0.0, 0.0])
    return f, b


def test_ac01_damped_two_level_amplitude():
    """Metric amplitude of the damped two-level example: -i sin(0.4 t)."""
    start = time.perf_counter()
    v, alpha = 1.0, 0.6
    f, b = damped_pair(v, alpha)
    pair = build_isometry(f, b)
    h = hamiltonian_from_field(f)
    up = pair.isometry @ np.array([1.0, 0.0])
    down = pair.isometry @ np.array([0.0, 1.0])
    worst = 0.0
    for t in np.linspace(0.0, 50.0, 200):
        numeric = inner(up, evolve_operator(h, t) @ down, pair.eta)
        worst = max(worst, abs(numeric - (-1j * np.sin(0.4 * t))))
    elapsed = time.perf_counter() - start
    report(
        "AC1 damped amplitude -i sin(0.4 t), 200 samples on [0, 50]",
        worst < 1e-10 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f} s",
    )


def test_ac02_rabi_oscillations_against_rk4():
    """Closed-form Rabi amplitude vs batched RK4 state evolution, 20 draws."""
    start = time.perf_counter()
    count, t_max, steps = 20, 20.0, 20000
    h_step = t_max / steps
    bs = RNG.uniform(0.2, 2.0, count) * RNG.choice([-1, 1], count)
    deltas = RNG.uniform(-2.0, 2.0, count)
    omega_r = np.sqrt(bs**2 + deltas**2)
    hams = np.stack([hamiltonian_from_field([b, 0, d]) for b, d in zip(bs, deltas)])
    psis = np.tile(np.array([0.0, 1.0], dtype=complex), (count, 1))

    def deriv(states):
        return -1j * np.einsum("nij,nj->ni", hams, states)

    worst = 0.0
    for k in range(steps):
        k1 = deriv(psis)
        k2 = deriv(psis + 0.5 * h_step * k1)
        k3 = deriv(psis + 0.5 * h_step * k2)
        k4 = deriv(psis + h_step * k3)
        psis = psis + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (k + 1) % 100 == 0:
            t = (k + 1) * h_step
            closed = -1j * (bs / omega_r) * np.sin(0.5 * omega_r * t)
            worst = max(worst, float(np.max(np.abs(psis[:, 0] - closed))))
    elapsed = time.perf_counter() - start
    report(
        "AC2 Rabi amplitude vs RK4 on [0, 20], 20 random (b, delta)",
        worst < 1e-8 and elapsed < 5.0,
        f"max err {worst:.2e}, {elapsed:.2f} s",
    )


def test_ac03_suppressed_rabi_amplitude():
    """Suppressed-damping amplitude -i sqrt(0.6) sin(t / sqrt(2))."""
    residual = ph_condition_residual(SUPPRESSED)
    pr = PseudoHermitianRabi(SUPPRESSED)
    pair = pr.metric_pair()
    h = rotating_frame_hamiltonian(pr.params)
    up = pair.isometry @ np.array([1.0, 0.0])
    down = pair.isometry @ np.array([0.0, 1.0])
    worst = 0.0
    for t in np.linspace(0.0, 50.0, 200):
        numeric = inner(up, evolve_operator(h, t) @ down, pair.eta)
        closed = -1j * np.sqrt(0.6) * np.sin(t / np.sqrt(2.0))
        assert ph_rabi_amplitude(pr, t) == pytest.approx(closed, abs=1e-13)
        worst = max(worst, abs(numeric - closed))
    report(
        "AC3 suppressed Rabi amplitude matches metric evolution",
        abs(residual) < 1e-12 and worst < 1e-9,
        f"condition residual {residual:.2e}, max err {worst:.2e}",
    )


def test_ac04_unitarity_split():
    """Metric norm conserved to 1e-9 while the canonical norm wanders."""
    pr = PseudoHermitianRabi(SUPPRESSED)
    pair = pr.metric_pair()
    h = rotating_frame_hamiltonian(pr.params)
    psi0 = pair.isometry @ np.array([0.0, 1.0])
    psi0 = psi0 / np.sqrt(inner(psi0, psi0, pair.eta).real)
    eta_drift, canonical_dev = 0.0, 0.0
    for t in np.linspace(0.0, 100.0, 1001):
        psi = evolve_state(h, psi0, t)
        eta_drift = max(eta_drift, abs(inner(psi, psi, pair.eta).real - 1.0))
        canonical_dev = max(canonical_dev, abs(inner(psi, psi).real - 1.0))
    report(
        "AC4 unitarity split on [0, 100]",
        eta_drift < 1e-9 and canonical_dev > 1e-3,
        f"eta drift {eta_drift:.2e}, canonical deviation {canonical_dev:.2e}",
    )


def test_ac05_canonical_limit_monotone():
    """Metric approaches the identity linearly as the damping shrinks."""
    norms = []
    for alpha in (0.4, 0.2, 0.1, 0.05):
        f, b = damped_pair(1.0, alpha)
        norms.append(np.linalg.norm(build_isometry(f, b).eta - IDENTITY2))
    monotone = all(a > b for a, b in zip(norms, norms[1:]))
    ratios = [a / b for a, b in zip(norms, norms[1:])]
    linear = all(1.0 < r < 4.0 for r in ratios)
    report(
        "AC5 canonical limit: ||eta - I|| monotone, O(alpha)",
        monotone and linear,
        "norms " + ", ".join(f"{n:.3f}" for n in norms)
        + "; ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_ac06_gilbert_identification():
    """Damped precession with the dressed field reproduces the Gilbert form."""
    worst = 0.0
    for _ in range(1000):
        n = RNG.standard_normal(3)
        n /= np.linalg.norm(n)
        b = RNG.uniform(-2.0, 2.0, 3)
        alpha = RNG.uniform(0.0, 1.5)
        f = (1.0 + 1j * alpha) * b.astype(complex) / (1.0 + alpha**2)
        worst = max(worst, float(np.linalg.norm(rhs_damped_precession(n, f) - rhs_llg(n, b, alpha))))
    report("AC6 Gilbert damping identification, 1000 draws", worst < 1e-12, f"max {worst:.2e}")


def test_ac07_correspondence_order():
    """Finite-difference residual of the classical correspondence is O(h^2)."""
    psi0 = np.array([0.9, 0.1 + 0.4j])
    ratios = []
    for field in ([0.8, 0.0, 0.5], [0.8, 0.3, 0.5 + 0.4j]):
        h = hamiltonian_from_field(field)
        coarse = correspondence_residual(h, psi0, np.arange(0.0, 1.0, 1e-2))
        fine = correspondence_residual(h, psi0, np.arange(0.0, 1.0, 5e-3))
        ratios.append(coarse / fine)
    report(
        "AC7 correspondence residual shrinks ~4x per halved step",
        all(2.0 < r < 8.0 for r in ratios),
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_ac08_damping_suppression_witness():
    """On-condition: undamped metric precession; 5% off: visible damping."""
    pr = PseudoHermitianRabi(SUPPRESSED)
    pair = pr.metric_pair()
    h_on = rotating_frame_hamiltonian(pr.params)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi0 = psi0 / np.sqrt(inner(psi0, psi0, pair.eta).real)
    drift = 0.0
    ts = np.linspace(0.0, 50.0, 501)
    for t in ts:
        n = bloch_eta(evolve_state(h_on, psi0, t), pair.eta, "dressed", pair.isometry)
        drift = max(drift, abs(np.linalg.norm(n) - 1.0))

    p_off = RabiParameters(b=1.05 * SUPPRESSED.b, b_z=1.0, omega=2.0, alpha=0.5)
    u = p_off.damping_factor()
    f_off = np.array([u * p_off.b, 0.0, u * p_off.b_z - p_off.omega])
    h_off = hamiltonian_from_field(f_off)

    def alignment(t):
        n = bloch_canonical(evolve_state(h_off, [1.0, 0.0], t))
        f_eff = effective_field(n, f_off)
        return float(n @ f_eff / np.linalg.norm(f_eff))

    shift = abs(alignment(50.0) - alignment(0.0))
    report(
        "AC8 suppression keeps |n|; 5% detune shows damping",
        drift < 1e-7 and shift > 0.05,
        f"|n| drift {drift:.2e}, alignment shift {shift:.2f}",
    )


def test_ac09_rotation_properties():
    """500 random in-plane field pairs: R b = f, R R^T = I, det 1, R = R^(-1)."""
    worst = 0.0
    produced = 0
    while produced < 500:
        f1, f3 = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        square = f1**2 + f3**2
        if abs(square) < 0.3:
            continue
        angle = RNG.uniform(-np.pi, np.pi) + 1j * RNG.uniform(-0.4, 0.4)
        root = principal_sqrt(square)
        f = np.array([f1, 0.0, f3])
        b = np.array([root * np.cos(angle), 0.0, root * np.sin(angle)])
        r = canonical_rotation(f, b)
        worst = max(
            worst,
            float(np.linalg.norm(r @ b - f)),
            float(np.linalg.norm(r @ r.T - np.eye(3))),
            abs(np.linalg.det(r) - 1.0),
            float(np.linalg.norm(r @ r - np.eye(3))),
        )
        produced += 1
    report("AC9 rotation properties on 500 random pairs", worst < 1e-11, f"max {worst:.2e}")


def test_ac10_grassmann_suite():
    """Quantization identities, bracket correspondence, involution classes."""
    start = time.perf_counter()
    b = np.array([0.7, -1.1, 0.4])
    exact_h = np.array_equal(quantize(precession_hamiltonian(b)), hamiltonian_from_field(b))

    xi = [generator(i) for i in range(1, 4)]
    acomm_worst = 0.0
    for i in range(3):
        for j in range(3):
            acomm = graded_commutator(quantize(xi[i]), quantize(xi[j]), 1, 1)
            expected = IDENTITY2 if i == j else np.zeros((2, 2))
            acomm_worst = max(acomm_worst, float(np.max(np.abs(acomm - expected))))
    # the 1/sqrt(2) normalization is irrational: one ulp is the exactness floor
    acomm_ok = acomm_worst <= 4.5e-16

    suite = correspondence_suite(b)
    pairs_ok = all(
        entry["exact"] for entry in suite["generator_pairs"] + suite["hamiltonian_pairs"]
    )

    grid = np.array(list(itertools.product(*([(0.0, 1.0, 1j)] * 8))), dtype=complex)
    star_cols = []
    for m in range(8):
        e = GrassmannElement()
        e.coeffs[m] = 1.0
        star_cols.append(involution_star(e).coeffs)
    star = np.stack(star_cols, axis=1)
    fixed = np.max(np.abs(np.conj(grid) @ star.T - grid), axis=1) < 1e-12
    printed = np.all(np.abs(grid[:, [0, 1, 2, 4]].imag) < 1e-12, axis=1) & np.all(
        np.abs(grid[:, [3, 5, 6, 7]].real) < 1e-12, axis=1
    )
    classes_ok = bool(np.array_equal(fixed, printed))
    elapsed = time.perf_counter() - start
    report(
        "AC10 Grassmann quantization and correspondence suite",
        exact_h and acomm_ok and pairs_ok and classes_ok and elapsed < 10.0,
        f"anticommutator ulp {acomm_worst:.1e}, {elapsed:.2f} s",
    )


def test_ac11_spin_valve_condition():
    """Torque-shifted suppression: exact a = 0 reduction and residual check."""
    reduction_ok = True
    for _ in range(100):
        b_z, omega, alpha = RNG.uniform(0.05, 3.0, 3)
        try:
            plain = solve_suppression_B(b_z, omega, alpha)
        except Exception:
            continue
        reduction_ok &= solve_suppression_spin_valve(b_z, omega, alpha, 0.0) == plain

    b = solve_suppression_spin_valve(1.0, 2.0, 0.5, 0.1)
    value_ok = b**2 == pytest.approx(1.86, abs=1e-12)
    residual = ph_condition_residual_spin_valve(
        RabiParameters(b=b, b_z=1.0, omega=2.0, alpha=0.5, a=0.1)
    )
    report(
        "AC11 spin-valve condition: a=0 reduction, b^2 = 1.86, shifted residual",
        reduction_ok and value_ok and abs(residual) < 1e-10,
        f"b^2 {b**2:.6f}, residual {residual:.2e}",
    )
