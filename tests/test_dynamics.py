import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pseudospin import IDENTITY2, SIGMA, hamiltonian_from_field, inner
from pseudospin.dynamics import (
    Trajectory,
    bloch_canonical,
    bloch_eta,
    bloch_exact,
    bloch_model,
    correspondence_residual,
    effective_field,
    evolve_state,
    evolve_trajectory,
    integrate,
    rhs_damped_precession,
    rhs_llg,
    rhs_llg_spin_torque,
)
from pseudospin.exceptions import StepTooLargeError, ValidationError, ZeroStateError
from pseudospin.linalg import validate_metric
from pseudospin.metric import build_isometry

from helpers import plane_rotation, random_state, reference_rhs, reference_rk4

RNG = np.random.default_rng(42)


def damped_pair(v=1.0, alpha=0.6):
    f = np.array([v, 0.0, 1j * alpha])
    b = np.array([np.sign(v) * np.sqrt(v**2 - alpha**2), 0.0, 0.0])
    return f, b


def random_unit(rng):
    n = rng.standard_normal(3)
    return n / np.linalg.norm(n)


# ------------------------------------------------------------- state evolution


def test_evolve_state_at_zero_time():
    psi = random_state(RNG)
    h = hamiltonian_from_field(RNG.standard_normal(3))
    assert np.allclose(evolve_state(h, psi, 0.0), psi, atol=1e-15)


def test_transition_amplitude_real_field():
    # <up, exp(-iHt) down> = -i (B1/E) sin(E t / 2) for an in-plane real field
    b1, b3 = 1.3, -0.6
    e = np.sqrt(b1**2 + b3**2)
    h = hamiltonian_from_field([b1, 0, b3])
    up, down = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for t in np.linspace(0.0, 12.0, 25):
        amp = inner(up, evolve_state(h, down, t))
        assert amp == pytest.approx(-1j * (b1 / e) * np.sin(0.5 * e * t), abs=1e-12)


def test_transition_amplitude_damped_field_under_metric():
    # eta-amplitude between mapped spin states oscillates with no decay
    v, alpha = 1.0, 0.6
    f, b = damped_pair(v, alpha)
    pair = build_isometry(f, b)
    h = hamiltonian_from_field(f)
    up = pair.isometry @ np.array([1.0, 0.0])
    down = pair.isometry @ np.array([0.0, 1.0])
    freq = 0.5 * np.sqrt(v**2 - alpha**2)
    for t in np.linspace(0.0, 20.0, 40):
        amp = inner(up, evolve_state(h, down, t), pair.eta)
        assert amp == pytest.approx(-1j * np.sin(freq * t), abs=1e-11)


def test_eta_norm_conserved_canonical_norm_not():
    v, alpha = 1.0, 0.6
    f, b = damped_pair(v, alpha)
    pair = build_isometry(f, b)
    h = hamiltonian_from_field(f)
    psi0 = pair.isometry @ np.array([0.0, 1.0])
    psi0 = psi0 / np.sqrt(inner(psi0, psi0, pair.eta).real)
    eta_drift = 0.0
    canonical_dev = 0.0
    for t in np.linspace(0.0, 100.0, 401):
        psi = evolve_state(h, psi0, t)
        eta_drift = max(eta_drift, abs(inner(psi, psi, pair.eta).real - 1.0))
        canonical_dev = max(canonical_dev, abs(inner(psi, psi).real - 1.0))
    assert eta_drift < 1e-9
    assert canonical_dev > 1e-3


# ------------------------------------------------------------- Bloch readout


def test_bloch_canonical_basis_states():
    assert np.allclose(bloch_canonical([1, 0]), [0, 0, 1])
    assert np.allclose(bloch_canonical(np.array([1, 1]) / np.sqrt(2)), [1, 0, 0])
    assert np.allclose(bloch_canonical(np.array([1, 1j]) / np.sqrt(2)), [0, 1, 0])


def test_bloch_canonical_rejects_zero_state():
    with pytest.raises(ZeroStateError):
        bloch_canonical([0, 0])


def test_bloch_canonical_names_an_overflowing_state():
    # |psi|^2 = 1e400 is not finite: an overflow, not a numerically zero state
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="overflows") as info:
        bloch_canonical([1e200, 0])
    assert not isinstance(info.value, ZeroStateError)


def test_bloch_eta_identity_metric_reduces_to_canonical():
    for _ in range(5):
        psi = random_state(RNG)
        assert np.allclose(bloch_eta(psi, IDENTITY2, "bare"), bloch_canonical(psi), atol=1e-14)


def test_bloch_eta_dressed_equals_canonical_of_preimage():
    f, b = damped_pair()
    pair = build_isometry(f, b)
    for _ in range(10):
        psi = random_state(RNG)
        dressed = bloch_eta(pair.isometry @ psi, pair.eta, "dressed", pair.isometry)
        assert np.allclose(dressed, bloch_canonical(psi), atol=1e-12)
        assert dressed.dtype == np.float64


def test_bloch_eta_bare_real_field_limit():
    # with b = f the metric is the identity and the eigenstate points along b
    b = np.array([0.6, 0.0, 0.8])
    pair = build_isometry(b, b)
    from pseudospin.metric import eigenpairs_complex

    (plus, _), _ = eigenpairs_complex(b)
    n = bloch_eta(plus, pair.eta, "bare")
    assert np.allclose(n.real, b, atol=1e-12)
    assert np.max(np.abs(n.imag)) < 1e-14


def test_bloch_eta_bare_can_be_complex():
    f, b = damped_pair()
    eta = build_isometry(f, b).eta
    n = bloch_eta(np.array([1.0, 0.0]), eta, "bare")
    assert n.dtype == np.complex128
    assert np.max(np.abs(n.imag)) > 1e-3  # reported, not truncated


# ------------------------------------------------------------ classical RHS


def test_damped_precession_real_field_is_pure_precession():
    for _ in range(10):
        n, b = random_unit(RNG), RNG.standard_normal(3)
        assert np.allclose(rhs_damped_precession(n, b), -np.cross(n, b), atol=1e-15)


def test_damped_precession_fixed_point():
    b = np.array([0.0, 0.0, 2.0])
    assert np.allclose(rhs_damped_precession([0, 0, 1], b), 0.0)


def test_damped_precession_imaginary_axis_field():
    # n = x, F = i z: double cross product gives +z
    out = rhs_damped_precession([1, 0, 0], [0, 0, 1j])
    brute = -np.cross([1, 0, 0], np.cross([1, 0, 0], [0, 0, 1]))
    assert np.allclose(out, [0, 0, 1], atol=1e-15)
    assert np.allclose(out, brute, atol=1e-15)


def test_effective_field_cases():
    b = RNG.standard_normal(3)
    n = random_unit(RNG)
    assert np.allclose(effective_field(n, b), b, atol=1e-15)
    assert np.allclose(effective_field([0, 0, 1], [0, 0, 0.7 + 0.3j]), [0, 0, 0.7], atol=1e-15)


def test_damped_precession_is_cross_with_effective_field():
    for _ in range(20):
        n = random_unit(RNG)
        f = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        lhs = rhs_damped_precession(n, f)
        assert np.allclose(lhs, -np.cross(n, effective_field(n, f)), atol=1e-12)


def test_llg_zero_damping_is_precession():
    n, b = random_unit(RNG), RNG.standard_normal(3)
    assert np.allclose(rhs_llg(n, b, 0.0), -np.cross(n, b), atol=1e-15)


def test_llg_equals_damped_precession_with_complex_field():
    for _ in range(200):
        n = random_unit(RNG)
        b = RNG.uniform(-2, 2, size=3)
        alpha = RNG.uniform(0.0, 1.5)
        f = (1 + 1j * alpha) * b.astype(complex) / (1 + alpha**2)
        assert np.linalg.norm(rhs_damped_precession(n, f) - rhs_llg(n, b, alpha)) < 1e-12


def test_llg_axial_field_raises_z_component():
    b = np.array([0.0, 0.0, 1.2])
    alpha = 0.3
    n = np.array([np.sin(1.0), 0.0, np.cos(1.0)])
    dn = rhs_llg(n, b, alpha)
    expected_z = alpha / (1 + alpha**2) * b[2] * (1 - n[2] ** 2)
    assert dn[2] == pytest.approx(expected_z, abs=1e-14)
    assert dn[2] > 0


def test_spin_torque_reduces_to_llg():
    n, b = random_unit(RNG), RNG.standard_normal(3)
    assert np.allclose(rhs_llg_spin_torque(n, b, 0.4, 0.0, [0, 0, 1]), rhs_llg(n, b, 0.4))


def test_spin_torque_is_imaginary_field_shift():
    # adding a*n x (n x P) is the same as subtracting i*a*P from the complex field
    for _ in range(50):
        n = random_unit(RNG)
        b = RNG.uniform(-2, 2, size=3)
        alpha, a = RNG.uniform(0.1, 1.0), RNG.uniform(-0.5, 0.5)
        p = random_unit(RNG)
        f = (1 + 1j * alpha) * b.astype(complex) / (1 + alpha**2) - 1j * a * p
        lhs = rhs_llg_spin_torque(n, b, alpha, a, p)
        assert np.linalg.norm(lhs - rhs_damped_precession(n, f)) < 1e-13


def test_spin_torque_axial_polarization_shift():
    b = np.array([0.9, -0.2, 1.1])
    alpha, a = 0.5, 0.2
    n = random_unit(RNG)
    f = (1 + 1j * alpha) * b.astype(complex) / (1 + alpha**2) + np.array([0, 0, -1j * a])
    assert np.allclose(
        rhs_llg_spin_torque(n, b, alpha, a, [0, 0, 1]), rhs_damped_precession(n, f), atol=1e-13
    )


def test_spin_torque_validates_polarization():
    with pytest.raises(ValidationError):
        rhs_llg_spin_torque([0, 0, 1], [0, 0, 1], 0.1, 0.1, [0, 0, 2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spin_torque_rejects_non_finite_polarization(bad):
    # abs(|P| - 1) > tol is False for a NaN norm; the guard must still refuse it
    with pytest.raises(ValidationError):
        rhs_llg_spin_torque([1, 0, 0], [0, 0, 1], 0.1, 0.05, [bad, 0, 0])


CROSS_SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 5e-324])


@settings(max_examples=150, deadline=None)
@given(
    n=hnp.arrays(
        np.float64, st.sampled_from([(3,), (5, 3), (2, 1, 3), (1, 4, 3)]),
        elements=st.floats() | CROSS_SPECIALS,
    ),
    v=hnp.arrays(np.float64, 3, elements=st.floats() | CROSS_SPECIALS),
)
def test_cross_is_numpy_cross_bit_for_bit(n, v):
    # Re(F) = -0.0 is the exact additive identity (it keeps a -0.0 and every inf and NaN), so
    # effective_field is then n x Im(F) alone, on one vector or a stack of them
    field = np.full(3, -0.0, dtype=complex)
    field.imag = v
    with np.errstate(all="ignore"):
        got, want = effective_field(n, field), np.cross(n, v)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_cross_rejects_non_3_vectors():
    # numpy.cross would take 2-vectors (with a DeprecationWarning); the public rates refuse them
    n, field = np.ones((4, 2)), [1.0, 0.0, 0.5j]
    calls = [
        lambda: rhs_llg(n, [0.0, 0.0, 1.0], 0.1),
        lambda: rhs_damped_precession(n, field),
        lambda: effective_field(n, field),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"n: expected 3-vectors, got shape \(4, 2\)"):
            call()


# ---------------------------------------------------------------- integrator


def test_integrate_pure_precession_against_analytic_solution():
    # dn/dt = -n x B = B x n with B = z is right-handed rotation about z:
    # n(t) = (cos t, sin t, 0) from n(0) = x.
    b = np.array([0.0, 0.0, 1.0])
    t = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    traj = integrate(lambda n: rhs_damped_precession(n, b), [1, 0, 0], t)
    expected = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    assert np.max(np.abs(traj.states - expected)) < 1e-8


def test_integrate_zero_rhs_is_constant():
    t = np.linspace(0.0, 1.0, 11)
    traj = integrate(lambda n: np.zeros(3), [0, 1, 0], t)
    assert np.allclose(traj.states, [0, 1, 0])
    assert np.allclose(traj.norms["raw"], 1.0)


def test_integrate_llg_against_tanh_oracle():
    # axial field decouples n3: dn3/dt = c (1 - n3^2), n3(t) = tanh(c t + artanh(n3_0))
    alpha, bz = 0.1, 1.0
    c = alpha * bz / (1 + alpha**2)
    n0 = np.array([np.sin(1.2), 0.0, np.cos(1.2)])
    t = np.arange(0.0, 5.0 + 1e-12, 1e-3)
    traj = integrate(lambda n: rhs_llg(n, [0, 0, bz], alpha), n0, t)
    expected = np.tanh(c * t + np.arctanh(n0[2]))
    assert np.max(np.abs(traj.states[:, 2] - expected)) < 1e-9


def test_integrate_norm_drift_small():
    f = np.array([0.4, -0.3, 0.9]) + 1j * np.array([0.2, 0.1, -0.3])
    t = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    traj = integrate(lambda n: rhs_damped_precession(n, f), random_unit(RNG), t)
    assert np.max(np.abs(traj.norms["raw"] - 1.0)) < 1e-8


def test_integrate_renormalize_projects():
    f = np.array([1.0, 0.0, 0.5 + 0.5j])
    t = np.linspace(0.0, 2.0, 201)
    traj = integrate(lambda n: rhs_damped_precession(n, f), [0, 0, 1], t, renormalize=True)
    assert np.allclose(traj.norms["projected"], 1.0, atol=1e-14)


def test_integrate_step_too_large():
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(StepTooLargeError):
        integrate(lambda n: [5.0 * x for x in n], [1, 0, 0], t)
    with pytest.raises(StepTooLargeError):  # a NaN drift is not below the threshold
        integrate(lambda n: np.full(3, np.nan), [1, 0, 0], t)


def _kicked_rate(kick_step, kick):
    """A zero rate, except that the four stages of step kick_step return kick; and its calls."""
    calls = []

    def rate(n):
        calls.append(None)
        return kick if (len(calls) - 1) // 4 == kick_step else (0.0, 0.0, 0.0)

    return rate, calls


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize(
    "kick_step, kick, message",
    [
        (3, (1000.0, 0.0, 0.0), "norm drifted by 0.414 in one step at t=0.003; reduce the step"),
        (3, (np.nan,) * 3, "norm drifted by nan in one step at t=0.003; reduce the step"),
        (5000, (1000.0, 0.0, 0.0), "norm drifted by 0.414 in one step at t=5; reduce the step"),
    ],
)
def test_integrate_refuses_the_first_drifting_step_within_a_block(
    kick_step, kick, message, renormalize
):
    # norms and drifts are checked per block of 4,096 steps: the refusal names the first
    # drifting step, as a per-step check did, and at most one block of steps runs past it
    rate, calls = _kicked_rate(kick_step, kick)
    t = np.arange(100_001) * 1e-3
    with pytest.raises(StepTooLargeError) as info:
        integrate(rate, [0, 1, 0], t, renormalize=renormalize)
    assert str(info.value) == message
    assert 4 * (kick_step + 1) <= len(calls) <= 4 * (4096 + kick_step)


@pytest.mark.parametrize("renormalize", [False, True])
def test_integrate_refuses_a_zero_raw_norm(renormalize):
    # the rate -n0 / h steps n0 to exactly 0; with renormalize that norm is not divided by
    t = np.linspace(0.0, 2.0, 3)
    rate, _ = _kicked_rate(0, (-1.0, 0.0, 0.0))
    with pytest.raises(StepTooLargeError, match="drifted by 1 in one step at t=0;"):
        integrate(rate, [1, 0, 0], t, renormalize=renormalize)


@pytest.mark.parametrize("renormalize", [False, True])
def test_integrate_across_a_block_boundary_is_bit_identical_to_reference_rk4(renormalize):
    alpha = 0.15
    rate, _ = bloch_model("llg", PINNED_B, alpha)
    n0, t = np.array([0.48, 0.6, 0.64]), np.arange(5001) * 1e-3
    traj = integrate(rate, n0, t, renormalize=renormalize)
    reference = reference_rhs("llg", PINNED_B, alpha)
    states, raw, projected = reference_rk4(reference, n0, t, renormalize)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.norms["raw"], raw)
    assert np.array_equal(traj.norms["projected"], projected)


def test_integrate_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        integrate(lambda n: n, [2, 0, 0], np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        integrate(lambda n: n, [np.nan, 0, 0], np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        integrate(lambda n: n, [[1, 0, 0]], np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        integrate(lambda n: n, [1, 0, 0], np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValidationError, match="at least one sample"):
        integrate(lambda n: n, [1, 0, 0], [])


def _public_rhs(model, field, alpha, a, p):
    """integrate right-hand side of one bloch model through its public rhs_* (ndarray in, out)."""
    if model == "damped":
        return lambda n: rhs_damped_precession(n, field)
    if model == "llg":
        return lambda n: rhs_llg(n, field, alpha)
    return lambda n: rhs_llg_spin_torque(n, field, alpha, a, p)


PINNED_B, PINNED_IM = np.array([0.3, -0.7, 1.1]), np.array([0.2, 0.1, -0.3])
PINNED_P = np.array([0.6, 0.0, 0.8])


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("model", ["damped", "llg", "llg_spin_valve"])
def test_integrate_is_bit_identical_to_reference_rk4(model, renormalize):
    alpha, a = 0.15, 0.07
    field = PINNED_B + 1j * PINNED_IM if model == "damped" else PINNED_B
    rhs = _public_rhs(model, field, alpha, a, PINNED_P)
    reference = reference_rhs(model, field, alpha, a, PINNED_P)
    n0, t = np.array([0.48, 0.6, 0.64]), np.linspace(0.0, 4.0, 201)
    traj = integrate(rhs, n0, t, renormalize=renormalize)
    states, raw, projected = reference_rk4(reference, n0, t, renormalize)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.norms["raw"], raw)
    assert np.array_equal(traj.norms["projected"], projected)


def _unit(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


ANGLES = st.floats(0.0, np.pi)
AZIMUTHS = st.floats(0.0, 2.0 * np.pi)


@settings(max_examples=50, deadline=None)
@given(
    model=st.sampled_from(["damped", "llg", "llg_spin_valve"]),
    b=st.builds(lambda r, th, ph: r * _unit(th, ph), st.floats(0.5, 1.5), ANGLES, AZIMUTHS),
    im=hnp.arrays(np.float64, 3, elements=st.floats(-0.5, 0.5)),
    alpha=st.floats(0.05, 0.5),
    a=st.floats(0.05, 0.5) | st.floats(-0.5, -0.05),
    p=st.builds(_unit, ANGLES, AZIMUTHS),
    theta=ANGLES,
    phi=AZIMUTHS,
    renormalize=st.booleans(),
)
def test_integrate_is_fourth_order_against_exact_trajectory(
    model, b, im, alpha, a, p, theta, phi, renormalize
):
    # the canonical Bloch vector of exp(-i F_eq.sigma t / 2) psi(n0) solves the
    # damped precession under F_eq exactly (the paper's classical correspondence)
    rhs, f_eq = bloch_model(model, b + 1j * im if model == "damped" else b, alpha, a, p)
    n0 = _unit(theta, phi)
    errors = []
    for h in (0.1, 0.05):
        t = np.linspace(0.0, 4.0, round(4.0 / h) + 1)
        exact = bloch_exact(f_eq, n0, t)
        traj = integrate(rhs, n0, t, renormalize=renormalize)
        errors.append(np.max(np.abs(traj.states - exact)))
    assert errors[0] <= 0.1**4  # C h^4 with C = 1; C reaches about 0.3
    if errors[0] > 1e-9:  # below this the start sits on a fixed point and the ratio is noise
        assert 12.0 <= errors[0] / errors[1] <= 20.0


@settings(max_examples=50, deadline=None)
@given(
    f=hnp.arrays(np.complex128, 3, elements=st.complex_numbers(max_magnitude=2.0)),
    theta=ANGLES,
    phi=AZIMUTHS,
    t=st.floats(0.0, 5.0),
)
def test_bloch_exact_is_the_bloch_vector_of_the_evolved_coherent_state(f, theta, phi, t):
    psi0 = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    expected = bloch_canonical(evolve_state(hamiltonian_from_field(f), psi0, t))
    assert np.allclose(bloch_exact(f, _unit(theta, phi), t), expected, rtol=0, atol=1e-12)


def test_bloch_exact_cases():
    t = np.linspace(0.0, 2.0, 9)
    circle = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)  # -n x z from x
    assert np.allclose(bloch_exact([0, 0, 1], [1, 0, 0], t), circle, rtol=0, atol=1e-15)
    assert np.array_equal(bloch_exact([0, 0, 1 + 1j], [0, 0, -1], t), np.tile([0, 0, -1.0], (9, 1)))
    assert bloch_exact([0.3, 0, 1], [1, 0, 0], np.zeros((2, 4))).shape == (2, 4, 3)
    with pytest.raises(ValidationError, match="unit length"):
        bloch_exact([0, 0, 1], [1, 1, 0], 1.0)


MODELS = ["damped", "llg", "llg_spin_valve"]
REALS = hnp.arrays(np.float64, 3, elements=st.floats(-1.5, 1.5))
IMAGS = hnp.arrays(np.float64, 3, elements=st.floats(-0.5, 0.5))
UNITS = st.builds(_unit, ANGLES, AZIMUTHS)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    renormalize=st.booleans(),
    b=REALS,
    im=IMAGS,
    alpha=st.floats(-1.0, 1.0),
    a=st.floats(-0.5, 0.5),
    p=UNITS,
    n0=UNITS,
)
def test_model_table_rate_is_bit_identical_to_reference_rk4(model, renormalize, b, im, alpha, a, p, n0):
    # the bloch CLI path: bloch_model's float-triple rate, stepped by integrate
    field = b + 1j * im if model == "damped" else b
    rate, _ = bloch_model(model, field, alpha, a, p)
    t = np.linspace(0.0, 1.0, 21)
    traj = integrate(rate, n0, t, renormalize=renormalize)
    reference = reference_rhs(model, field, alpha, a, p)
    states, raw, projected = reference_rk4(reference, n0, t, renormalize)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.norms["raw"], raw)
    assert np.array_equal(traj.norms["projected"], projected)


# signed zeros, infinities, NaN, the largest and the smallest subnormal double
SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 5e-324])


@settings(max_examples=150, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    stack=hnp.arrays(
        np.float64, st.tuples(st.integers(1, 6), st.just(3)),
        elements=st.floats(-4.0, 4.0) | SPECIALS,
    ),
    b=hnp.arrays(np.float64, 3, elements=st.floats(-1.5, 1.5) | SPECIALS),
    im=hnp.arrays(np.float64, 3, elements=st.floats(-0.5, 0.5) | SPECIALS),
    alpha=st.floats(-2.0, 2.0),
    a=st.floats(-2.0, 2.0),
    p=UNITS,
)
def test_public_rhs_on_a_stack_equals_its_rows_and_numpy_cross(model, stack, b, im, alpha, a, p):
    field = b
    if model == "damped":
        field = b.astype(complex)
        field.imag = im  # set, not added: 1j * inf would put a NaN in the real part
    rhs = _public_rhs(model, field, alpha, a, p)
    with np.errstate(all="ignore"):
        stacked = rhs(stack)
        rows = np.array([rhs(row) for row in stack])
        reference = reference_rhs(model, field, alpha, a, p)(0.0, stack)
    assert stacked.shape == stack.shape and stacked.dtype == np.float64
    # signs are compared off the NaNs: IEEE 754 leaves a NaN's sign open, and NumPy's scalar
    # and array loops made NaNs of either sign from the same inf - inf
    signed = ~np.isnan(stacked)
    for other in (rows, reference):
        assert np.array_equal(stacked, other, equal_nan=True)
        assert np.array_equal(np.signbit(stacked[signed]), np.signbit(other[signed]))


def test_model_table_rejects_unknown_model_and_polarization():
    with pytest.raises(ValidationError, match="unknown bloch model"):
        bloch_model("gilbert", [0.0, 0.0, 1.0], 0.1)
    with pytest.raises(ValidationError, match="unit vector"):
        bloch_model("llg_spin_valve", [0.0, 0.0, 1.0], 0.1, 0.05, [0.0, 0.0, 2.0])
    with pytest.raises(ValidationError, match="alpha: expected a finite real number, got inf"):
        bloch_model("llg", [0.0, 0.0, 1.0], float("inf"))


@pytest.mark.parametrize(
    "model, field, params, message",
    [
        ("llg", [0.0, 0.0, 1.0], {}, "'llg' needs alpha"),
        ("llg_spin_valve", [0.0, 0.0, 1.0], {"alpha": 0.1, "a": 0.05}, "needs polarization"),
        ("llg_spin_valve", [0.0, 0.0, 1.0], {}, "needs alpha, a, polarization"),
        ("llg", [0.0, 0.0, 1.0 + 5.0j], {"alpha": 0.1}, "needs a real field"),
    ],
)
def test_model_table_names_what_a_model_is_missing(model, field, params, message):
    with pytest.raises(ValidationError, match=message):
        bloch_model(model, field, **params)


COMPLEX_B = np.array([0.0, 0.0, 1.0 + 5.0j])
AXIS = [0.0, 0.0, 1.0]


@pytest.mark.parametrize("n", [[1.0, 0.0, 0.0], np.tile([0.6, 0.0, 0.8], (4, 1))],
                         ids=["vector", "stack"])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda n: rhs_llg(n, COMPLEX_B, 0.1), "needs a real field"),
        (lambda n: rhs_llg_spin_torque(n, COMPLEX_B, 0.1, 0.05, AXIS), "needs a real field"),
        (lambda n: rhs_llg(n, AXIS, None), "'llg' needs alpha"),
        (lambda n: rhs_llg_spin_torque(n, AXIS, None, 0.05, AXIS), "needs alpha"),
        (lambda n: rhs_llg_spin_torque(n, AXIS, 0.1, None, AXIS), "needs a$"),
        (lambda n: rhs_llg(n, AXIS, float("nan")), "alpha: expected a finite real number"),
        (lambda n: rhs_llg_spin_torque(n, AXIS, 0.1, 0.05j, AXIS), "a: expected a finite real"),
        (lambda n: rhs_llg_spin_torque(n, AXIS, 0.1, 0.05, [1.0, 0.0]),
         r"polarization: expected shape \(3,\), got \(2,\)"),
        (lambda n: rhs_llg(n, AXIS, 1e200), r"alpha: 1 \+ alpha\*\*2 overflows, got 1e\+200"),
        (lambda n: rhs_llg_spin_torque(n, AXIS, -1e200, 0.05, AXIS),
         r"alpha: 1 \+ alpha\*\*2 overflows"),
    ],
    ids=["llg-complex-field", "spin-valve-complex-field", "llg-alpha-none",
         "spin-valve-alpha-none", "spin-valve-a-none", "llg-alpha-nan", "spin-valve-a-complex",
         "spin-valve-polarization-2-vector", "llg-alpha-square-overflows",
         "spin-valve-alpha-square-overflows"],
)
def test_public_rhs_refuses_what_the_model_table_refuses(n, call, message):
    # the public rhs_* are views of bloch_model: same refusals, same ValidationError
    with pytest.raises(ValidationError, match=message):
        call(n)


@pytest.mark.parametrize(
    "model, params", [("llg", {}), ("llg_spin_valve", {"a": 0.05, "polarization": AXIS})]
)
@pytest.mark.parametrize("alpha", [1e200, -1.4e154, 1.7976931348623157e308, 10**200])
def test_model_table_names_alpha_when_its_square_overflows(model, params, alpha):
    with pytest.raises(ValidationError, match=r"^alpha: 1 \+ alpha\*\*2 overflows, got "):
        bloch_model(model, AXIS, alpha, **params)


def test_model_table_takes_an_alpha_whose_square_is_just_finite():
    rate, f_eq = bloch_model("llg", AXIS, 1.3e154)
    assert all(math.isfinite(c) for c in rate((1.0, 0.0, 0.0)))
    assert np.isfinite(f_eq).all()


def test_trajectory_requires_increasing_times():
    with pytest.raises(ValidationError):
        Trajectory(times=[0.0, 0.0], states=np.zeros((2, 3)))


def test_integrate_checks_its_grid_once(monkeypatch):
    def check(self):
        raise AssertionError("Trajectory checked again a grid integrate had checked")

    monkeypatch.setattr(Trajectory, "__post_init__", check)
    rate, _ = bloch_model("llg", AXIS, 0.1)
    traj = integrate(rate, [1.0, 0.0, 0.0], np.linspace(0.0, 1.0, 11))
    assert traj.times.dtype == float and traj.states.shape == (11, 3) and len(traj) == 11


@pytest.mark.parametrize(
    "grid, error, message",
    [
        ([0.0, 0.1, 0.3], ValidationError, "^time grid must be uniform and increasing$"),
        ([0.0, 0.0, 0.0], ValidationError, "^time grid must be uniform and increasing$"),
        # steps this fine are within the uniformity tolerance of 0: Trajectory's check decides
        ([0.0, 1e-22, 1e-22], ValidationError, "^times must be strictly increasing$"),
        ([0.0, np.nan, 1.0], StepTooLargeError, "^norm drifted by nan in one step at t=0"),
    ],
)
def test_integrate_refuses_a_bad_grid(grid, error, message):
    rate, _ = bloch_model("llg", AXIS, 0.1)
    with pytest.raises(error, match=message):
        integrate(rate, [1.0, 0.0, 0.0], np.array(grid))


# ----------------------------------------------------------- correspondence


def test_correspondence_residual_single_point():
    h = hamiltonian_from_field([1, 0, 0])
    assert correspondence_residual(h, [1, 0], [0.0]) == 0.0


def test_correspondence_order_hermitian():
    h = hamiltonian_from_field([0.8, 0.0, 0.5])
    psi0 = np.array([0.9, 0.1 + 0.4j])
    r_coarse = correspondence_residual(h, psi0, np.arange(0.0, 1.0, 1e-2))
    r_fine = correspondence_residual(h, psi0, np.arange(0.0, 1.0, 5e-3))
    assert r_coarse / r_fine == pytest.approx(4.0, rel=0.4)


def test_correspondence_order_non_hermitian():
    h = hamiltonian_from_field([0.8, 0.0, 0.5 + 0.4j])
    psi0 = np.array([0.9, 0.1 + 0.4j])
    r_coarse = correspondence_residual(h, psi0, np.arange(0.0, 1.0, 1e-2))
    r_fine = correspondence_residual(h, psi0, np.arange(0.0, 1.0, 5e-3))
    assert r_coarse / r_fine == pytest.approx(4.0, rel=0.4)


def test_correspondence_eta_routes():
    f, b = damped_pair()
    pair = build_isometry(f, b)
    h = hamiltonian_from_field(f)
    psi0 = pair.isometry @ np.array([0.4, 1.0])
    grid = np.arange(0.0, 2.0, 2e-3)
    # complex identity with bare observables, real precession with dressed ones
    r_bare = correspondence_residual(h, psi0, grid, eta=pair.eta, observables="bare")
    r_dressed = correspondence_residual(
        h, psi0, grid, eta=pair.eta, observables="dressed", isometry=pair.isometry
    )
    assert r_bare < 1e-5
    assert r_dressed < 1e-5


def test_evolve_trajectory_norm_columns():
    f, b = damped_pair()
    pair = build_isometry(f, b)
    h = hamiltonian_from_field(f)
    t = np.linspace(0.0, 10.0, 101)
    traj = evolve_trajectory(h, [0.2, 1.0], t, eta=pair.eta, observables="dressed", isometry=pair.isometry)
    assert np.max(np.abs(traj.norms["eta"] - 1.0)) < 1e-11
    assert np.max(np.abs(traj.norms["canonical"] - 1.0)) > 1e-3
    assert np.max(np.abs(np.linalg.norm(traj.states.real, axis=1) - 1.0)) < 1e-11


READOUTS = ("canonical", "bare", "dressed")


def _readout_case(rng, readout):
    """Traceless H; for the eta readouts a pseudo-Hermitian one with its metric pair."""
    if readout == "canonical":
        return hamiltonian_from_field(rng.standard_normal(3) + 1j * rng.standard_normal(3)), {}
    # an in-plane real field turned by a complex angle about the second axis
    b = np.array([rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), 0.0, rng.standard_normal()])
    f = plane_rotation(1, rng.uniform(-np.pi, np.pi) + 0.5j * rng.uniform(-1.0, 1.0)) @ b
    pair = build_isometry(f, b)
    return hamiltonian_from_field(f), {"eta": pair.eta, "observables": readout,
                                       "isometry": pair.isometry}


def _sample_by_sample(h, psi0, t, eta=None, observables="bare", isometry=None):
    """Reference: one evolve_state and one Bloch readout per sample, as a loop.

    The readout is also spelled out with np.vdot and 2x2 products, so the
    rows pin the arithmetic of the per-sample formulas, not only agreement
    between a scalar and a broadcast call of the same code.
    """
    m = IDENTITY2 if eta is None else validate_metric(eta)
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.sqrt(np.vdot(psi, m @ psi).real)
    rows, canonical, metric = [], [], []
    for tk in t:
        v = evolve_state(h, psi, tk - t[0])
        canonical.append(np.sqrt(np.vdot(v, v).real))
        if eta is None:
            row = np.array([np.vdot(v, s @ v).real for s in SIGMA]) / np.vdot(v, v).real
            assert np.array_equal(bloch_canonical(v), row)
            metric.append(canonical[-1])
        else:
            if observables == "bare":
                row = np.array([np.vdot(v, m @ (s @ v)) for s in SIGMA])
            else:
                iso, iso_inv = isometry, np.linalg.inv(isometry)
                row = np.array([np.vdot(v, m @ (iso @ s @ (iso_inv @ v))).real for s in SIGMA])
            row = row / np.vdot(v, m @ v).real
            assert np.array_equal(bloch_eta(v, eta, observables, isometry), row)
            metric.append(np.sqrt(np.vdot(v, eta @ v).real))
        rows.append(row)
    return rows, canonical, metric


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    readout=st.sampled_from(READOUTS),
    traced=st.booleans(),
    samples=st.integers(2, 40),
)
def test_evolve_trajectory_rows_equal_sample_by_sample(seed, readout, traced, samples):
    rng = np.random.default_rng(seed)
    h, kwargs = _readout_case(rng, readout)
    if traced:  # evolve_state strips the trace into a global phase
        h = h + complex(*rng.standard_normal(2)) * IDENTITY2
    psi0 = random_state(rng)
    t = rng.uniform(-3.0, 3.0) + np.cumsum(rng.uniform(0.01, 0.5, size=samples))
    traj = evolve_trajectory(h, psi0, t, **kwargs)
    rows, canonical, metric = _sample_by_sample(h, psi0, t, **kwargs)
    for k in range(samples):
        assert np.array_equal(traj.states[k], rows[k])
        assert traj.norms["canonical"][k] == canonical[k]
        assert traj.norms["eta"][k] == metric[k]


@pytest.mark.parametrize("readout", READOUTS)
def test_evolve_trajectory_single_and_empty_grid(readout):
    rng = np.random.default_rng(3)
    h, kwargs = _readout_case(rng, readout)
    psi0 = random_state(rng)
    single = evolve_trajectory(h, psi0, [2.5], **kwargs)
    rows, canonical, metric = _sample_by_sample(h, psi0, [2.5], **kwargs)
    assert single.states.shape == (1, 3)
    assert np.array_equal(single.states[0], rows[0])
    assert single.norms["canonical"][0] == canonical[0] and single.norms["eta"][0] == metric[0]
    empty = evolve_trajectory(h, psi0, [], **kwargs)
    assert len(empty) == 0 and empty.states.shape == (0, 3)
    assert empty.norms["canonical"].shape == empty.norms["eta"].shape == (0,)
