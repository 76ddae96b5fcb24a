import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospin import field_square, hamiltonian_from_field, inner
from pseudospin.cli import _sweep_lines
from pseudospin.dynamics import evolve_state
from pseudospin.exceptions import (
    ImaginaryFrequencyError,
    NoRealSolutionError,
    NotRotatableError,
    ValidationError,
)
from pseudospin.linalg import SIGMA1, SIGMA3
from pseudospin.metric import canonical_limit_field, eta_adjoint
from pseudospin.rabi import (
    PseudoHermitianRabi,
    RabiParameters,
    classify_regime,
    lab_frame_field,
    nonrotating_hamiltonians,
    omega_squared,
    ph_condition_residual,
    ph_condition_residual_spin_valve,
    ph_rabi_amplitude,
    rabi_amplitude,
    rotating_frame_field,
    rotating_frame_hamiltonian,
    solve_suppression_B,
    solve_suppression_spin_valve,
    to_rotating_frame,
)

RNG = np.random.default_rng(11)

SUPPRESSED = RabiParameters(b=np.sqrt(1.5), b_z=1.0, omega=2.0, alpha=0.5)

# relative offsets of the solved amplitude: on, inside and outside the tolerance band
BAND_OFFSETS = [0.0] + [s * m for m in (1e-11, 3e-11, 1e-10, 3e-10, 1e-9) for s in (-1.0, 1.0)]


# ------------------------------------------------------------------- fields


def test_lab_frame_field_undamped():
    p = RabiParameters(b=1.3, b_z=0.4, omega=2.0)
    assert np.allclose(lab_frame_field(p, 0.0), [1.3, 0.0, 0.4], atol=1e-15)
    quarter = 0.5 * np.pi / p.omega
    assert np.allclose(lab_frame_field(p, quarter), [0.0, 1.3, 0.4], atol=1e-15)


def test_lab_frame_field_damped_factor():
    p = RabiParameters(b=1.3, b_z=0.4, omega=2.0, alpha=0.5)
    u = (1 + 0.5j) / 1.25
    assert np.allclose(lab_frame_field(p, 0.0), u * np.array([1.3, 0.0, 0.4]), atol=1e-15)


def test_rotating_frame_field_undamped_detuning():
    p = RabiParameters(b=1.1, b_z=0.7, omega=0.5)
    assert np.allclose(rotating_frame_field(p), [1.1, 0.0, 0.2], atol=1e-15)


def test_to_rotating_frame_real_drive():
    p = RabiParameters(b=0.9, b_z=1.4, omega=2.2)
    h = to_rotating_frame(lambda t: hamiltonian_from_field(lab_frame_field(p, t)), p.omega)
    assert np.allclose(h, 0.5 * (p.delta * SIGMA3 + p.b * SIGMA1), atol=1e-12)


def test_to_rotating_frame_zero_frequency():
    p = RabiParameters(b=0.9, b_z=1.4, omega=0.0)
    h = to_rotating_frame(lambda t: hamiltonian_from_field([p.b, 0, p.b_z]), 0.0)
    assert np.allclose(h, hamiltonian_from_field([p.b, 0, p.b_z]), atol=1e-14)


def test_to_rotating_frame_damped_drive():
    p = RabiParameters(b=0.9, b_z=1.4, omega=2.2, alpha=0.6)
    h = to_rotating_frame(lambda t: hamiltonian_from_field(lab_frame_field(p, t)), p.omega)
    assert np.allclose(h, rotating_frame_hamiltonian(p), atol=1e-12)


def test_to_rotating_frame_rejects_mismatched_frequency():
    p = RabiParameters(b=0.9, b_z=1.4, omega=2.2)
    with pytest.raises(NotRotatableError):
        to_rotating_frame(lambda t: hamiltonian_from_field(lab_frame_field(p, t)), 1.0)


def test_frame_convention_of_lab_and_rotating_fields():
    p = RabiParameters(b=1.0, b_z=0.5, omega=1.7, alpha=0.8)
    h_rot = to_rotating_frame(lambda t: hamiltonian_from_field(lab_frame_field(p, t)), p.omega)
    assert np.linalg.norm(h_rot - rotating_frame_hamiltonian(p)) < 1e-13
    # the third components differ by exactly omega: the damping factor does not multiply the shift
    assert lab_frame_field(p, 0)[2] - rotating_frame_field(p)[2] == p.omega


# --------------------------------------------------------------- amplitudes


def test_rabi_amplitude_resonance_full_contrast():
    p = RabiParameters(b=-1.4, b_z=2.0, omega=2.0)
    for t in np.linspace(0, 8, 17):
        expected = -1j * np.sign(p.b) * np.sin(0.5 * abs(p.b) * t)
        assert rabi_amplitude(p, t) == pytest.approx(expected, abs=1e-14)


def test_rabi_amplitude_zero_time():
    assert rabi_amplitude(RabiParameters(1.0, 1.0, 0.5), 0.0) == 0.0


def test_rabi_amplitude_detuned_value_and_evolution():
    p = RabiParameters(b=1.0, b_z=1.0, omega=0.0)  # delta = 1
    t = np.pi
    expected = -1j / np.sqrt(2.0) * np.sin(np.pi * np.sqrt(2.0) / 2.0)
    assert rabi_amplitude(p, t) == pytest.approx(expected, abs=1e-14)
    up, down = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    amp = inner(up, evolve_state(rotating_frame_hamiltonian(p), down, t))
    assert amp == pytest.approx(expected, abs=1e-12)


def test_rabi_amplitude_requires_zero_damping():
    with pytest.raises(ValidationError):
        rabi_amplitude(RabiParameters(1.0, 1.0, 0.5, alpha=0.1), 1.0)


# ---------------------------------------------------------------- condition


def test_condition_residual_reference_point():
    assert ph_condition_residual(SUPPRESSED) == pytest.approx(0.0, abs=1e-14)


def test_condition_residual_undamped_form():
    p = RabiParameters(b=1.2, b_z=0.9, omega=0.4)
    d = p.delta
    assert ph_condition_residual(p) == pytest.approx(p.b**2 + d**2 + d * p.omega, abs=1e-14)


def test_condition_residual_degenerate_zero():
    assert ph_condition_residual(RabiParameters(0.0, 0.3, 0.3)) == 0.0


def test_condition_residual_is_imag_of_field_square():
    for _ in range(50):
        p = RabiParameters(*RNG.uniform(-2, 2, size=3), alpha=RNG.uniform(0.05, 1.2))
        sq = field_square(rotating_frame_field(p))
        assert ph_condition_residual(p) == pytest.approx(
            sq.imag * (1 + p.alpha**2) ** 2 / (2 * p.alpha), abs=1e-10
        )


def test_classify_regimes():
    assert classify_regime(RabiParameters(1.0, 1.0, 2.0)) == "hermitian"
    assert classify_regime(SUPPRESSED) == "pseudo_hermitian"
    assert classify_regime(RabiParameters(1.0, 2.0, 2.0, alpha=0.5)) == "critical"
    assert classify_regime(RabiParameters(1.0, 1.0, 2.0, alpha=0.5)) == "non_pseudo_hermitian"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j, "1.0"])
@pytest.mark.parametrize("name", ["b", "b_z", "omega", "alpha", "a"])
def test_rabi_parameters_refuse_a_non_finite_or_non_real_field(name, bad):
    # a NaN b was classified "critical": the critical test looks only at the detuning
    fields = {"b": 1.0, "b_z": 1.0, "omega": 1.0, "alpha": 0.3, "a": 0.0, name: bad}
    with pytest.raises(ValidationError, match=f"^{name}: expected a finite real number, got"):
        RabiParameters(**fields)


# ------------------------------------------------------------------ solvers


def test_suppression_amplitude_reference_point():
    b = solve_suppression_B(1.0, 2.0, 0.5)
    assert b == pytest.approx(np.sqrt(1.5), abs=1e-15)
    p = RabiParameters(b=b, b_z=1.0, omega=2.0, alpha=0.5)
    assert abs(ph_condition_residual(p)) < 1e-12
    assert p.delta < 0


def test_suppression_below_resonance_impossible():
    # radicand 1 * (0.5 * 1.01 - 1) < 0
    with pytest.raises(NoRealSolutionError):
        solve_suppression_B(1.0, 0.5, 0.1)


def test_suppression_boundary_small_alpha():
    # at b_z = omega the amplitude closes down linearly in alpha
    for alpha in (0.1, 0.01, 1e-4):
        assert solve_suppression_B(1.0, 1.0, alpha) == pytest.approx(alpha, rel=1e-12)


def test_suppression_rejects_breaking_regime():
    # radicand positive but detuning above zero: imaginary oscillation frequency
    with pytest.raises(NoRealSolutionError):
        solve_suppression_B(2.2, 2.0, 0.5)


def test_suppression_validates_inputs():
    with pytest.raises(ValidationError):
        solve_suppression_B(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        solve_suppression_B(1.0, 1.0, 0.0)


def test_suppression_detuning_always_negative():
    count = 0
    for _ in range(300):
        b_z, omega, alpha = RNG.uniform(0.05, 3, size=3)
        try:
            solve_suppression_B(b_z, omega, alpha)
        except (NoRealSolutionError, ValidationError):
            continue
        count += 1
        assert b_z - omega < 0
    assert count > 50


def test_spin_valve_reduces_to_plain_condition():
    for _ in range(50):
        b_z, omega, alpha = RNG.uniform(0.05, 3, size=3)
        try:
            plain = solve_suppression_B(b_z, omega, alpha)
        except (NoRealSolutionError, ValidationError):
            continue
        assert solve_suppression_spin_valve(b_z, omega, alpha, 0.0) == plain


def test_spin_valve_reference_point():
    # b^2 = 1.5 + 0.2 * (0.05 - 0.75 + 2.5) = 1.86
    b = solve_suppression_spin_valve(1.0, 2.0, 0.5, 0.1)
    assert b**2 == pytest.approx(1.86, abs=1e-14)


def test_spin_valve_bracket_root():
    b_z, omega, alpha = 1.0, 2.0, 0.5
    a = (b_z * (1 - alpha**2) - omega * (1 + alpha**2)) / alpha
    b = solve_suppression_spin_valve(b_z, omega, alpha, a)
    assert b**2 == pytest.approx(omega * (1 + alpha**2) * b_z - b_z**2, abs=1e-12)


def test_spin_valve_shifted_residual():
    b = solve_suppression_spin_valve(1.0, 2.0, 0.5, 0.1)
    p = RabiParameters(b=b, b_z=1.0, omega=2.0, alpha=0.5, a=0.1)
    assert abs(ph_condition_residual_spin_valve(p)) < 1e-12


def test_spin_valve_no_real_solution():
    with pytest.raises(NoRealSolutionError):
        solve_suppression_spin_valve(3.0, 0.2, 0.5, 0.01)


# ------------------------------------------------- pseudo-Hermitian problem


def test_ph_rabi_accepts_only_suppression_surface():
    with pytest.raises(ValidationError):
        PseudoHermitianRabi(RabiParameters(1.0, 1.0, 2.0, alpha=0.5))


def test_ph_rabi_rejects_imaginary_frequency_side():
    # condition holds at b_z = 2.2, omega = 2, alpha = 0.5 but delta > 0
    p = RabiParameters(b=np.sqrt(0.66), b_z=2.2, omega=2.0, alpha=0.5)
    assert abs(ph_condition_residual(p)) < 1e-12
    with pytest.raises(ImaginaryFrequencyError):
        PseudoHermitianRabi(p)


def test_ph_rabi_consistency_triangle():
    pr = PseudoHermitianRabi(SUPPRESSED)
    sq = pr.transverse**2 + pr.axial**2
    assert sq == pytest.approx(2.0, abs=1e-12)  # -delta * omega
    assert pr.omega_sq == pytest.approx(2.0, abs=1e-14)
    b = pr.b_field()
    assert b[0] ** 2 + b[2] ** 2 == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(b, np.sqrt(2 / 2.5) * np.array([np.sqrt(1.5), 0, -1]), atol=1e-12)


def test_ph_rabi_b_field_matches_canonical_limit():
    p = SUPPRESSED

    def family(a):
        u = (1 + 1j * a) / (1 + a**2)
        return np.array([u * p.b, 0.0, u * p.b_z - p.omega])

    assert np.allclose(
        PseudoHermitianRabi(p).b_field(), canonical_limit_field(family, p.alpha), atol=1e-12
    )


def test_ph_rabi_metric_matches_printed_form():
    pr = PseudoHermitianRabi(SUPPRESSED)
    p = pr.params
    f, d = pr.transverse, pr.axial
    omega_r, omega_osc = p.rabi_freq, pr.oscillation_freq
    denom = p.b**2 * pr.omega_sq
    shift = p.delta * omega_osc - d * omega_r
    expected = (1.0 / denom) * np.array(
        [
            [abs(f) ** 2 * omega_r**2, np.conj(f) * omega_r * shift],
            [f * omega_r * np.conj(shift), denom + abs(shift) ** 2],
        ]
    )
    assert np.allclose(pr.metric_pair().eta, expected, atol=1e-12)


def test_ph_amplitude_closed_form():
    pr = PseudoHermitianRabi(SUPPRESSED)
    for t in np.linspace(0.0, 10.0, 21):
        expected = -1j * np.sqrt(0.6) * np.sin(t / np.sqrt(2.0))
        assert ph_rabi_amplitude(pr, t) == pytest.approx(expected, abs=1e-13)
    assert ph_rabi_amplitude(pr, 0.0) == 0.0


def test_ph_amplitude_matches_metric_evolution():
    pr = PseudoHermitianRabi(SUPPRESSED)
    pair = pr.metric_pair()
    h = pr.hamiltonian()
    up = pair.isometry @ np.array([1.0, 0.0])
    down = pair.isometry @ np.array([0.0, 1.0])
    for t in np.linspace(0.0, 20.0, 41):
        amp = inner(up, evolve_state(h, down, t), pair.eta)
        assert amp == pytest.approx(ph_rabi_amplitude(pr, t), abs=1e-10)


def test_ph_amplitude_zero_damping_limit_recovers_undamped_form():
    b_z, omega = 1.0, 2.0
    undamped = RabiParameters(b=1.0, b_z=b_z, omega=omega)
    for alpha in (1e-3, 1e-5):
        b = solve_suppression_B(b_z, omega, alpha)
        pr = PseudoHermitianRabi(RabiParameters(b=b, b_z=b_z, omega=omega, alpha=alpha))
        for t in (0.7, 3.1):
            assert ph_rabi_amplitude(pr, t) == pytest.approx(
                rabi_amplitude(undamped, t), abs=5 * alpha
            )


def test_ph_amplitude_critical_point_is_silent():
    pr = PseudoHermitianRabi(RabiParameters(b=1.0, b_z=2.0, omega=2.0, alpha=0.5))
    assert pr.is_critical
    assert pr.omega_sq == 0.0
    assert ph_rabi_amplitude(pr, 5.0) == 0.0


def test_is_critical_is_the_tolerance_test_of_classify_regime():
    p = RabiParameters(b=1.0, b_z=2.0 + 4e-12, omega=2.0, alpha=0.5)
    assert classify_regime(p) == "critical"
    assert PseudoHermitianRabi(p).is_critical


def test_rotating_field_is_the_rotating_frame_field():
    p = RabiParameters(b=1.0, b_z=2.0 + 4e-12, omega=2.0, alpha=0.5)
    pr = PseudoHermitianRabi(p)
    assert pr.rotating_field().tobytes() == rotating_frame_field(p).tobytes()
    assert pr.hamiltonian().tobytes() == rotating_frame_hamiltonian(p).tobytes()
    assert pr.transverse == p.damping_factor() * p.b
    assert pr.axial == p.damping_factor() * p.b_z - p.omega


def test_omega_squared_branches():
    assert omega_squared(PseudoHermitianRabi(SUPPRESSED)) == pytest.approx(2.0, abs=1e-12)
    # undamped point on the surface: omega_sq equals the Rabi frequency squared
    undamped = PseudoHermitianRabi(RabiParameters(b=1.0, b_z=1.0, omega=2.0))
    assert omega_squared(undamped) == pytest.approx(undamped.params.rabi_freq_sq, abs=1e-14)
    # |alpha| = 1: b^2 + delta^2 = omega^2 and omega_sq = |delta| omega_r
    unit = PseudoHermitianRabi(RabiParameters(b=np.sqrt(3.0), b_z=1.0, omega=2.0, alpha=1.0))
    assert omega_squared(unit) == pytest.approx(2.0, abs=1e-12)
    assert omega_squared(unit) == pytest.approx(-unit.params.delta * unit.params.omega, abs=1e-10)


def _unit_alpha_tolerance(alpha: float, omega: float) -> float:
    """Absolute tolerance of omega_squared: alpha^2 / (1 - alpha^2) (Omega_R^2 - omega^2)
    cancels as |alpha| -> 1 and loses a factor 1 / |1 - alpha^2|; |alpha| = 1 has its own form."""
    gap = abs(1.0 - alpha**2)
    return 16e-16 * omega**2 / (gap if gap else 1.0)


@settings(max_examples=300, deadline=None)
@given(
    omega=st.floats(0.05, 3.0),
    ratio=st.floats(0.02, 0.98),  # b_z / omega: solvable side, off the critical point
    exponent=st.floats(-12.0, -2.0),
    side=st.sampled_from([-1.0, 0.0, 1.0]),  # 0: |alpha| exactly 1
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_omega_squared_near_unit_alpha(omega, ratio, exponent, side, sign):
    alpha = sign * (1.0 + side * 10.0**exponent)
    b_z = ratio * omega
    pr = PseudoHermitianRabi(
        RabiParameters(solve_suppression_B(b_z, omega, alpha), b_z, omega, alpha)
    )
    expected = -pr.params.delta * omega
    assert abs(omega_squared(pr) - expected) <= _unit_alpha_tolerance(alpha, omega)


def test_nonrotating_hamiltonians_structure():
    pr = PseudoHermitianRabi(SUPPRESSED)
    h_real, h_dressed = nonrotating_hamiltonians(pr)
    pair = pr.metric_pair()
    b = pr.b_field()
    for t in (0.0, 0.37, 1.9):
        # independent assembly: rotate the canonical-limit field back and add the frame shift
        field = [
            b[0] * np.cos(pr.params.omega * t),
            b[0] * np.sin(pr.params.omega * t),
            b[2] + pr.params.omega,
        ]
        assert np.allclose(h_real(t), hamiltonian_from_field(field), atol=1e-13)
        hd = h_dressed(t)
        assert np.allclose(hd, pair.isometry @ h_real(t) @ np.linalg.inv(pair.isometry))
        assert np.allclose(eta_adjoint(hd, pair.eta), hd, atol=1e-12)


def test_nonrotating_hamiltonians_undamped_limit_is_lab_drive():
    pr = PseudoHermitianRabi(RabiParameters(b=1.0, b_z=1.0, omega=2.0))
    h_real, h_dressed = nonrotating_hamiltonians(pr)
    for t in (0.0, 0.4, 2.2):
        lab = hamiltonian_from_field(lab_frame_field(pr.params, t))
        assert np.allclose(h_real(t), lab, atol=1e-13)
        assert np.allclose(h_dressed(t), lab, atol=1e-13)


# ------------------------------------------------------ suppression surface


def _surface_verdicts(p: RabiParameters) -> tuple:
    """(regime says suppressed, PseudoHermitianRabi constructs, and for the CLI sweep's record of
    p, taken from a grid that also holds alpha = 0 and 2 b: regime says suppressed, omega_sq
    non-null)."""
    try:
        PseudoHermitianRabi(p)
        constructs = True
    except (ValidationError, ImaginaryFrequencyError):
        constructs = False
    lines = list(_sweep_lines([[p.b, 2.0 * p.b], [p.b_z], [p.omega], [0.0, p.alpha], [p.a]], 1e-10))
    record = json.loads(lines[1])
    assert (record["b"], record["alpha"]) == (p.b, p.alpha)
    return (
        classify_regime(p) == "pseudo_hermitian",
        constructs,
        record["regime"] == "pseudo_hermitian",
        record["omega_sq"] is not None,
    )


def _near_surface_points(seed: int, drives: int) -> list:
    """Solved amplitudes at random drives (alpha up to 9), scaled by BAND_OFFSETS."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < drives * len(BAND_OFFSETS):
        b_z, omega = rng.uniform(0.05, 3.0, size=2)
        alpha = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 9.0)
        try:
            b = solve_suppression_B(b_z, omega, alpha)
        except NoRealSolutionError:
            continue
        points += [RabiParameters(b * (1.0 + e), b_z, omega, alpha) for e in BAND_OFFSETS]
    return points


def test_surface_deciders_agree_on_seeded_band():
    points = _near_surface_points(seed=2, drives=300)
    verdicts = [_surface_verdicts(p) for p in points]
    disagreements = [p for p, v in zip(points, verdicts) if len(set(v)) != 1]
    assert disagreements == []
    # the band is populated on both sides of the decision
    assert 0 < sum(v[0] for v in verdicts) < len(points)
    assert any(abs(p.alpha) > 1.0 for p in points)


@settings(max_examples=300, deadline=None)
@given(
    omega=st.floats(0.05, 3.0),
    ratio=st.floats(0.02, 0.98),  # b_z / omega: solvable side, off the critical point
    alpha=st.floats(0.05, 9.0),
    exponent=st.floats(-11.5, -8.5),
    sign=st.sampled_from([-1.0, 0.0, 1.0]),
)
def test_surface_deciders_agree_property(omega, ratio, alpha, exponent, sign):
    b_z = ratio * omega
    b = solve_suppression_B(b_z, omega, alpha)
    p = RabiParameters(b * (1.0 + sign * 10.0**exponent), b_z, omega, alpha)
    assert len(set(_surface_verdicts(p))) == 1
