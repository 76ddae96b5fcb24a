"""Driven two-level scenarios: rotating frames, damping, and its suppression.

A circularly driven spin with transverse amplitude b, splitting b_z and
drive frequency omega becomes time-independent in the rotating frame.
Damping enters as a complex dressing (1 + i alpha)/(1 + alpha^2) of the
drive field; for special parameter combinations the dressed field has a
real square-sum, the evolution is unitary under the induced metric, and
the damping is completely suppressed.  This module carries the closed
forms for both regimes plus the solvers for the suppression condition,
including its spin-valve (spin-transfer torque) extension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ImaginaryFrequencyError,
    NoRealSolutionError,
    NotRotatableError,
    PseudospinError,
    ValidationError,
)
from .linalg import SIGMA3, _require_finite_reals, as_operator, hamiltonian_from_field
from .metric import MetricPair, build_isometry

REGIME_HERMITIAN = "hermitian"
REGIME_CRITICAL = "critical"
REGIME_PSEUDO_HERMITIAN = "pseudo_hermitian"
REGIME_NON_PSEUDO_HERMITIAN = "non_pseudo_hermitian"


@dataclass(frozen=True)
class RabiParameters:
    """Drive parameters: transverse amplitude b, splitting b_z, frequency omega,
    Gilbert parameter alpha, spin-torque coefficient a (0 for a plain drive)."""

    b: float
    b_z: float
    omega: float
    alpha: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        _require_finite_reals(vars(self))

    @property
    def delta(self) -> float:
        """Detuning b_z - omega."""
        return self.b_z - self.omega

    @property
    def rabi_freq_sq(self) -> float:
        return self.b**2 + self.delta**2

    @property
    def rabi_freq(self) -> float:
        return float(np.sqrt(self.rabi_freq_sq))

    def damping_factor(self) -> complex:
        return (1.0 + 1j * self.alpha) / (1.0 + self.alpha**2)


def lab_frame_field(p: RabiParameters, t: float) -> np.ndarray:
    """Rotating drive field in the lab frame, damping-dressed.

    (1 + i alpha)/(1 + alpha^2) * (b cos wt, b sin wt, b_z); at alpha = 0
    this is the plain circular drive.
    """
    u = p.damping_factor()
    return u * np.array(
        [p.b * np.cos(p.omega * t), p.b * np.sin(p.omega * t), p.b_z], dtype=complex
    )


def rotating_frame_field(p: RabiParameters) -> np.ndarray:
    """Time-independent field in the frame co-rotating with the drive.

    The frame change subtracts omega from the third component only; the
    damping factor multiplies the lab field, not the frame shift.
    """
    u = p.damping_factor()
    return np.array([u * p.b, 0.0, u * p.b_z - p.omega], dtype=complex)


def rotating_frame_hamiltonian(p: RabiParameters) -> np.ndarray:
    return hamiltonian_from_field(rotating_frame_field(p))


def to_rotating_frame(h_lab, omega: float) -> np.ndarray:
    """Transform a lab-frame Hamiltonian map t -> H(t) into the rotating frame.

    Returns i (dR/dt) R^(-1) + R H R^(-1) with R = exp(i omega sigma_3 t / 2),
    evaluated at t = 0, after checking that the transformed operator is in
    fact time-independent, within 1e-12 relative, at five times spread over 1.31 periods.
    """

    def rotated(t: float) -> np.ndarray:
        phase = np.exp(0.5j * omega * t)
        rz = np.diag([phase, 1.0 / phase])
        return rz @ as_operator(h_lab(t)) @ rz.conj().T - 0.5 * omega * SIGMA3

    period = 2.0 * np.pi / abs(omega) if omega != 0.0 else 1.0
    sample_times = period * np.array([0.0, 0.23, 0.57, 0.89, 1.31])
    base = rotated(float(sample_times[0]))
    scale = max(1.0, float(np.linalg.norm(base)))
    for t in sample_times[1:]:
        if np.linalg.norm(rotated(float(t)) - base) > 1e-12 * scale:
            raise NotRotatableError(
                "Hamiltonian is not static in a frame rotating at this frequency"
            )
    return rotated(0.0)


def rabi_amplitude(p: RabiParameters, t: float | np.ndarray) -> complex | np.ndarray:
    """Undamped spin-flip amplitude -i (b / Omega_R) sin(Omega_R t / 2), for t of any shape."""
    if p.alpha != 0.0:
        raise ValidationError("closed form requires zero damping; see the metric variant")
    omega_r = p.rabi_freq
    return _spin_flip(p.b, omega_r, omega_r, t)


def _spin_flip(b: float, omega_r: float, freq: float, t) -> complex | np.ndarray:
    """The spin-flip amplitude -i (b / Omega_R) sin(freq t / 2) of both Rabi problems; zero when
    Omega_R is."""
    if omega_r == 0.0:
        return np.zeros(np.shape(t), dtype=complex)
    return -1j * (b / omega_r) * np.sin(0.5 * freq * t)


def ph_condition_residual(p: RabiParameters) -> float:
    """Residual of the damping-suppression condition.

    b^2 + delta^2 - alpha^2 omega^2 + delta omega (1 - alpha^2); zero iff
    the dressed rotating-frame field has a real square-sum.
    """
    d = p.delta
    return p.b**2 + d**2 - (p.alpha * p.omega) ** 2 + d * p.omega * (1.0 - p.alpha**2)


def ph_condition_residual_spin_valve(p: RabiParameters) -> float:
    """Suppression residual with the spin-torque shift b_z -> b_z + i a.

    Imaginary part of the square-sum of the shifted rotating-frame field;
    zero iff the torque-compensated dynamics is pseudo-Hermitian.
    """
    return _spin_valve_residual(p.b, p.b_z, p.omega, p.alpha, p.a)


def _spin_valve_residual(b, b_z, omega, alpha, a) -> float:
    """ph_condition_residual_spin_valve of checked floats, without building RabiParameters."""
    u = (1.0 + 1j * alpha) / (1.0 + alpha**2)  # RabiParameters.damping_factor
    f = u * b
    delta_c = u * (b_z + 1j * a) - omega
    return float((f * f + delta_c * delta_c).imag)


def suppression_surface_error(p: RabiParameters, tol: float = 1e-10) -> PseudospinError | None:
    """None when p is on the suppression surface, else the error saying why not: ValidationError
    for |residual| > tol * scale, ImaginaryFrequencyError for delta * omega > tol * scale."""
    d, omega = p.delta, p.omega
    residual = ph_condition_residual(p)
    off, imaginary = _surface_test(
        residual, d * omega, p.b**2, d**2, omega**2, (p.alpha * omega) ** 2, tol
    )
    if off:
        return ValidationError("parameters do not satisfy the suppression condition")
    if imaginary:
        return ImaginaryFrequencyError(
            "detuning on the wrong side of resonance: eigenvalues are imaginary"
        )
    return None


def _surface_test(residual, delta_omega, b_sq, delta_sq, omega_sq, alpha_omega_sq, tol):
    """The surface test on precomputed terms, elementwise on floats or broadcast arrays:
    (|residual| > tol * scale, delta_omega > tol * scale) with scale the largest of 1 and the
    four squares.  Both false is on the surface.

    The only code with the tolerance scale and the sign test; a sweep calls it once per block
    of points.  fmax skips a NaN as max(1.0, ...) does; the small arrays come first, so a
    sweep's block takes one full-size fmax.
    """
    scale = np.fmax(np.fmax(np.fmax(1.0, delta_sq), np.fmax(omega_sq, alpha_omega_sq)), b_sq)
    bound = tol * scale
    return abs(residual) > bound, delta_omega > bound


def _is_critical(delta, omega, b_z, tol) -> bool:
    """Zero detuning within tolerance: classify_regime's critical test."""
    return abs(delta) <= tol * max(1.0, abs(omega), abs(b_z))


def classify_regime(p: RabiParameters, tol: float = 1e-10) -> str:
    """Parameter regime: hermitian (alpha = 0), critical (zero detuning, whatever the
    residual), pseudo-Hermitian (on the suppression surface, i.e. exactly when
    PseudoHermitianRabi accepts p) or non-pseudo-Hermitian."""
    if p.alpha == 0.0:
        return REGIME_HERMITIAN
    if _is_critical(p.delta, p.omega, p.b_z, tol):
        return REGIME_CRITICAL
    if suppression_surface_error(p, tol) is None:
        return REGIME_PSEUDO_HERMITIAN
    return REGIME_NON_PSEUDO_HERMITIAN


def solve_suppression_B(b_z: float, omega: float, alpha: float) -> float:
    """Transverse amplitude that suppresses damping, b = sqrt(b_z [w(1+a^2) - b_z]).

    Only the above-resonance side (delta * omega <= 0) admits suppression;
    a drive below the resonance frequency raises NoRealSolutionError, as
    does a nonpositive radicand.  This is the spin-valve solver at a = 0.
    """
    if b_z == 0.0:
        raise ValidationError("suppression condition needs b_z != 0 and alpha != 0")
    return solve_suppression_spin_valve(b_z, omega, alpha, 0.0)


def solve_suppression_spin_valve(b_z: float, omega: float, alpha: float, a: float) -> float:
    """Suppression amplitude for the spin-valve (torque-shifted) condition."""
    if alpha == 0.0:
        raise ValidationError("suppression condition needs alpha != 0")
    base = b_z * (omega * (1.0 + alpha**2) - b_z)
    sq = base + (a / alpha) * (alpha * a - b_z * (1.0 - alpha**2) + omega * (1.0 + alpha**2))
    if sq <= 0.0:
        raise NoRealSolutionError(f"squared amplitude {sq:.6g} is not positive")
    if a == 0.0 and (b_z - omega) * omega > 0.0:
        raise NoRealSolutionError("cannot suppress damping below the resonance frequency")
    return float(np.sqrt(sq))


@dataclass(frozen=True)
class PseudoHermitianRabi:
    """Rabi parameters on the suppression surface (validated at construction).

    The dressed rotating-frame field then has components (f, 0, d) with a
    real square-sum -delta * omega, real eigenvalue pair and a unique
    canonical-limit metric.  Construction raises suppression_surface_error's
    error; omega_sq is clamped at 0 within tolerance of the imaginary side.
    """

    params: RabiParameters
    tolerance: float = 1e-10

    def __post_init__(self):
        error = suppression_surface_error(self.params, self.tolerance)
        if error is not None:
            raise error

    @property
    def omega_sq(self) -> float:
        """Oscillation frequency squared, -delta * omega."""
        return max(-self.params.delta * self.params.omega, 0.0)

    @property
    def oscillation_freq(self) -> float:
        return float(np.sqrt(self.omega_sq))

    def b_field(self) -> np.ndarray:
        """Canonical-limit real field (Omega / Omega_R) (b, 0, delta)."""
        p = self.params
        return (self.oscillation_freq / p.rabi_freq) * np.array([p.b, 0.0, p.delta])

    def metric_pair(self) -> MetricPair:
        return build_isometry(rotating_frame_field(self.params), self.b_field())


def ph_rabi_amplitude(pr: PseudoHermitianRabi, t: float | np.ndarray) -> complex | np.ndarray:
    """Suppressed-damping spin-flip amplitude -i (b / Omega_R) sin(Omega t / 2), t of any shape.

    At the critical point (zero detuning) the frequency vanishes and the
    amplitude is identically zero.
    """
    return _spin_flip(pr.params.b, pr.params.rabi_freq, pr.oscillation_freq, t)


def omega_squared(pr: PseudoHermitianRabi) -> float:
    """Oscillation frequency squared from the Rabi frequency and damping.

    Omega_R^2 + alpha^2/(1 - alpha^2) (Omega_R^2 - omega^2) away from
    |alpha| = 1, |delta| Omega_R there; both agree with -delta * omega on
    the suppression surface.
    """
    p = pr.params
    if abs(p.alpha) == 1.0:
        return abs(p.delta) * p.rabi_freq
    return p.rabi_freq_sq + p.alpha**2 / (1.0 - p.alpha**2) * (p.rabi_freq_sq - p.omega**2)


def nonrotating_hamiltonians(pr: PseudoHermitianRabi):
    """Lab-frame Hamiltonian maps (h_real, h_dressed) for the suppressed drive.

    h_real(t) is the canonical-limit field rotated back to the lab frame
    (plus the frame shift); h_dressed(t) is its conjugation by the isometry
    and stays pseudo-Hermitian under the rotating-frame metric at all times.
    """
    p = pr.params
    omega_r = p.rabi_freq
    omega_osc = pr.oscillation_freq
    diag = p.delta * omega_osc + p.omega * omega_r
    off = p.b * omega_osc
    pair = pr.metric_pair()
    iso = pair.isometry
    iso_inv = np.linalg.inv(iso)

    def h_real(t: float) -> np.ndarray:
        phase = np.exp(-1j * p.omega * t)
        return (0.5 / omega_r) * np.array(
            [[diag, off * phase], [off / phase, -diag]], dtype=complex
        )

    def h_dressed(t: float) -> np.ndarray:
        return iso @ h_real(t) @ iso_inv

    return h_real, h_dressed
