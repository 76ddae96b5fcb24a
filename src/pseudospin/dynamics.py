"""State evolution, Bloch-vector extraction and the classical ODE family.

The quantum side evolves two-component states with the closed-form
evolution operator and reads out spin expectations under either the
canonical or a metric inner product.  The classical side is the matching
family of unit-vector ODEs: damped precession driven by a complex field,
the Gilbert-damped form, and its spin-torque extension.  A fixed-step RK4
integrator and a finite-difference correspondence check tie the two sides
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import StepTooLargeError, ValidationError, ZeroStateError
from .linalg import (
    SIGMA,
    as_field,
    as_operator,
    as_state,
    evolve_operator,
    pauli_decompose,
    validate_metric,
)


def evolve_state(op, psi0, t: float | np.ndarray) -> np.ndarray:
    """psi(t) = exp(-i H t) psi0 for time-independent H and t of any shape -> (..., 2).

    A trace part only contributes a global phase exp(-i tr(H) t / 2).
    """
    h = as_operator(op)
    t0, _ = pauli_decompose(h)
    u = evolve_operator(h - t0 * np.eye(2), t)
    if t0 != 0.0:
        u = np.exp(-1j * t0 * np.asarray(t, dtype=float))[..., None, None] * u
    return np.matvec(u, as_state(psi0))


def _norm_sq(v: np.ndarray, m=None) -> np.ndarray:
    """<v, v>, or <v, m v> with a metric m, over the last axis of a state stack."""
    nrm2 = np.vecdot(v, v if m is None else np.matvec(m, v)).real
    if not np.all(np.isfinite(nrm2) & (nrm2 >= 1e-300)):
        under = "" if m is None else " under eta"
        raise ZeroStateError(f"state vector is numerically zero{under}")
    return nrm2


def bloch_canonical(psi) -> np.ndarray:
    """Normalized spin expectation n_i = <psi, sigma_i psi> / <psi, psi>, per state of a stack."""
    v = as_state(psi)
    n = [np.vecdot(v, np.matvec(s, v)).real for s in SIGMA]
    return np.stack(n, axis=-1) / _norm_sq(v)[..., None]


def bloch_eta(psi, eta, observables: str = "bare", isometry=None) -> np.ndarray:
    """Spin expectation under the eta inner product, for a state or a stack (..., 2).

    observables="bare" averages the Pauli matrices themselves; they are not
    eta-Hermitian, so the components may come out complex and are reported
    as such.  observables="dressed" averages M sigma_i M^(-1) (requires the
    isometry), which are eta-Hermitian and give a real unit vector.
    """
    v = as_state(psi)
    m = validate_metric(eta)
    nrm2 = _norm_sq(v, m)[..., None]
    if observables == "bare":
        n = [np.vecdot(v, np.matvec(m, np.matvec(s, v))) for s in SIGMA]
    elif observables == "dressed":
        if isometry is None:
            raise ValidationError("dressed observables require the isometry")
        iso = as_operator(isometry)
        w = np.matvec(np.linalg.inv(iso), v)
        n = [np.vecdot(v, np.matvec(m, np.matvec(iso @ s, w))).real for s in SIGMA]
    else:
        raise ValidationError(f"unknown observable set {observables!r}")
    return np.stack(n, axis=-1) / nrm2


def rhs_damped_precession(n, field) -> np.ndarray:
    """n' = -n x Re(F) - n x (n x Im(F)) for a real unit vector n (or a stack (..., 3))."""
    nv = np.asarray(n, dtype=float)
    f = as_field(field)
    return -np.cross(nv, f.real) - np.cross(nv, np.cross(nv, f.imag))


def effective_field(n, field) -> np.ndarray:
    """Real field Re(F) + n x Im(F); the damped dynamics is -n x this."""
    nv = np.asarray(n, dtype=float)
    f = as_field(field)
    return f.real + np.cross(nv, f.imag)


def rhs_llg(n, real_field, alpha: float) -> np.ndarray:
    """Gilbert-damped precession for a real field and damping parameter alpha."""
    nv = np.asarray(n, dtype=float)
    b = np.asarray(real_field, dtype=float)
    scale = 1.0 + alpha**2
    return -np.cross(nv, b) / scale - alpha * np.cross(nv, np.cross(nv, b)) / scale


def rhs_llg_spin_torque(n, real_field, alpha: float, a: float, polarization) -> np.ndarray:
    """Gilbert form plus the spin-transfer torque a * n x (n x P), |P| = 1."""
    p = np.asarray(polarization, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-10:
        raise ValidationError("polarization direction must be a unit vector")
    nv = np.asarray(n, dtype=float)
    return rhs_llg(nv, real_field, alpha) + a * np.cross(nv, np.cross(nv, p))


@dataclass
class Trajectory:
    """Time series of states with per-sample norms and run metadata."""

    times: np.ndarray
    states: np.ndarray
    norms: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.states = np.asarray(self.states)
        if len(self.states) != len(self.times):
            raise ValidationError("states and times must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValidationError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)


def _uniform_step(t_grid: np.ndarray) -> float:
    if len(t_grid) < 2:
        return 0.0
    steps = np.diff(t_grid)
    h = steps[0]
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1e-12):
        raise ValidationError("time grid must be uniform and increasing")
    return float(h)


def integrate(rhs, n0, t_grid, renormalize: bool = False) -> Trajectory:
    """Classical fixed-step RK4 on n' = rhs(t, n).

    With renormalize the state is projected back to the unit sphere after
    every step.  Raw (pre-projection) and projected norms are both recorded.
    A single-step norm drift above 0.01 aborts with StepTooLargeError.
    """
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    h = _uniform_step(t)
    n = np.asarray(n0, dtype=float).copy()
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValidationError("initial Bloch vector must be unit length")

    states = np.empty((len(t), 3), dtype=float)
    raw = np.empty(len(t))
    projected = np.empty(len(t))
    states[0], raw[0], projected[0] = n, np.linalg.norm(n), np.linalg.norm(n)
    for k in range(len(t) - 1):
        tk = t[k]
        k1 = rhs(tk, n)
        k2 = rhs(tk + 0.5 * h, n + 0.5 * h * k1)
        k3 = rhs(tk + 0.5 * h, n + 0.5 * h * k2)
        k4 = rhs(tk + h, n + h * k3)
        n_new = n + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift = abs(np.linalg.norm(n_new) - np.linalg.norm(n))
        if drift > 0.01:
            raise StepTooLargeError(
                f"norm drifted by {drift:.3g} in one step at t={tk:.6g}; reduce the step"
            )
        raw[k + 1] = np.linalg.norm(n_new)
        if renormalize:
            n_new = n_new / np.linalg.norm(n_new)
        projected[k + 1] = np.linalg.norm(n_new)
        states[k + 1] = n_new
        n = n_new
    return Trajectory(
        times=t,
        states=states,
        norms={"raw": raw, "projected": projected},
        metadata={"method": "rk4", "step": h, "renormalize": bool(renormalize)},
    )


def evolve_trajectory(
    op, psi0, t_grid, eta=None, observables: str = "bare", isometry=None
) -> Trajectory:
    """Quantum trajectory: closed-form states on a grid with Bloch readout.

    The initial state is normalized under the active inner product.  Both
    the canonical and (when a metric is supplied) the eta norm are recorded
    per sample; without a metric the eta column repeats the canonical one.
    """
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    psi = as_state(psi0)
    m = None if eta is None else validate_metric(eta)
    psi = psi / np.sqrt(_norm_sq(psi, m))
    # t[:1] rather than t[0]: an empty grid gives an empty trajectory
    states = evolve_state(op, psi, t - t[:1])
    norm_canonical = np.sqrt(np.vecdot(states, states).real)
    if eta is None:
        norm_eta = norm_canonical
        bloch = bloch_canonical(states)
    else:
        norm_eta = np.sqrt(np.vecdot(states, np.matvec(eta, states)).real)
        bloch = bloch_eta(states, eta, observables, isometry)
    return Trajectory(
        times=t,
        states=bloch.astype(complex),
        norms={"canonical": norm_canonical, "eta": norm_eta},
        metadata={
            "method": "closed_form",
            "metric": "canonical" if eta is None else "eta",
            "observables": observables if eta is not None else "bare",
        },
    )


def correspondence_residual(
    op, psi0, t_grid, eta=None, observables: str = "bare", isometry=None
) -> float:
    """Max norm of (finite-difference dn/dt - predicted RHS) along a trajectory.

    The predicted RHS is the damped precession for the canonical readout and
    plain precession -n x F under the metric readout (with bare observables
    this is checked as a complex identity; with dressed ones against the
    real-field precession of the conjugated Hamiltonian).  The stencil is
    second order everywhere (central interior, one-sided edges), so the
    residual of an exact correspondence scales as the square of the step.
    """
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if len(t) < 2:
        return 0.0
    h = as_operator(op)
    _, tvec = pauli_decompose(h)
    f = 2.0 * tvec

    traj = evolve_trajectory(h, psi0, t, eta=eta, observables=observables, isometry=isometry)
    n = traj.states
    if eta is None or observables == "dressed":
        n = n.real
    deriv = np.gradient(n, t, axis=0, edge_order=2 if len(t) > 2 else 1)

    if eta is None:
        rhs = rhs_damped_precession(n, f)
    elif observables == "bare":
        rhs = -np.cross(n, f)
    else:
        iso = as_operator(isometry)
        h_real = np.linalg.inv(iso) @ h @ iso
        _, bvec = pauli_decompose(h_real)
        rhs = -np.cross(n, 2.0 * bvec.real)
    return float(np.max(np.linalg.norm(deriv - rhs, axis=1)))
