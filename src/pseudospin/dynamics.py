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

import math
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


def _cross3(u, v) -> tuple:
    """u x v on component triples: three Python floats, or three component arrays that broadcast.

    The same three products and differences as numpy.cross, in the same
    order, so the result is bit for bit numpy.cross on either kind.
    """
    u1, u2, u3 = u
    v1, v2, v3 = v
    return (u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1)


def _cross(u, v) -> np.ndarray:
    """u x v over the last axis, for 3-vectors or broadcasting stacks (..., 3).

    Bit for bit numpy.cross, which spends tens of microseconds on argument
    handling per call.  A pair of real 3-vectors is crossed on Python
    floats, anything else on its columns.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape == v.shape == (3,) and u.dtype == v.dtype == np.float64:
        return np.array(_cross3(u.tolist(), v.tolist()))
    return np.stack(_cross3(_columns(u), _columns(v)), axis=-1)


def _columns(x: np.ndarray) -> tuple:
    if x.shape[-1:] != (3,):
        raise ValueError(f"cross product needs 3-vectors, got shape {x.shape}")
    return x[..., 0], x[..., 1], x[..., 2]


def _components(x) -> tuple | list:
    """A real (3,) vector as three Python floats, a stack (..., 3) as its three columns."""
    x = np.asarray(x, dtype=float)
    return x.tolist() if x.shape == (3,) else _columns(x)


def _join(c: tuple) -> np.ndarray:
    """Three floats as a (3,) vector, three component arrays as a (..., 3) stack."""
    return np.stack(c, axis=-1) if isinstance(c[0], np.ndarray) else np.array(c)


# Rates of the bloch models on component triples n, one formula each: the
# public rhs_* below and the integrator's bloch_model both evaluate these.


def _damped3(n, fr, fi) -> tuple:
    """-n x Re(F) - n x (n x Im(F))."""
    c1, c2, c3 = _cross3(n, fr)
    d1, d2, d3 = _cross3(n, _cross3(n, fi))
    return (-c1 - d1, -c2 - d2, -c3 - d3)


def _gilbert3(n, b, alpha) -> tuple:
    """-(n x b) / (1 + alpha^2) - alpha n x (n x b) / (1 + alpha^2)."""
    scale = 1.0 + alpha**2
    c1, c2, c3 = _cross3(n, b)
    d1, d2, d3 = _cross3(n, _cross3(n, b))
    return (
        (-c1) / scale - (alpha * d1) / scale,
        (-c2) / scale - (alpha * d2) / scale,
        (-c3) / scale - (alpha * d3) / scale,
    )


def _spin_torque3(n, b, alpha, a, p) -> tuple:
    """The Gilbert rate plus the spin-transfer torque a n x (n x P)."""
    g1, g2, g3 = _gilbert3(n, b, alpha)
    e1, e2, e3 = _cross3(n, _cross3(n, p))
    return (g1 + a * e1, g2 + a * e2, g3 + a * e3)


def _unit_polarization(polarization) -> np.ndarray:
    p = np.asarray(polarization, dtype=float)
    if not abs(np.sqrt(p @ p) - 1.0) <= 1e-10:  # NaN fails this test too
        raise ValidationError("polarization direction must be a unit vector")
    return p


def rhs_damped_precession(n, field) -> np.ndarray:
    """n' = -n x Re(F) - n x (n x Im(F)) for a real unit vector n (or a stack (..., 3))."""
    f = as_field(field)
    return _join(_damped3(_components(n), f.real.tolist(), f.imag.tolist()))


def effective_field(n, field) -> np.ndarray:
    """Real field Re(F) + n x Im(F); the damped dynamics is -n x this."""
    nv = np.asarray(n, dtype=float)
    f = as_field(field)
    return f.real + _cross(nv, f.imag)


def rhs_llg(n, real_field, alpha: float) -> np.ndarray:
    """Gilbert-damped precession for a real field and damping parameter alpha."""
    return _join(_gilbert3(_components(n), _components(real_field), alpha))


def rhs_llg_spin_torque(n, real_field, alpha: float, a: float, polarization) -> np.ndarray:
    """Gilbert form plus the spin-transfer torque a * n x (n x P), |P| = 1."""
    p = _components(_unit_polarization(polarization))
    return _join(_spin_torque3(_components(n), _components(real_field), alpha, a, p))


def bloch_model(model: str, field, alpha=None, a=None, polarization=None):
    """(rate, F_eq) of one bloch model; the one place that knows the models and their parameters.

    rate(t, n) takes n as three floats and returns its three components,
    for integrate.  F_eq is the constant complex field under which the
    model is damped precession: the field F itself for "damped" (alias
    "precession"), b / (1 - i alpha) for the Gilbert form "llg" with real
    field b, and that minus i a P for "llg_spin_valve".  A parameter the
    model needs and did not get (None) is a ValidationError; one it does
    not take is ignored.
    """
    f = as_field(field)
    if model in ("damped", "precession"):
        fr, fi = f.real.tolist(), f.imag.tolist()
        return (lambda _t, n: _damped3(n, fr, fi)), f
    if model == "llg":
        needs = {"alpha": alpha}
    elif model == "llg_spin_valve":
        needs = {"alpha": alpha, "a": a, "polarization": polarization}
    else:
        raise ValidationError(f"unknown bloch model {model!r}")
    missing = [name for name, value in needs.items() if value is None]
    if missing:
        raise ValidationError(f"bloch model {model!r} needs {', '.join(missing)}")
    if np.any(f.imag != 0.0):
        raise ValidationError(f"bloch model {model!r} needs a real field")
    b = f.real
    gilbert = b / (1.0 - 1j * alpha)
    bl = b.tolist()
    if model == "llg":
        return (lambda _t, n: _gilbert3(n, bl, alpha)), gilbert
    p = _unit_polarization(polarization).reshape(3)
    pl = p.tolist()
    return (lambda _t, n: _spin_torque3(n, bl, alpha, a, pl)), gilbert - 1j * a * p


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

    rhs receives n as a tuple of three floats and returns its three real
    components (any 3-sequence, an ndarray included); bloch_model builds
    such rates.  The state is stepped on Python floats, with the stage
    arithmetic of the array form n + (h/2) k.  Norms are sqrt(v.dot(v))
    of the state as a length-3 array, which is what np.linalg.norm
    computes; BLAS may fuse multiply-adds there, so x*x + y*y + z*z would
    differ in the last bit.  That array is also the row stored into the
    preallocated states.

    With renormalize the state is projected back to the unit sphere after
    every step.  Raw (pre-projection) and projected norms are both recorded.
    A single-step norm drift above 0.01, or a non-finite norm, aborts with
    StepTooLargeError.
    """
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if len(t) == 0:
        raise ValidationError("time grid must have at least one sample")
    h = _uniform_step(t)
    n = np.asarray(n0, dtype=float).copy()
    if n.shape != (3,):
        raise ValidationError("initial Bloch vector must have 3 components")
    if not abs(np.sqrt(n @ n) - 1.0) <= 1e-9:
        raise ValidationError("initial Bloch vector must be unit length")

    states = np.empty((len(t), 3))
    raw = np.empty(len(t))
    projected = np.empty(len(t))
    x, y, z = n.tolist()
    norm = math.sqrt(n.dot(n))
    states[0] = n
    raw[0] = projected[0] = norm
    half, sixth = 0.5 * h, h / 6.0
    times = t.tolist()
    for k in range(len(t) - 1):
        tk = times[k]
        a1, a2, a3 = rhs(tk, (x, y, z))
        b1, b2, b3 = rhs(tk + half, (x + half * a1, y + half * a2, z + half * a3))
        c1, c2, c3 = rhs(tk + half, (x + half * b1, y + half * b2, z + half * b3))
        d1, d2, d3 = rhs(tk + h, (x + h * c1, y + h * c2, z + h * c3))
        x = x + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
        y = y + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
        z = z + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
        v = np.array((x, y, z))
        raw_norm = math.sqrt(v.dot(v))
        drift = abs(raw_norm - norm)
        if not drift <= 0.01:  # NaN fails this test too
            raise StepTooLargeError(
                f"norm drifted by {drift:.3g} in one step at t={tk:.6g}; reduce the step"
            )
        norm = raw_norm
        if renormalize:
            x, y, z = x / raw_norm, y / raw_norm, z / raw_norm
            v = np.array((x, y, z))
            norm = math.sqrt(v.dot(v))
        states[k + 1] = v
        raw[k + 1] = raw_norm
        projected[k + 1] = norm
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
        rhs = -_cross(n, f)
    else:
        iso = as_operator(isometry)
        h_real = np.linalg.inv(iso) @ h @ iso
        _, bvec = pauli_decompose(h_real)
        rhs = -_cross(n, 2.0 * bvec.real)
    return float(np.max(np.linalg.norm(deriv - rhs, axis=1)))
