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
import struct
from dataclasses import dataclass, field

import numpy as np

from .exceptions import StepTooLargeError, ValidationError, ZeroStateError
from .linalg import (
    SIGMA,
    _require_finite_reals,
    as_field,
    as_operator,
    as_state,
    evolve_operator,
    hamiltonian_from_field,
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
    under = "" if m is None else " under eta"
    if not np.all(np.isfinite(nrm2)):
        raise ValidationError(f"state vector overflows: its squared norm{under} is not finite")
    if not np.all(nrm2 >= 1e-300):
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
    return _bloch_eta(as_state(psi), validate_metric(eta), observables, isometry)


def _bloch_eta(v: np.ndarray, m: np.ndarray, observables: str, isometry) -> np.ndarray:
    """bloch_eta of a state stack v under the metric m that validate_metric returned."""
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


def _three_vectors(n) -> np.ndarray:
    """n as floats of shape (3,) or (..., 3), else a ValidationError (numpy.cross takes more)."""
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (3,):
        raise ValidationError(f"n: expected 3-vectors, got shape {n.shape}")
    return n


def _rate_at(n, model: tuple) -> np.ndarray:
    """The rate of a bloch_model (rate, F_eq) pair at a real vector n (3,) or a stack (..., 3)."""
    return np.stack(model[0](np.moveaxis(_three_vectors(n), -1, 0)), axis=-1)


def _damped_rate(f):
    """rate(n) = -n x Re(F) - n x (n x Im(F)), the one rate of every bloch model (F = its F_eq), for
    n as three floats (or component arrays); each cross product is inline in numpy.cross's order."""
    fr1, fr2, fr3 = f.real.tolist()
    fi1, fi2, fi3 = f.imag.tolist()

    def rate(n):
        n1, n2, n3 = n
        e1 = n2 * fi3 - n3 * fi2
        e2 = n3 * fi1 - n1 * fi3
        e3 = n1 * fi2 - n2 * fi1
        return (
            -(n2 * fr3 - n3 * fr2) - (n2 * e3 - n3 * e2),
            -(n3 * fr1 - n1 * fr3) - (n3 * e1 - n1 * e3),
            -(n1 * fr2 - n2 * fr1) - (n1 * e2 - n2 * e1),
        )

    return rate


def rhs_damped_precession(n, field) -> np.ndarray:
    """n' = -n x Re(F) - n x (n x Im(F)) for a real unit vector n (or a stack (..., 3))."""
    return _rate_at(n, bloch_model("damped", field))


def effective_field(n, field) -> np.ndarray:
    """Real field Re(F) + n x Im(F) (numpy.cross) at n (3,) or (..., 3); the damped dynamics
    is -n x this."""
    f = as_field(field)
    return f.real + np.cross(_three_vectors(n), f.imag)


def rhs_llg(n, real_field, alpha: float) -> np.ndarray:
    """Gilbert-damped precession for a real field and damping parameter alpha."""
    return _rate_at(n, bloch_model("llg", real_field, alpha))


def rhs_llg_spin_torque(n, real_field, alpha: float, a: float, polarization) -> np.ndarray:
    """Gilbert form plus the spin-transfer torque a * n x (n x P), |P| = 1."""
    return _rate_at(n, bloch_model("llg_spin_valve", real_field, alpha, a, polarization))


def bloch_model(model: str, field, alpha=None, a=None, polarization=None):
    """(rate, F_eq) of one bloch model; the one place that knows the models and their parameters.

    Every model is autonomous: rate(n) takes n as three floats (or three
    component arrays) and returns its three components, for integrate.
    F_eq is the constant complex field under which the model is damped
    precession: the field F itself for "damped" (alias "precession"),
    b / (1 - i alpha) for the Gilbert form "llg" with real field b, and
    that minus i a P for "llg_spin_valve".  A parameter the model needs and did not get (None),
    a non-finite or non-real alpha or a, and a polarization whose shape is
    not (3,) are ValidationErrors; a parameter it does not take is ignored.
    """
    f_eq = as_field(field)
    if model in ("llg", "llg_spin_valve"):
        params = {"alpha": alpha, "a": a, "polarization": polarization}
        needs = params if model == "llg_spin_valve" else {"alpha": alpha}
        missing = [name for name, value in needs.items() if value is None]
        if missing:
            raise ValidationError(f"bloch model {model!r} needs {', '.join(missing)}")
        _require_finite_reals({"alpha": alpha, "a": needs.get("a", 0.0)})
        if np.any(f_eq.imag != 0.0):
            raise ValidationError(f"bloch model {model!r} needs a real field")
        f_eq = f_eq.real / (1.0 - 1j * alpha)
        if model == "llg_spin_valve":
            p = np.asarray(polarization, dtype=float)
            if p.shape != (3,):
                raise ValidationError(f"polarization: expected shape (3,), got {p.shape}")
            if not abs(np.sqrt(p @ p) - 1.0) <= 1e-10:  # NaN fails this test too
                raise ValidationError("polarization direction must be a unit vector")
            f_eq = f_eq - 1j * a * p
        try:  # F_eq never forms 1 + alpha^2, but an |alpha| past about 1.34e154 stays refused
            1.0 + alpha**2
        except OverflowError:
            raise ValidationError(f"alpha: 1 + alpha**2 overflows, got {alpha!r}") from None
    elif model not in ("damped", "precession"):
        raise ValidationError(f"unknown bloch model {model!r}")
    return _damped_rate(f_eq), f_eq


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


def _trajectory(times, states, norms, metadata) -> Trajectory:
    """A Trajectory of a 1-D float times array, strictly increasing, and as many states, built
    without Trajectory's own check of them."""
    traj = object.__new__(Trajectory)
    traj.times, traj.states, traj.norms, traj.metadata = times, states, norms, metadata
    return traj


def _uniform_step(t_grid: np.ndarray) -> tuple:
    """(h, increasing) for a grid whose steps lie within tol = 1e-9 max(|h|, 1e-12) of its first
    step h > 0, else a ValidationError.  increasing says whether that also makes every step
    positive, which it does unless h <= tol (or is NaN); (0.0, True) for one sample."""
    if len(t_grid) < 2:
        return 0.0, True
    steps = np.diff(t_grid)
    h = steps[0]
    tol = 1e-9 * max(abs(h), 1e-12)
    if h <= 0 or np.max(np.abs(steps - h)) > tol:
        raise ValidationError("time grid must be uniform and increasing")
    return float(h), bool(h > tol)


_BLOCK = 4096  # RK4 steps between two norm and drift checks
_ROW = struct.Struct("3d").pack_into  # one state row, 8 bytes a value, written in place


def _unit_vector(n0) -> np.ndarray:
    """n0 as a unit 3-vector of floats (a copy), or a ValidationError."""
    n = np.array(n0, dtype=float)
    if n.shape != (3,):
        raise ValidationError("initial Bloch vector must have 3 components")
    if not abs(np.sqrt(n @ n) - 1.0) <= 1e-9:
        raise ValidationError("initial Bloch vector must be unit length")
    return n


def integrate(rate, n0, t_grid, renormalize: bool = False) -> Trajectory:
    """Classical fixed-step RK4 on the autonomous ODE n' = rate(n).

    rate receives n as a tuple of three floats and returns its three real
    components (any 3-sequence, an ndarray included); bloch_model builds
    such rates.  The state is stepped on Python floats, with the stage
    arithmetic of the array form n + (h/2) k, and each step's row is
    written in place into the preallocated states.  Norms are
    sqrt(v.dot(v)) of each row, which is what np.linalg.norm computes:
    OpenBLAS's ddot of three values is fma(z, z, fma(y, y, x*x)), which no
    order of Python float products and sums reproduces.  They are taken
    per block of steps, one np.vecdot over the block's rows (the same ddot
    per row).

    With renormalize the state is projected back to the unit sphere after
    every step, dividing by its raw norm, one ddot per step.  Raw
    (pre-projection) and projected norms are both recorded; without
    renormalize they are one array.  A step whose norm drifts from the
    previous projected norm by more than 0.01, or by a non-finite amount,
    aborts with StepTooLargeError; rate may be called on up to one block of
    steps past it first.
    """
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if len(t) == 0:
        raise ValidationError("time grid must have at least one sample")
    h, increasing = _uniform_step(t)
    n = _unit_vector(n0)

    states = np.empty((len(t), 3))
    projected = np.empty(len(t))
    raw = np.empty(len(t)) if renormalize else projected
    x, y, z = n.tolist()
    states[0] = n
    raw[0] = projected[0] = math.sqrt(n.dot(n))
    v = np.empty(3)  # the pre-projection state, for its ddot
    dot, sqrt, inf = v.dot, math.sqrt, math.inf
    half, sixth = 0.5 * h, h / 6.0
    steps = len(t) - 1
    for start in range(0, steps, _BLOCK):
        stop = written = min(start + _BLOCK, steps)
        for k in range(start, stop):
            a1, a2, a3 = rate((x, y, z))
            b1, b2, b3 = rate((x + half * a1, y + half * a2, z + half * a3))
            c1, c2, c3 = rate((x + half * b1, y + half * b2, z + half * b3))
            d1, d2, d3 = rate((x + h * c1, y + h * c2, z + h * c3))
            x = x + sixth * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
            y = y + sixth * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
            z = z + sixth * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
            if renormalize:
                _ROW(v, 0, x, y, z)
                norm = sqrt(dot(v))
                raw[k + 1] = norm
                if not 0.0 < norm < inf:  # the check below refuses this step; do not divide
                    written, stop = k, k + 1
                    break
                x, y, z = x / norm, y / norm, z / norm
            _ROW(states, 24 * k + 24, x, y, z)
        _check_block(states, raw, projected, t, start, written, stop)
    # the grid is checked once: a grid _uniform_step leaves open gets Trajectory's own check
    return (_trajectory if increasing else Trajectory)(
        times=t,
        states=states,
        norms={"raw": raw, "projected": projected},
        metadata={"method": "rk4", "step": h, "renormalize": bool(renormalize)},
    )


def _check_block(states, raw, projected, t, start, written, stop) -> None:
    """Projected norms of rows start+1..written, then the drift check of steps start..stop-1.

    Step k drifts by |raw[k+1] - projected[k]|; the first one not within 0.01
    (NaN included) is a StepTooLargeError naming t[k].
    """
    rows = states[start + 1 : written + 1]
    with np.errstate(all="ignore"):  # a diverging step overflows here; it is refused below
        projected[start + 1 : written + 1] = np.sqrt(np.vecdot(rows, rows))
        drift = np.abs(raw[start + 1 : stop + 1] - projected[start:stop])
    if not drift.max() <= 0.01:  # NaN fails this test too
        i = np.flatnonzero(~(drift <= 0.01))[0]
        raise StepTooLargeError(
            f"norm drifted by {drift[i]:.3g} in one step at t={t[start + i]:.6g}; reduce the step"
        )


def bloch_exact(field, n0, t) -> np.ndarray:
    """Closed-form n(t) of damped precession in a constant complex field F, for t of any shape.

    The canonical Bloch vector of exp(-i H t) psi0, with H = (1/2) sigma.F and
    psi0 a state whose Bloch vector is the unit vector n0, solves
    n' = -n x Re(F) - n x (n x Im(F)) exactly (the paper's classical
    correspondence), with t measured from n0; the result has shape
    t.shape + (3,).  Under the F_eq of bloch_model it is the exact
    trajectory of every bloch model, which integrate approximates to fourth
    order.
    """
    x, y, z = _unit_vector(n0).tolist()
    # a state with Bloch vector n0, up to norm and phase; each form is 0 at the other's pole
    psi0 = [1.0 + z, x + 1j * y] if z >= 0.0 else [x - 1j * y, 1.0 - z]
    return bloch_canonical(evolve_state(hamiltonian_from_field(field), psi0, t))


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
        bloch = _bloch_eta(states, m, observables, isometry)
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
