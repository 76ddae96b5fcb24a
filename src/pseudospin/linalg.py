"""Closed-form complex linear algebra for two-level systems.

Operators are plain 2x2 complex ndarrays, fields are length-3 complex
ndarrays, states are length-2 complex ndarrays.  Everything here is a pure
function; the only convention worth stating is the principal square root
(real part >= 0, ties broken toward nonnegative imaginary part), which
fixes the branch of all spectra and evolution operators.
"""

from __future__ import annotations

import cmath
import numbers

import numpy as np

from .exceptions import InvalidMetricError, NonTracelessError, ValidationError

IDENTITY2 = np.eye(2, dtype=complex)

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = (SIGMA1, SIGMA2, SIGMA3)

DEFAULT_TOL = 1e-12


def as_field(v) -> np.ndarray:
    """Coerce to a length-3 complex vector; input of another size is a ValidationError."""
    f = np.asarray(v, dtype=complex)
    try:
        return f.reshape(3)
    except ValueError as exc:
        raise ValidationError(f"a field needs 3 components, got shape {f.shape}") from exc


def as_operator(m) -> np.ndarray:
    """Coerce to a 2x2 complex matrix; input of another size is a ValidationError."""
    op = np.asarray(m, dtype=complex)
    try:
        return op.reshape(2, 2)
    except ValueError as exc:
        raise ValidationError(f"an operator needs 2x2 entries, got shape {op.shape}") from exc


def as_state(v) -> np.ndarray:
    """Coerce to a length-2 complex vector, or a stack (..., 2) of them; another size is a
    ValidationError."""
    s = np.asarray(v, dtype=complex)
    try:
        return s.reshape(s.shape[:-1] + (2,))
    except ValueError as exc:
        raise ValidationError(f"a state needs 2 components, got shape {s.shape}") from exc


def _require_finite_reals(values: dict) -> None:
    """A ValidationError naming the first of values (name -> value) not a finite real number."""
    for name, value in values.items():  # float first: an ABC's isinstance is slow
        if not ((type(value) is float or isinstance(value, numbers.Real)) and cmath.isfinite(value)):
            raise ValidationError(f"{name}: expected a finite real number, got {value!r}")


def principal_sqrt(z: complex) -> complex:
    """Square root with Re >= 0; on the imaginary axis take Im >= 0."""
    w = complex(np.sqrt(complex(z)))
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def field_square(field) -> complex:
    """Complex square-sum x^2 + y^2 + z^2 (no conjugation).

    This is the quantity preserved by complex-orthogonal rotations of the
    field; it is a nonnegative real number exactly when the associated
    two-level Hamiltonian has a real spectrum.  A square that overflows to
    a non-finite number is a ValidationError.
    """
    f = as_field(field)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below when not finite
        sq = complex(np.sum(f * f))
    if not cmath.isfinite(sq):
        raise ValidationError(f"field square {sq:.6g} is not finite")
    return sq


def pauli_compose(t0: complex, tvec) -> np.ndarray:
    """Assemble t0*I + t . sigma."""
    t = as_field(tvec)
    return t0 * IDENTITY2 + t[0] * SIGMA1 + t[1] * SIGMA2 + t[2] * SIGMA3


def pauli_decompose(op) -> tuple[complex, np.ndarray]:
    """Unique decomposition T = t0*I + t . sigma.

    Returns (t0, t) with t0 = tr(T)/2 and t_k = tr(T sigma_k)/2.
    """
    m = as_operator(op)
    t0 = complex(np.trace(m)) / 2.0
    t = np.array(
        [
            (m[0, 1] + m[1, 0]) / 2.0,
            (m[0, 1] - m[1, 0]) * 0.5j,
            (m[0, 0] - m[1, 1]) / 2.0,
        ],
        dtype=complex,
    )
    return t0, t


def hamiltonian_from_field(field) -> np.ndarray:
    """Traceless two-level Hamiltonian (1/2) sigma . F for a complex field F."""
    f = as_field(field)
    return 0.5 * np.array(
        [[f[2], f[0] - 1.0j * f[1]], [f[0] + 1.0j * f[1], -f[2]]], dtype=complex
    )


def _require_traceless(h: np.ndarray, tol: float) -> None:
    scale = np.linalg.norm(h)
    if abs(np.trace(h)) > tol * max(scale, 1e-300):
        raise NonTracelessError(
            f"trace {np.trace(h):.3e} exceeds {tol:.1e} * norm {scale:.3e}"
        )


def spectrum(op, tol: float = DEFAULT_TOL) -> tuple[complex, complex]:
    """Eigenvalue pair (E+, E-) = (+, -) (1/2) sqrt(F^2) of a traceless operator.

    The principal branch makes E+ the root with Re >= 0; E- = -E+ always.
    """
    h = as_operator(op)
    with np.errstate(over="ignore", invalid="ignore"):  # field_square refuses a non-finite square
        _require_traceless(h, tol)
        _, f = pauli_decompose(h)
        e_plus = 0.5 * principal_sqrt(field_square(2.0 * f))
    return e_plus, -e_plus


def evolve_operator(op, t: float | np.ndarray) -> np.ndarray:
    """exp(-i H t) for traceless H, in closed form, for t of any shape -> (..., 2, 2).

    Uses exp(-iHt) = cos(Et/2) I - i sin(Et/2) (2H)/E with E = 2 E+.  At the
    exceptional point E = 0 the operator is nilpotent (H^2 = 0) and the
    series truncates to I - i H t exactly.
    """
    h = as_operator(op)
    e_plus, _ = spectrum(h)
    e = 2.0 * e_plus
    t = np.asarray(t, dtype=float)[..., None, None]
    if e == 0.0:
        return IDENTITY2 - 1.0j * t * h
    half = 0.5 * e * t
    return np.cos(half) * IDENTITY2 + (-1.0j * np.sin(half) * 2.0 / e) * h


def validate_metric(eta) -> np.ndarray:
    """Check that eta is Hermitian positive-definite; return the Hermitized copy."""
    m = as_operator(eta)
    scale = max(np.linalg.norm(m), 1e-300)
    if np.linalg.norm(m - m.conj().T) > 1e-10 * max(scale, 1.0):
        raise InvalidMetricError("metric is not Hermitian within tolerance")
    sym = 0.5 * (m + m.conj().T)
    eigs = np.linalg.eigvalsh(sym)
    if np.min(eigs) <= 1e-10 * scale * 1e-6 or np.min(eigs) <= 0.0:
        raise InvalidMetricError(f"metric eigenvalues {eigs} are not all positive")
    return sym


def inner(x, y, eta=None) -> complex:
    """Sesquilinear inner product <x, y> or <x, eta y> (conjugate-linear in x)."""
    xv, yv = as_state(x), as_state(y)
    if eta is None:
        return complex(np.vdot(xv, yv))
    m = validate_metric(eta)
    return complex(np.vdot(xv, m @ yv))
