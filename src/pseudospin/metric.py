"""Pseudo-Hermiticity tests and the canonical metric construction.

A complex field F with real nonnegative square-sum is linked to a real
field B by a complex-orthogonal rotation; the pair fixes a unique 2x2
isometry between the canonical Hilbert space and the metric one, and the
metric itself as eta = (M M^dagger)^(-1).  All formulas here assume the
plane restriction (vanishing second field component), which is the only
case with a printed closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (
    DegenerateFieldError,
    NonPseudoHermitianError,
    NonRealLimitError,
    NormMismatchError,
    PlaneRestrictionViolatedError,
    SingularEigenbasisError,
    SingularMetricError,
)
from .linalg import (
    DEFAULT_TOL,
    _operator_square,
    as_field,
    as_operator,
    field_square,
    principal_sqrt,
)

REAL_TOL = 1e-10


def _square_in_r_plus(sq: complex, tol: float) -> bool:
    """The field square is real and nonnegative, both relative to max(1, |Re F^2|)."""
    scale = max(1.0, abs(sq.real))
    return abs(sq.imag) / scale < tol and sq.real >= -tol * scale


def is_pseudo_hermitian(op, tol: float = REAL_TOL) -> bool:
    """True iff the field square F^2 = -4 det(H) is in R+.

    A real F^2 >= 0 is equivalent to a real eigenvalue pair +-E/2, which is
    the existence condition for a positive-definite metric.
    """
    return _square_in_r_plus(_operator_square(op, DEFAULT_TOL), tol)


def _check_plane_pair(f: np.ndarray, b: np.ndarray, tol: float) -> tuple[complex, complex, float]:
    """The square-sums of f and b and their scale max(|f|, |b|, 1), once the pair is checked."""
    scale = max(np.linalg.norm(f), np.linalg.norm(b), 1.0)
    if abs(f[1]) > tol * scale or abs(b[1]) > tol * scale:
        raise PlaneRestrictionViolatedError("second field component must vanish")
    sq_f = f[0] ** 2 + f[2] ** 2
    sq_b = b[0] ** 2 + b[2] ** 2
    if abs(sq_f - sq_b) > tol * max(1.0, abs(sq_b)):
        raise NormMismatchError(f"square-sums differ: {sq_f:.6g} vs {sq_b:.6g}")
    if abs(sq_b) <= tol * scale**2:
        raise DegenerateFieldError("vanishing square-sum, rotation undefined")
    return sq_f, sq_b, scale


def canonical_rotation(field, real_field, tol: float = REAL_TOL) -> np.ndarray:
    """Complex-orthogonal involution R with R b = f for in-plane fields.

    Requires f1^2 + f3^2 = b1^2 + b3^2 != 0 and vanishing second components.
    The returned matrix satisfies R R^T = I, det R = 1 and R = R^(-1).
    """
    f, b = as_field(field), as_field(real_field)
    _, sq, _ = _check_plane_pair(f, b, tol)
    diag = (f[0] * b[0] - b[2] * f[2]) / sq
    off = (f[0] * b[2] + b[0] * f[2]) / sq
    return np.array(
        [
            [diag, 0.0, off],
            [0.0, -1.0, 0.0],
            [off, 0.0, -diag],
        ],
        dtype=complex,
    )


def canonical_limit_field(
    field_family: Callable[[float], np.ndarray], alpha: float, tol: float = REAL_TOL
) -> np.ndarray:
    """Real field selected by the zero-damping limit of a field family.

    The family maps the non-Hermiticity parameter to a complex field; the
    returned real field is sqrt(F(alpha)^2) / |F(0)| * F(0), which keeps
    the square-sum of F(alpha), points along the alpha -> 0 limit, and
    reduces to F(0) at alpha = 0.
    """
    f0 = as_field(field_family(0.0))
    scale0 = np.linalg.norm(f0)
    if scale0 == 0.0 or np.max(np.abs(f0.imag)) > tol * max(1.0, scale0):
        raise NonRealLimitError("family must reach a real nonzero field at alpha=0")
    f = as_field(field_family(alpha))
    if abs(f[1]) > tol * max(1.0, np.linalg.norm(f)) or abs(f0[1]) > tol * max(1.0, scale0):
        raise PlaneRestrictionViolatedError("second field component must vanish")
    sq = field_square(f)
    if not _square_in_r_plus(sq, tol):
        raise NonPseudoHermitianError(f"field square {sq:.6g} is not in R+")
    return float(np.sqrt(max(sq.real, 0.0))) / scale0 * f0.real


def eigenpairs_complex(field):
    """Unnormalized eigenvectors ((f3 +- E)/f1, 1) with eigenvalues +-E/2.

    E = sqrt(f1^2 + f3^2) on the principal branch.  The closed form divides
    by f1, so a vanishing first component is rejected.
    """
    f = as_field(field)
    scale = max(np.linalg.norm(f), 1.0)
    if abs(f[1]) > REAL_TOL * scale:
        raise PlaneRestrictionViolatedError("second field component must vanish")
    if abs(f[0]) <= REAL_TOL * scale:
        raise SingularEigenbasisError("first field component vanishes")
    e = principal_sqrt(f[0] ** 2 + f[2] ** 2)
    plus = np.array([(f[2] + e) / f[0], 1.0], dtype=complex)
    minus = np.array([(f[2] - e) / f[0], 1.0], dtype=complex)
    return (plus, 0.5 * e), (minus, -0.5 * e)


def _nonsingular(m: np.ndarray, rcond: float) -> bool:
    """|det m| > rcond ||m||_F^2 (for 2x2, ||m||_F^2 / |det m| = cond(m) + 1 / cond(m)) on m scaled
    to a unit largest entry: conditioning, not scale.  Zero and a NaN or inf entry fail it."""
    s = np.abs(m).max()
    if not 0.0 < s < np.inf:  # zero, NaN or inf
        return False
    m = m / s
    return bool(abs(np.linalg.det(m)) > rcond * np.vdot(m, m).real)


@dataclass(frozen=True)
class MetricPair:
    """Isometry M and its induced metric eta = (M M^dagger)^(-1)."""

    isometry: np.ndarray
    eta: np.ndarray


def eta_from_isometry(isometry) -> np.ndarray:
    """Metric induced by an isometry, Hermitized against roundoff."""
    m = as_operator(isometry)
    if not _nonsingular(m, np.finfo(float).eps):  # det M within its own rounding of 0
        raise SingularMetricError("isometry is singular")
    try:
        eta = np.linalg.inv(m @ m.conj().T)
    except np.linalg.LinAlgError:  # M M^dagger can round to singular past the det check
        raise SingularMetricError("isometry is singular") from None
    return 0.5 * (eta + eta.conj().T)


def build_isometry(field, real_field, tol: float = REAL_TOL) -> MetricPair:
    """Unique isometry mapping the real-field eigenbasis onto the complex one.

    M = (1/f1) [[b1, f3 - b3], [0, f1]] maps the unnormalized eigenvectors
    of the real-field Hamiltonian onto those of the complex-field one and
    conjugates one Hamiltonian into the other.  With b = f it is the
    identity, as is the metric.
    """
    f, b = as_field(field), as_field(real_field)
    sq_f, sq_b, scale = _check_plane_pair(f, b, tol)
    if abs(f[0]) <= tol * scale or abs(b[0]) <= tol * scale:
        raise SingularEigenbasisError("first field components must not vanish")
    # M leaves the similarity residual (b^2 - f^2) / (2 f1): refuse one past tol * scale, unless the
    # gap is the square-sums' rounding (at most 4 eps scale^2 in 200,000 complex-rotated pairs)
    f1, gap = abs(f[0]), abs(sq_f - sq_b)
    if gap > max(2.0 * f1 * tol, 16.0 * np.finfo(float).eps * scale) * scale:
        raise NormMismatchError(f"square-sums differ by {gap:.3g}, too much for |f1| = {f1:.3g}")
    m = np.array([[b[0] / f[0], (f[2] - b[2]) / f[0]], [0.0, 1.0]], dtype=complex)
    return MetricPair(isometry=m, eta=eta_from_isometry(m))


def eta_adjoint(op, eta) -> np.ndarray:
    """Adjoint with respect to the eta inner product: eta^(-1) T^dagger eta."""
    t = as_operator(op)
    m = as_operator(eta)
    # rcond 0: eta = (M M^dagger)^(-1) squares cond(M), so det(eta) of an accepted M can be noise
    if not _nonsingular(m, 0.0):
        raise SingularMetricError("metric is singular")
    try:
        return np.linalg.solve(m, t.conj().T @ m)
    except np.linalg.LinAlgError:  # an LU pivot can round to 0 past the det check
        raise SingularMetricError("metric is singular") from None
