"""Shared construction helpers for the test suite."""

import numpy as np


def plane_rotation(axis: int, angle: complex) -> np.ndarray:
    """3x3 rotation by a (possibly complex) angle about a coordinate axis.

    cos^2 + sin^2 = 1 holds for complex angles, so the result satisfies
    R R^T = I with det R = 1 regardless of the imaginary part.
    """
    c, s = np.cos(angle), np.sin(angle)
    r = np.eye(3, dtype=complex)
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def random_complex_orthogonal(rng: np.random.Generator, imag_scale: float = 0.4) -> np.ndarray:
    """Random member of SO(3, C) as a product of complex-angle plane rotations."""
    r = np.eye(3, dtype=complex)
    for axis in range(3):
        angle = rng.uniform(-np.pi, np.pi) + 1j * rng.uniform(-imag_scale, imag_scale)
        r = plane_rotation(axis, angle) @ r
    return r


def random_traceless(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random traceless 2x2 complex matrix."""
    f = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    from pseudospin import hamiltonian_from_field

    return hamiltonian_from_field(f)


def random_state(rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(2) + 1j * rng.standard_normal(2)


def taylor_expm(m: np.ndarray, terms: int = 20) -> np.ndarray:
    """Truncated power series for exp(m); independent oracle for evolution."""
    out = np.eye(2, dtype=complex)
    acc = np.eye(2, dtype=complex)
    for k in range(1, terms + 1):
        acc = acc @ m / k
        out = out + acc
    return out


def reference_rhs(model: str, field, alpha: float = 0.0, a: float = 0.0, polarization=None):
    """The bloch right-hand sides as first written, on np.cross, for bit-identity checks."""
    if model == "damped":
        f = np.asarray(field, dtype=complex)
        return lambda _t, n: -np.cross(n, f.real) - np.cross(n, np.cross(n, f.imag))
    b = np.asarray(field, dtype=float)
    scale = 1.0 + alpha**2

    def llg(_t, n):
        return -np.cross(n, b) / scale - alpha * np.cross(n, np.cross(n, b)) / scale

    if model == "llg":
        return llg
    p = np.asarray(polarization, dtype=float)
    return lambda t, n: llg(t, n) + a * np.cross(n, np.cross(n, p))


def reference_rk4(rhs, n0, t, renormalize: bool = False):
    """Fixed-step RK4 as first written, on np.linalg.norm: (states, raw norms, projected norms)."""
    h = t[1] - t[0]
    n = np.asarray(n0, dtype=float).copy()
    states, raw, projected = [n], [np.linalg.norm(n)], [np.linalg.norm(n)]
    for tk in t[:-1]:
        k1 = rhs(tk, n)
        k2 = rhs(tk + 0.5 * h, n + 0.5 * h * k1)
        k3 = rhs(tk + 0.5 * h, n + 0.5 * h * k2)
        k4 = rhs(tk + h, n + h * k3)
        n = n + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        raw.append(np.linalg.norm(n))
        if renormalize:
            n = n / raw[-1]
        projected.append(np.linalg.norm(n))
        states.append(n)
    return np.array(states), np.array(raw), np.array(projected)
