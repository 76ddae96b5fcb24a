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


# --------------------------------------------------- Grassmann loop reference
# The Grassmann kernels as first written, one coefficient at a time, on plain
# (8,) coefficient arrays: the pin for the table kernels in pseudospin.grassmann.


def _reference_sign(a: int, b: int) -> int:
    """xi_a xi_b = sign * xi_(a|b) for ascending bitmask monomials; 0 if they share a generator."""
    if a & b:
        return 0
    inversions = sum(bin(a >> (j + 1)).count("1") for j in range(3) if b & (1 << j))
    return -1 if inversions % 2 else 1


def _reference_images() -> dict:
    from pseudospin.linalg import IDENTITY2, SIGMA1, SIGMA2, SIGMA3

    r = float(np.sqrt(0.5))
    return {
        0b000: IDENTITY2,
        0b001: r * SIGMA1,
        0b010: r * SIGMA2,
        0b100: r * SIGMA3,
        0b011: 0.5j * SIGMA3,
        0b101: -0.5j * SIGMA2,
        0b110: 0.5j * SIGMA1,
        0b111: 0.5j * r * IDENTITY2,
    }


def reference_product(f, g) -> np.ndarray:
    out = np.zeros(8, dtype=complex)
    for a in range(8):
        ca = f[a]
        if ca == 0:
            continue
        for b in range(8):
            cb = g[b]
            if cb == 0 or (a & b):
                continue
            out[a | b] += _reference_sign(a, b) * ca * cb
    return out


def reference_right_derivative(f, i: int) -> np.ndarray:
    bit = 1 << (i - 1)
    out = np.zeros(8, dtype=complex)
    for mask in range(8):
        if mask & bit and f[mask] != 0:
            rest = mask ^ bit
            out[rest] += _reference_sign(rest, bit) * f[mask]
    return out


def reference_left_derivative(f, i: int) -> np.ndarray:
    bit = 1 << (i - 1)
    out = np.zeros(8, dtype=complex)
    for mask in range(8):
        if mask & bit and f[mask] != 0:
            rest = mask ^ bit
            out[rest] += _reference_sign(bit, rest) * f[mask]
    return out


def reference_quantize(f) -> np.ndarray:
    images = _reference_images()
    out = np.zeros((2, 2), dtype=complex)
    for mask in range(8):
        c = f[mask]
        if c != 0:
            out = out + c * images[mask]
    return out


def reference_parity(f) -> int:
    pars = {bin(m).count("1") % 2 for m in range(8) if f[m] != 0}
    if len(pars) > 1:
        from pseudospin.exceptions import NonHomogeneousError

        raise NonHomogeneousError("element mixes even and odd degrees")
    return pars.pop() if pars else 0


def reference_bracket(f, g) -> np.ndarray:
    reference_parity(f)
    reference_parity(g)
    out = np.zeros(8, dtype=complex)
    for m in range(1, 4):
        out = out + reference_product(reference_right_derivative(f, m), reference_left_derivative(g, m))
    return -1j * out


def reference_verify(f, g, tol: float = 1e-12) -> tuple:
    """(exact, residual) of one bracket-versus-commutator comparison."""
    lhs = reference_quantize(reference_bracket(f, g))
    a, b = reference_quantize(f), reference_quantize(g)
    sign = -1.0 if (reference_parity(f) and reference_parity(g)) else 1.0
    rhs = -1j * (a @ b - sign * (b @ a))
    residual = float(np.max(np.abs(lhs - rhs)))
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return residual <= tol * scale, residual


def reference_suite(field, tol: float = 1e-12) -> dict:
    """correspondence_suite as first written: one verification per pair."""
    f = np.asarray(field, dtype=complex).reshape(3)
    mono = np.eye(8, dtype=complex)
    xi = {i: mono[1 << (i - 1)] for i in range(1, 4)}
    h = np.zeros(8, dtype=complex)
    h[0b011], h[0b110], h[0b101] = -1j * f[2], -1j * f[0], 1j * f[1]
    cases = (
        [("generator_pairs", {"i": i, "j": j}, xi[i], xi[j]) for i in xi for j in xi]
        + [("hamiltonian_pairs", {"i": i}, h, xi[i]) for i in xi]
        + [("basis_pairs", {"a": a, "b": b}, mono[a], mono[b]) for a in range(8) for b in range(8)]
    )
    results = {"generator_pairs": [], "hamiltonian_pairs": [], "basis_pairs": []}
    for group, labels, x, y in cases:
        exact, residual = reference_verify(x, y, tol)
        results[group].append({**labels, "exact": exact, "residual": residual})
    everything = [entry for entries in results.values() for entry in entries]
    results["all_exact"] = all(entry["exact"] for entry in everything)
    results["max_residual"] = max(entry["residual"] for entry in everything)
    results["non_exact_pairs"] = [e for e in results["basis_pairs"] if not e["exact"]]
    return results
