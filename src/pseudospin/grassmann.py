"""Grassmann algebra on three generators with brackets and quantization.

Elements live on the 8-dimensional subset basis: the coefficient at bitmask
m multiplies the monomial with generators in increasing index order (bit
i-1 set means generator i is present).  Products, derivatives, involutions
and Dirac brackets are exact coefficient arithmetic; quantization maps the
generators to Pauli matrices over sqrt(2) and monomials to their fully
antisymmetrized operator products, precomputed in closed form.

Sign conventions, fixed once:
  * product sign counts the transpositions needed to merge two ascending
    monomials (the table _SIGN);
  * the star involution conjugates coefficients and reverses monomials,
    giving the factor (-1)^(k(k-1)/2) on degree k;
  * derivatives read the product sign: d/dxi_i from the right (left) takes
    that of xi_rest xi_i (xi_i xi_rest), (-1)^(k-j) ((-1)^(j-1)) at position j;
  * the reduced Dirac bracket is {f, g} = -i sum_m (right_m f)(left_m g),
    whose base case on generator pairs is -i delta_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonHomogeneousError, ValidationError
from .linalg import IDENTITY2, SIGMA1, SIGMA2, SIGMA3, as_field

_INV_SQRT2 = float(np.sqrt(0.5))

_GENERATOR_COUNT = 3
_BASIS_SIZE = 8

# degree-k monomial reversal sign (-1)^(k(k-1)/2)
_REVERSAL_SIGN = (1, 1, -1, -1)

_QUANT_IMAGE = {
    0b000: IDENTITY2,
    0b001: _INV_SQRT2 * SIGMA1,
    0b010: _INV_SQRT2 * SIGMA2,
    0b100: _INV_SQRT2 * SIGMA3,
    0b011: 0.5j * SIGMA3,
    0b101: -0.5j * SIGMA2,
    0b110: 0.5j * SIGMA1,
    0b111: 0.5j * _INV_SQRT2 * IDENTITY2,
}


def _merge_sign(left_mask: int, right_mask: int) -> int:
    """Sign of sorting the concatenation of two ascending monomials."""
    inversions = 0
    for j in range(_GENERATOR_COUNT):
        if right_mask & (1 << j):
            inversions += bin(left_mask >> (j + 1)).count("1")
    return -1 if inversions % 2 else 1


# xi_a xi_b = _SIGN[a][b] xi_(a|b); 0 when the monomials share a generator
_SIGN = tuple(
    tuple(0 if a & b else _merge_sign(a, b) for b in range(_BASIS_SIZE))
    for a in range(_BASIS_SIZE)
)
_DEGREE = tuple(bin(mask).count("1") for mask in range(_BASIS_SIZE))


class GrassmannElement:
    """Complex polynomial in three anticommuting generators."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.coeffs = np.zeros(_BASIS_SIZE, dtype=complex)
        else:
            self.coeffs = np.asarray(coeffs, dtype=complex).reshape(_BASIS_SIZE).copy()

    @classmethod
    def zero(cls) -> "GrassmannElement":
        return cls()

    @classmethod
    def one(cls) -> "GrassmannElement":
        return cls.from_scalar(1.0)

    @classmethod
    def from_scalar(cls, z) -> "GrassmannElement":
        out = cls()
        out.coeffs[0] = z
        return out

    def scalar(self) -> complex:
        return complex(self.coeffs[0])

    def coefficient(self, indices) -> complex:
        """Coefficient of the ascending monomial with the given generator indices."""
        mask = 0
        for i in indices:
            if not 1 <= i <= 3 or mask & (1 << (i - 1)):
                raise ValidationError(f"bad monomial indices {tuple(indices)}")
            mask |= 1 << (i - 1)
        return complex(self.coeffs[mask])

    def degrees(self) -> set:
        return {_DEGREE[m] for m in range(_BASIS_SIZE) if self.coeffs[m] != 0}

    def parity(self) -> int:
        """0 or 1 for parity-homogeneous elements; zero counts as even."""
        pars = {d % 2 for d in self.degrees()}
        if len(pars) > 1:
            raise NonHomogeneousError("element mixes even and odd degrees")
        return pars.pop() if pars else 0

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return GrassmannElement(self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return GrassmannElement(self.coeffs - other.coeffs)

    def __neg__(self):
        return GrassmannElement(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return product(self, other)
        return GrassmannElement(self.coeffs * other)

    def __rmul__(self, other):
        return GrassmannElement(self.coeffs * other)

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return bool(np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self):
        names = {0: "1"}
        terms = []
        for mask in range(_BASIS_SIZE):
            c = self.coeffs[mask]
            if c == 0:
                continue
            mono = "".join(f"x{i + 1}" for i in range(3) if mask & (1 << i)) or "1"
            terms.append(f"({c:g})*{mono}")
        return "GrassmannElement(" + (" + ".join(terms) if terms else "0") + ")"


def _monomial(mask: int) -> GrassmannElement:
    out = GrassmannElement()
    out.coeffs[mask] = 1.0
    return out


def generator(i: int) -> GrassmannElement:
    """The i-th generator, i in {1, 2, 3}."""
    if not 1 <= i <= 3:
        raise ValidationError("generator index must be 1, 2 or 3")
    return _monomial(1 << (i - 1))


def product(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """Associative graded product; nilpotency and anticommutation are built in."""
    out = GrassmannElement()
    for a in range(_BASIS_SIZE):
        ca = f.coeffs[a]
        if ca == 0:
            continue
        for b in range(_BASIS_SIZE):
            cb = g.coeffs[b]
            if cb == 0 or (a & b):
                continue
            out.coeffs[a | b] += _SIGN[a][b] * ca * cb
    return out


def involution_star(f: GrassmannElement) -> GrassmannElement:
    """Antilinear anti-automorphism fixing the generators.

    Coefficients are conjugated and each degree-k monomial picks up the
    order-reversal sign; fixed points have real scalar and linear parts and
    purely imaginary quadratic and cubic parts.
    """
    out = GrassmannElement()
    for mask in range(_BASIS_SIZE):
        out.coeffs[mask] = _REVERSAL_SIGN[_DEGREE[mask]] * np.conj(f.coeffs[mask])
    return out


def substitute(f: GrassmannElement, matrix) -> GrassmannElement:
    """Replace generator i by sum_k matrix[i, k] * generator k and expand."""
    m = np.asarray(matrix, dtype=complex).reshape(3, 3)
    images = []
    for i in range(3):
        img = GrassmannElement()
        img.coeffs[0b001], img.coeffs[0b010], img.coeffs[0b100] = m[i]
        images.append(img)
    out = GrassmannElement()
    for mask in range(_BASIS_SIZE):
        c = f.coeffs[mask]
        if c == 0:
            continue
        term = GrassmannElement.from_scalar(c)
        for i in range(3):
            if mask & (1 << i):
                term = product(term, images[i])
        out = out + term
    return out


def _require_orthogonal(rotation, tol: float = 1e-10) -> np.ndarray:
    r = np.asarray(rotation, dtype=complex).reshape(3, 3)
    if np.linalg.norm(r @ r.T - np.eye(3)) > tol * max(1.0, np.linalg.norm(r) ** 2):
        raise ValidationError("matrix is not complex-orthogonal")
    return r


def pullback(g: GrassmannElement, rotation) -> GrassmannElement:
    """Express a polynomial in the rotated generators over the original ones."""
    return substitute(g, _require_orthogonal(rotation))


def pushforward(f: GrassmannElement, rotation) -> GrassmannElement:
    """Inverse of pullback: substitute with the transposed rotation."""
    return substitute(f, _require_orthogonal(rotation).T)


def involution_plus(g: GrassmannElement, rotation) -> GrassmannElement:
    """Star involution transported to the rotated generators.

    Pull back, apply the star, push forward.  Fixed points of the result
    are exactly the pushforwards of star-real elements.
    """
    r = _require_orthogonal(rotation)
    return pushforward(involution_star(pullback(g, r)), r)


def right_derivative(f: GrassmannElement, i: int) -> GrassmannElement:
    """Right derivative with respect to generator i."""
    if not 1 <= i <= 3:
        raise ValidationError("generator index must be 1, 2 or 3")
    bit = 1 << (i - 1)
    out = GrassmannElement()
    for mask in range(_BASIS_SIZE):
        if mask & bit and f.coeffs[mask] != 0:
            rest = mask ^ bit
            out.coeffs[rest] += _SIGN[rest][bit] * f.coeffs[mask]
    return out


def left_derivative(f: GrassmannElement, i: int) -> GrassmannElement:
    """Left derivative with respect to generator i."""
    if not 1 <= i <= 3:
        raise ValidationError("generator index must be 1, 2 or 3")
    bit = 1 << (i - 1)
    out = GrassmannElement()
    for mask in range(_BASIS_SIZE):
        if mask & bit and f.coeffs[mask] != 0:
            rest = mask ^ bit
            out.coeffs[rest] += _SIGN[bit][rest] * f.coeffs[mask]
    return out


def dirac_bracket(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """Reduced Dirac bracket on the constraint surface.

    {f, g} = -i sum_m (right derivative of f) (left derivative of g); the
    generator pairs give -i delta_ij and the rest follows by the graded
    derivation rules.  Both arguments must be parity-homogeneous.
    """
    f.parity()
    g.parity()
    out = GrassmannElement()
    for m in range(1, 4):
        out = out + product(right_derivative(f, m), left_derivative(g, m))
    return -1j * out


def precession_hamiltonian(field) -> GrassmannElement:
    """Quadratic element -(i/2) eps_ijk xi_i xi_j F_k coupling spin to a field."""
    f = as_field(field)
    out = GrassmannElement()
    out.coeffs[0b011] = -1j * f[2]
    out.coeffs[0b110] = -1j * f[0]
    out.coeffs[0b101] = 1j * f[1]
    return out


def element_components(f: GrassmannElement):
    """(scalar, vector, antisymmetric matrix, pseudoscalar) parametrization.

    f = f0 + f_i xi_i + f_ij xi_i xi_j + (i/3!) k eps_ijk xi_i xi_j xi_k
    with f_ij = -f_ji; the monomial coefficient at {i < j} is 2 f_ij and the
    top coefficient is i k.
    """
    vec = np.array([f.coeffs[0b001], f.coeffs[0b010], f.coeffs[0b100]])
    mat = np.zeros((3, 3), dtype=complex)
    for (i, j), mask in (((0, 1), 0b011), ((0, 2), 0b101), ((1, 2), 0b110)):
        mat[i, j] = 0.5 * f.coeffs[mask]
        mat[j, i] = -mat[i, j]
    return f.coeffs[0], vec, mat, -1j * f.coeffs[0b111]


def element_from_components(scalar, vector, matrix, pseudoscalar) -> GrassmannElement:
    """Inverse of element_components; the matrix may carry a symmetric part,
    which drops out of the expansion."""
    out = GrassmannElement()
    out.coeffs[0] = scalar
    v = np.asarray(vector, dtype=complex).reshape(3)
    out.coeffs[0b001], out.coeffs[0b010], out.coeffs[0b100] = v
    m = np.asarray(matrix, dtype=complex).reshape(3, 3)
    out.coeffs[0b011] = m[0, 1] - m[1, 0]
    out.coeffs[0b101] = m[0, 2] - m[2, 0]
    out.coeffs[0b110] = m[1, 2] - m[2, 1]
    out.coeffs[0b111] = 1j * pseudoscalar
    return out


def quantize(f: GrassmannElement) -> np.ndarray:
    """Linear extension of the antisymmetrized monomial quantization.

    Generators map to sigma_i / sqrt(2); a degree-k monomial maps to the
    average of its k! signed operator orderings, precomputed in closed form
    so the even-degree images are exact dyadic matrices.
    """
    out = np.zeros((2, 2), dtype=complex)
    for mask in range(_BASIS_SIZE):
        c = f.coeffs[mask]
        if c != 0:
            out = out + c * _QUANT_IMAGE[mask]
    return out


def quantize_transformed(g: GrassmannElement, rotation) -> np.ndarray:
    """Quantization in the rotated generators, det(R) sigma_k / sqrt(2).

    Only odd-degree monomials feel the determinant sign; even ones coincide
    with the plain quantization.
    """
    r = _require_orthogonal(rotation)
    det = complex(np.linalg.det(r))
    sign = 1.0 if abs(det - 1.0) < 1e-9 else -1.0
    if not abs(det - sign) < 1e-9:  # NaN fails too
        raise ValidationError(f"determinant {det:.6g} is not +-1")
    return quantize(GrassmannElement(g.coeffs * sign ** (np.array(_DEGREE) % 2)))


def graded_commutator(a: np.ndarray, b: np.ndarray, parity_a: int, parity_b: int) -> np.ndarray:
    """[a, b] = a b - (-1)^(P_a P_b) b a."""
    sign = -1.0 if (parity_a and parity_b) else 1.0
    return a @ b - sign * (b @ a)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of one bracket-versus-commutator comparison."""

    exact: bool
    residual: float
    bracket_image: np.ndarray
    commutator_image: np.ndarray


def verify_correspondence(
    f: GrassmannElement, g: GrassmannElement, tol: float = 1e-12
) -> CorrespondenceReport:
    """Compare the quantized Dirac bracket with the graded commutator.

    Checks Q({f, g}) against (1/i) [Q(f), Q(g)] at unit hbar.  On this
    finite algebra the identity holds without corrections for every pair
    tested; residuals are pure floating-point noise from the sqrt(2)
    normalization of odd generators.
    """
    lhs = quantize(dirac_bracket(f, g))
    rhs = -1j * graded_commutator(quantize(f), quantize(g), f.parity(), g.parity())
    residual = float(np.max(np.abs(lhs - rhs)))
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return CorrespondenceReport(
        exact=residual <= tol * scale,
        residual=residual,
        bracket_image=lhs,
        commutator_image=rhs,
    )


def correspondence_suite(field, tol: float = 1e-12) -> dict:
    """Machine-checkable report over generator pairs and Hamiltonian pairs."""
    xi = {i: generator(i) for i in range(1, 4)}
    h = precession_hamiltonian(field)
    basis = [(a, b) for a in range(_BASIS_SIZE) for b in range(_BASIS_SIZE)]
    cases = (
        [("generator_pairs", {"i": i, "j": j}, xi[i], xi[j]) for i in xi for j in xi]
        + [("hamiltonian_pairs", {"i": i}, h, xi[i]) for i in xi]
        + [("basis_pairs", {"a": a, "b": b}, _monomial(a), _monomial(b)) for a, b in basis]
    )
    results = {"generator_pairs": [], "hamiltonian_pairs": [], "basis_pairs": []}
    for group, labels, f, g in cases:
        rep = verify_correspondence(f, g, tol)
        results[group].append({**labels, "exact": rep.exact, "residual": rep.residual})
    everything = [entry for entries in results.values() for entry in entries]
    results["all_exact"] = all(entry["exact"] for entry in everything)
    results["max_residual"] = max(entry["residual"] for entry in everything)
    results["non_exact_pairs"] = [e for e in results["basis_pairs"] if not e["exact"]]
    return results
