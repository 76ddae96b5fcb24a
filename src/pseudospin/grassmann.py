"""Grassmann algebra on three generators with brackets and quantization.

Elements live on the 8-dimensional subset basis: the coefficient at bitmask
m multiplies the monomial with generators in increasing index order (bit
i-1 set means generator i is present).  Products, derivatives, involutions
and Dirac brackets are exact coefficient arithmetic; quantization maps the
generators to Pauli matrices over sqrt(2) and monomials to their fully
antisymmetrized operator products, precomputed in closed form.

The kernels take coefficient stacks (..., 8): they gather the terms of
each result from tables built at import and add them with signed matrices.

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
_MASKS = range(_BASIS_SIZE)
_BITS = (0b001, 0b010, 0b100)


def _merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of the ascending monomials a and b."""
    inversions = sum(bin(a >> (j + 1)).count("1") for j in range(_GENERATOR_COUNT) if b & (1 << j))
    return -1 if inversions % 2 else 1


# xi_a xi_b = _SIGN[a][b] xi_(a|b); 0 when the monomials share a generator
_SIGN = tuple(tuple(0 if a & b else _merge_sign(a, b) for b in _MASKS) for a in _MASKS)
_DEGREE = tuple(bin(mask).count("1") for mask in _MASKS)
_PARITY_KINDS = np.array([(d % 2 == 0, d % 2 == 1) for d in _DEGREE])  # mask even, mask odd

# degree-k monomial reversal sign (-1)^(k(k-1)/2), per mask
_REVERSAL_SIGN = np.array([(1, 1, -1, -1)[d] for d in _DEGREE], dtype=complex)

_UNIT_ROWS = np.eye(_BASIS_SIZE, dtype=complex)  # row m: the coefficients of monomial m


def _term_tables(terms) -> tuple:
    """For the terms (f mask, g mask, sign, target mask) of a bilinear map: the f and g gather
    indices and the (terms, 8) matrix adding each signed term into its target; zero signs drop."""
    f, g, sign, target = zip(*(term for term in terms if term[2]))
    return np.array(f), np.array(g), np.array(sign)[:, None] * _UNIT_ROWS[list(target)]


# f g: the 27 disjoint pairs (a, b) land on a | b
_PRODUCT_F, _PRODUCT_G, _PRODUCT_SUM = _term_tables(
    (a, b, _SIGN[a][b], a | b) for a in _MASKS for b in _MASKS
)
# {f, g} reads each pair through both derivatives: under generator bit m it takes f at
# a | m and g at b | m, signed by xi_a xi_m, xi_a xi_b and xi_m xi_b; 27 terms survive
_BRACKET_F, _BRACKET_G, _BRACKET_SUM = _term_tables(
    (a | m, b | m, _SIGN[a][m] * _SIGN[a][b] * _SIGN[m][b], a | b)
    for m in _BITS
    for a in _MASKS
    for b in _MASKS
)

# d/dxi_i moves the coefficient of rest | bit onto rest, signed as xi_rest xi_i (right)
# or xi_i xi_rest (left); rows i - 1, columns rest
_DERIVATIVE_SOURCE = np.array([[rest | m for rest in _MASKS] for m in _BITS])
_RIGHT_SIGN = np.array(_SIGN, dtype=complex)[:, list(_BITS)].T
_LEFT_SIGN = np.array(_SIGN, dtype=complex)[list(_BITS), :]

# quantization image of each monomial in mask order, flattened to the 4 entries of its 2x2 matrix
_QUANT_IMAGE = np.array([
    IDENTITY2, _INV_SQRT2 * SIGMA1, _INV_SQRT2 * SIGMA2, 0.5j * SIGMA3,
    _INV_SQRT2 * SIGMA3, -0.5j * SIGMA2, 0.5j * SIGMA1, 0.5j * _INV_SQRT2 * IDENTITY2,
]).reshape(_BASIS_SIZE, 4)


def _coefficients(f) -> np.ndarray:
    """Coefficient stack (..., 8) of an element or of an array of coefficients."""
    return f.coeffs if isinstance(f, GrassmannElement) else np.asarray(f, dtype=complex)


def _product(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Graded product of coefficient stacks, broadcast over the leading axes."""
    return (f[..., _PRODUCT_F] * g[..., _PRODUCT_G]) @ _PRODUCT_SUM


def _parity(c: np.ndarray) -> np.ndarray:
    """Per-element parity (True for odd) of a stack; zero counts as even."""
    kinds = (c != 0) @ _PARITY_KINDS  # has an even term, has an odd term
    if np.logical_and(kinds[..., 0], kinds[..., 1]).any():
        raise NonHomogeneousError("element mixes even and odd degrees")
    return kinds[..., 1]


def _generator_index(i: int) -> int:
    if not 1 <= i <= 3:
        raise ValidationError("generator index must be 1, 2 or 3")
    return i - 1


class GrassmannElement:
    """Complex polynomial in three anticommuting generators; GrassmannElement() is zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.coeffs = np.zeros(_BASIS_SIZE, dtype=complex)
        else:
            self.coeffs = np.asarray(coeffs, dtype=complex).reshape(_BASIS_SIZE).copy()

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

    def parity(self) -> int:
        """0 or 1 for parity-homogeneous elements; zero counts as even."""
        return int(_parity(self.coeffs))

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
        terms = []
        for mask in _MASKS:
            c = self.coeffs[mask]
            if c == 0:
                continue
            mono = "".join(f"x{i + 1}" for i in range(3) if mask & (1 << i)) or "1"
            terms.append(f"({c:g})*{mono}")
        return "GrassmannElement(" + (" + ".join(terms) if terms else "0") + ")"


def generator(i: int) -> GrassmannElement:
    """The i-th generator, i in {1, 2, 3}."""
    return GrassmannElement(_UNIT_ROWS[1 << _generator_index(i)])


def product(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """Associative graded product; nilpotency and anticommutation are built in."""
    return GrassmannElement(_product(f.coeffs, g.coeffs))


def involution_star(f: GrassmannElement) -> GrassmannElement:
    """Antilinear anti-automorphism fixing the generators.

    Coefficients are conjugated and each degree-k monomial picks up the
    order-reversal sign; fixed points have real scalar and linear parts and
    purely imaginary quadratic and cubic parts.
    """
    return GrassmannElement(_REVERSAL_SIGN * np.conj(f.coeffs))


def substitute(f: GrassmannElement, matrix) -> GrassmannElement:
    """Replace generator i by sum_k matrix[i, k] * generator k and expand."""
    m = np.asarray(matrix, dtype=complex).reshape(3, 3)
    images = np.zeros((3, _BASIS_SIZE), dtype=complex)
    images[:, [0b001, 0b010, 0b100]] = m
    # row a starts as the coefficient of monomial a and takes the images of its generators in order
    terms = np.zeros((_BASIS_SIZE, _BASIS_SIZE), dtype=complex)
    terms[:, 0] = f.coeffs
    for image, bit in zip(images, _BITS):
        rows = [a for a in _MASKS if a & bit]
        terms[rows] = _product(terms[rows], image)
    return GrassmannElement(terms.sum(axis=0))


def _require_orthogonal(rotation) -> np.ndarray:
    r = np.asarray(rotation, dtype=complex).reshape(3, 3)
    if not np.isfinite(r).all():
        raise ValidationError("matrix is not complex-orthogonal: it has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):  # entries past 1e154 overflow r r^T
        residual = np.linalg.norm(r @ r.T - np.eye(3))
        bound = 1e-10 * max(1.0, np.linalg.norm(r) ** 2)
    if not residual <= bound < np.inf:  # a NaN residual or an overflowed bound fails too
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
    return substitute(involution_star(substitute(g, r)), r.T)


def right_derivative(f: GrassmannElement, i: int) -> GrassmannElement:
    """Right derivative with respect to generator i."""
    k = _generator_index(i)
    return GrassmannElement(_RIGHT_SIGN[k] * f.coeffs[_DERIVATIVE_SOURCE[k]])


def left_derivative(f: GrassmannElement, i: int) -> GrassmannElement:
    """Left derivative with respect to generator i."""
    k = _generator_index(i)
    return GrassmannElement(_LEFT_SIGN[k] * f.coeffs[_DERIVATIVE_SOURCE[k]])


def dirac_bracket(f, g):
    """Reduced Dirac bracket on the constraint surface.

    {f, g} = -i sum_m (right derivative of f) (left derivative of g); the
    generator pairs give -i delta_ij and the rest follows by the graded
    derivation rules.  Both arguments must be parity-homogeneous.  Two
    elements give an element; coefficient stacks (..., 8) give a stack.
    """
    fc, gc = _coefficients(f), _coefficients(g)
    _parity(fc)
    _parity(gc)
    out = -1j * ((fc[..., _BRACKET_F] * gc[..., _BRACKET_G]) @ _BRACKET_SUM)
    if isinstance(f, GrassmannElement) and isinstance(g, GrassmannElement):
        return GrassmannElement(out)
    return out


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


def quantize(f) -> np.ndarray:
    """Linear extension of the antisymmetrized monomial quantization.

    Generators map to sigma_i / sqrt(2); a degree-k monomial maps to the
    average of its k! signed operator orderings, precomputed in closed form
    so the even-degree images are exact dyadic matrices.  An element gives
    a 2x2 matrix, a coefficient stack (..., 8) a stack (..., 2, 2).
    """
    c = _coefficients(f)
    return (c @ _QUANT_IMAGE).reshape(c.shape[:-1] + (2, 2))


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
    return quantize(g.coeffs * np.where(_PARITY_KINDS[:, 1], sign, 1.0))


def graded_commutator(a: np.ndarray, b: np.ndarray, parity_a, parity_b) -> np.ndarray:
    """[a, b] = a b - (-1)^(P_a P_b) b a, on matrices or stacks (..., 2, 2) with parity arrays."""
    sign = np.where(np.logical_and(parity_a, parity_b), -1.0, 1.0)[..., None, None]
    return a @ b - sign * (b @ a)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of bracket-versus-commutator comparisons: one, or a list for a stack."""

    exact: bool | list
    residual: float | list
    bracket_image: np.ndarray
    commutator_image: np.ndarray


def verify_correspondence(f, g, tol: float = 1e-12) -> CorrespondenceReport:
    """Compare the quantized Dirac bracket with the graded commutator.

    Checks Q({f, g}) against (1/i) [Q(f), Q(g)] at unit hbar.  On this
    finite algebra the identity holds without corrections for every pair
    tested; residuals are pure floating-point noise from the sqrt(2)
    normalization of odd generators.  f and g are elements or coefficient
    stacks (..., 8) verified pair by pair in one pass; a stack gives lists
    of flags and residuals.
    """
    fc, gc = _coefficients(f), _coefficients(g)
    lhs, qf, qg = quantize(np.stack(np.broadcast_arrays(dirac_bracket(fc, gc), fc, gc)))
    rhs = -1j * graded_commutator(qf, qg, _parity(fc), _parity(gc))
    residual = np.abs(lhs - rhs).max(axis=(-2, -1))
    # a NaN image makes the residual NaN, so the pair is not exact whatever the scale
    scale = np.maximum(1.0, np.abs(np.stack([lhs, rhs])).max(axis=(0, -2, -1)))
    return CorrespondenceReport((residual <= tol * scale).tolist(), residual.tolist(), lhs, rhs)


def correspondence_suite(field, tol: float = 1e-12) -> dict:
    """Machine-checkable report over generator pairs and Hamiltonian pairs, in one batched pass."""
    xi = {i: _UNIT_ROWS[1 << (i - 1)] for i in range(1, 4)}
    h = precession_hamiltonian(field).coeffs
    basis = [(a, b) for a in _MASKS for b in _MASKS]
    cases = (
        [("generator_pairs", {"i": i, "j": j}, xi[i], xi[j]) for i in xi for j in xi]
        + [("hamiltonian_pairs", {"i": i}, h, xi[i]) for i in xi]
        + [("basis_pairs", {"a": a, "b": b}, _UNIT_ROWS[a], _UNIT_ROWS[b]) for a, b in basis]
    )
    _, _, fs, gs = zip(*cases)
    rep = verify_correspondence(np.array(fs), np.array(gs), tol)
    results = {"generator_pairs": [], "hamiltonian_pairs": [], "basis_pairs": []}
    for (group, labels, _, _), exact, residual in zip(cases, rep.exact, rep.residual):
        results[group].append({**labels, "exact": exact, "residual": residual})
    everything = [entry for entries in results.values() for entry in entries]
    results["all_exact"] = all(entry["exact"] for entry in everything)
    results["max_residual"] = max(entry["residual"] for entry in everything)
    results["non_exact_pairs"] = [e for e in results["basis_pairs"] if not e["exact"]]
    return results
