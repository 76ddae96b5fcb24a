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

import functools
from dataclasses import dataclass
from typing import NamedTuple

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


def _as_coefficients(c, stack: bool = False) -> np.ndarray:
    """c as the 8 coefficients of one element, or with stack as a stack (..., 8) of them; input
    of another size is a ValidationError."""
    c = np.asarray(c, dtype=complex)
    try:
        return c.reshape(c.shape[:-1] + (_BASIS_SIZE,) if stack else _BASIS_SIZE)
    except ValueError as exc:
        raise ValidationError(f"an element needs 8 coefficients, got shape {c.shape}") from exc


def _as_substitution(matrix) -> np.ndarray:
    """matrix as a 3x3 complex matrix; input of another size is a ValidationError."""
    m = np.asarray(matrix, dtype=complex)
    try:
        return m.reshape(3, 3)
    except ValueError as exc:
        raise ValidationError(f"a substitution needs 3x3 entries, got shape {m.shape}") from exc


def _coefficients(f) -> np.ndarray:
    """Coefficient stack (..., 8) of an element or of an array of coefficients."""
    return f.coeffs if isinstance(f, GrassmannElement) else _as_coefficients(f, stack=True)


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
            self.coeffs = _as_coefficients(coeffs).copy()

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
    m = _as_substitution(matrix)
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
    r = _as_substitution(rotation)
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
    derivation rules.  Both arguments must be parity-homogeneous; f is
    checked first.  Two elements give an element; coefficient stacks
    (..., 8) give a stack.
    """
    fc, gc = _coefficients(f), _coefficients(g)
    _parity(fc)
    _parity(gc)
    out = _bracket(fc, gc)
    if isinstance(f, GrassmannElement) and isinstance(g, GrassmannElement):
        return GrassmannElement(out)
    return out


def _bracket(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """dirac_bracket of coefficient stacks whose parities have been checked."""
    return -1j * ((fc[..., _BRACKET_F] * gc[..., _BRACKET_G]) @ _BRACKET_SUM)


def precession_hamiltonian(field) -> GrassmannElement:
    """Quadratic element -(i/2) eps_ijk xi_i xi_j F_k coupling spin to a field."""
    f = as_field(field)
    out = GrassmannElement()
    out.coeffs[0b011] = -1j * f[2]
    out.coeffs[0b110] = -1j * f[0]
    out.coeffs[0b101] = 1j * f[1]
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
    parities = _parity(fc), _parity(gc)  # once each, f first, as dirac_bracket checks them
    bracket = _bracket(fc, gc)
    lhs, qf, qg = quantize(np.stack(np.broadcast_arrays(bracket, fc, gc)))
    rhs = -1j * graded_commutator(qf, qg, *parities)
    residual = np.abs(lhs - rhs).max(axis=(-2, -1))
    exact = residual <= tol * _scale(lhs, rhs)
    return CorrespondenceReport(exact.tolist(), residual.tolist(), lhs, rhs)


def _scale(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per pair, the largest entry of either image and at least 1: a pair is exact when its
    residual is at most tol times this.  A NaN image makes the residual NaN, so the pair is not
    exact whatever the scale."""
    return np.maximum(1.0, np.maximum(*(np.abs(q).max(axis=(-2, -1)) for q in (lhs, rhs))))


# The suite's 76 pairs in report order: 9 generator pairs, 3 Hamiltonian pairs (f is the field's
# Hamiltonian, g a generator) and 64 basis pairs.  The 73 that do not depend on the field are
# listed here as (labels, f mask, g mask), generator pairs first.
_GENERATORS = tuple(enumerate(_BITS, 1))  # (index, mask)
_GENERATOR_PAIRS = len(_GENERATORS) ** 2
_FIXED_CASES = [({"i": i, "j": j}, a, b) for i, a in _GENERATORS for j, b in _GENERATORS] + [
    ({"a": a, "b": b}, a, b) for a in _MASKS for b in _MASKS
]
# f and g stacks of the 73 field-independent pairs, and g of the Hamiltonian pairs
_SUITE_F, _SUITE_G = (_UNIT_ROWS[[case[k] for case in _FIXED_CASES]] for k in (1, 2))
_HAMILTONIAN_G = _UNIT_ROWS[list(_BITS)]
_SUITE_F.flags.writeable = _SUITE_G.flags.writeable = _HAMILTONIAN_G.flags.writeable = False


@functools.cache
def _fixed_pairs() -> tuple:
    """Read-only residual and scale arrays of the 73 field-independent pairs, verified on first
    use and kept for the process.  At import they would cost every process, verifying or not,
    numpy's first complex matmul (about 0.9 MB of RSS)."""
    rep = verify_correspondence(_SUITE_F, _SUITE_G)
    out = np.array(rep.residual), _scale(rep.bracket_image, rep.commutator_image)
    for array in out:
        array.flags.writeable = False
    return out


class _FixedPart(NamedTuple):
    """The 73 field-independent pairs' flags against one tol and their residuals, in report
    order (9 generator pairs, then 64 basis pairs), with the aggregates a report takes of them;
    built through of(), which derives the aggregates."""

    exact: tuple
    residual: tuple
    generators_exact: bool
    all_exact: bool
    max_residual: float

    @classmethod
    def of(cls, exact: tuple, residual: tuple) -> _FixedPart:
        """The part with these flags and residuals and the aggregates derived from them."""
        return cls(exact, residual, all(exact[:_GENERATOR_PAIRS]), all(exact), max(residual))

    def records(self) -> tuple:
        """Fresh generator, basis and non-exact record lists; the non-exact records are the
        basis records themselves."""
        records = [
            {**labels, "exact": e, "residual": r}
            for (labels, _, _), e, r in zip(_FIXED_CASES, self.exact, self.residual, strict=True)
        ]
        basis = records[_GENERATOR_PAIRS:]
        return records[:_GENERATOR_PAIRS], basis, [e for e in basis if not e["exact"]]

    def totals(self, hamiltonian: list) -> dict:
        """all_exact and max_residual of the suite with these Hamiltonian records, as one pass
        over all 76 pairs in report order gives them: max skips a NaN unless it comes first, and
        the fixed residuals, which come first, are finite."""
        return {
            "all_exact": self.all_exact and all(e["exact"] for e in hamiltonian),
            "max_residual": max(self.max_residual, *(e["residual"] for e in hamiltonian)),
        }


def _fixed_part(tol) -> _FixedPart:
    """The field-independent part of correspondence_suite at tol: the flags come from
    verify_correspondence's comparison on the residuals and scales kept per process."""
    residuals, scale = _fixed_pairs()
    return _FixedPart.of(tuple((residuals <= tol * scale).tolist()), tuple(residuals.tolist()))


def _hamiltonian_pairs(field, tol: float) -> list:
    """Fresh records of the 3 field-dependent pairs, {H(field), generator i}, verified in one
    batched pass."""
    h = precession_hamiltonian(field).coeffs[None].repeat(len(_HAMILTONIAN_G), axis=0)
    rep = verify_correspondence(h, _HAMILTONIAN_G, tol)
    return [
        {"i": i, "exact": e, "residual": r}
        for (i, _), e, r in zip(_GENERATORS, rep.exact, rep.residual)
    ]


def correspondence_suite(field, tol: float = 1e-12) -> dict:
    """Machine-checkable report over generator, Hamiltonian and basis pairs.

    Only the 3 Hamiltonian pairs depend on the field; they are verified per call in one batched
    pass.  The other 73 were verified once per process; only their flags are compared against
    tol here (_fixed_part).  Every call returns fresh lists of fresh dicts, so a caller may
    change them without touching the next report.
    """
    fixed = _fixed_part(tol)
    hamiltonian = _hamiltonian_pairs(field, tol)
    generator_pairs, basis_pairs, non_exact_pairs = fixed.records()
    return {
        "generator_pairs": generator_pairs,
        "hamiltonian_pairs": hamiltonian,
        "basis_pairs": basis_pairs,
        **fixed.totals(hamiltonian),
        "non_exact_pairs": non_exact_pairs,
    }
