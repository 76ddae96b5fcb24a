import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pseudospin import grassmann
from pseudospin.exceptions import NonHomogeneousError, ValidationError
from pseudospin.grassmann import (
    GrassmannElement,
    correspondence_suite,
    dirac_bracket,
    generator,
    graded_commutator,
    involution_plus,
    involution_star,
    left_derivative,
    precession_hamiltonian,
    product,
    pullback,
    pushforward,
    quantize,
    quantize_transformed,
    right_derivative,
    substitute,
    verify_correspondence,
)
from pseudospin.linalg import IDENTITY2, SIGMA, SIGMA1, SIGMA2, SIGMA3, hamiltonian_from_field
from pseudospin.metric import build_isometry, canonical_rotation

from helpers import (
    random_complex_orthogonal,
    reference_left_derivative,
    reference_product,
    reference_quantize,
    reference_right_derivative,
    reference_suite,
)

RNG = np.random.default_rng(3)

XI = [generator(i) for i in range(1, 4)]
COEFF_VALUES = (0.0, 1.0, 1j)
ODD_MASKS = np.array([bin(m).count("1") % 2 == 1 for m in range(8)])


def dist(f, g):
    return float(np.max(np.abs(f.coeffs - g.coeffs)))


def random_element(rng, masks=range(8)):
    out = GrassmannElement()
    for m in masks:
        out.coeffs[m] = complex(rng.standard_normal(), rng.standard_normal())
    return out


def random_homogeneous(rng, parity):
    masks = (0, 3, 5, 6) if parity == 0 else (1, 2, 4, 7)
    return random_element(rng, masks)


def permutation_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def antisymmetrized_image(mask):
    """Permutation-sum quantization of a monomial; oracle for the closed forms."""
    gens = [SIGMA[i] / np.sqrt(2.0) for i in range(3) if mask & (1 << i)]
    k = len(gens)
    out = np.zeros((2, 2), dtype=complex)
    if k == 0:
        return IDENTITY2.copy()
    for perm in itertools.permutations(range(k)):
        m = IDENTITY2.copy()
        for p in perm:
            m = m @ gens[p]
        out += permutation_sign(perm) * m
    return out / math.factorial(k)


def antilinear_matrix(op):
    """Matrix A with op(c) = A conj(c), probed on the (real) basis monomials."""
    cols = []
    for m in range(8):
        e = GrassmannElement()
        e.coeffs[m] = 1.0
        cols.append(op(e).coeffs)
    return np.stack(cols, axis=1)


def coefficient_grid():
    return np.array(list(itertools.product(*([COEFF_VALUES] * 8))), dtype=complex)


# ------------------------------------------------------------------ algebra


def test_generator_nilpotency():
    assert dist(XI[0] * XI[0], GrassmannElement()) == 0.0


def test_generator_anticommutation():
    assert dist(XI[0] * XI[1] + XI[1] * XI[0], GrassmannElement()) == 0.0


def test_basis_product():
    top = (XI[0] * XI[1]) * XI[2]
    assert top.coefficient((1, 2, 3)) == 1.0
    assert dist(XI[2] * (XI[0] * XI[1]), top) == 0.0  # two transpositions


def test_product_associativity_random():
    for _ in range(20):
        f, g, h = (random_element(RNG) for _ in range(3))
        assert dist(product(product(f, g), h), product(f, product(g, h))) < 1e-13


def test_parity_bookkeeping():
    even, odd = random_homogeneous(RNG, 0), random_homogeneous(RNG, 1)
    assert even.parity() == 0 and odd.parity() == 1
    assert product(even, odd).parity() == 1
    assert product(odd, odd).parity() == 0
    with pytest.raises(NonHomogeneousError):
        (even + odd).parity()


def test_element_difference_negation_scaling_and_repr():
    one = GrassmannElement.from_scalar(1.0)
    f = one + XI[0] * XI[2] * 2j
    assert f - one == 2j * (XI[0] * XI[2])
    assert -f == f * -1.0 and np.array_equal((-f).coeffs, -f.coeffs)
    assert f + -f == GrassmannElement()
    assert repr(f) == "GrassmannElement((1+0j)*1 + (0+2j)*x1x3)"
    assert repr(GrassmannElement()) == "GrassmannElement(0)"
    assert f != 1.0
    for other in (1.0, "x"):
        with pytest.raises(TypeError):
            f + other
        with pytest.raises(TypeError):
            f - other


def test_generator_and_monomial_indices_are_checked():
    with pytest.raises(ValidationError, match="^generator index must be 1, 2 or 3$"):
        generator(4)
    for bad in ((1, 1), (0,), (1, 4)):
        with pytest.raises(ValidationError, match="^bad monomial indices"):
            generator(1).coefficient(bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GrassmannElement([1, 2, 3]), r"an element needs 8 coefficients, got shape \(3,\)"),
        (lambda: GrassmannElement(np.ones((2, 8))), r"an element needs 8 coefficients, got shape \(2, 8\)"),
        (lambda: pullback(generator(1), np.eye(2)), r"a substitution needs 3x3 entries, got shape \(2, 2\)"),
        (lambda: substitute(generator(1), np.ones(4)), r"a substitution needs 3x3 entries, got shape \(4,\)"),
        (lambda: quantize(np.ones(3)), r"an element needs 8 coefficients, got shape \(3,\)"),
        (lambda: dirac_bracket(np.ones(3), np.ones(3)), r"an element needs 8 coefficients, got shape \(3,\)"),
        (lambda: dirac_bracket(generator(1), np.ones((2, 7))),
         r"an element needs 8 coefficients, got shape \(2, 7\)"),
        (lambda: verify_correspondence(np.ones(3), np.ones(3)),
         r"an element needs 8 coefficients, got shape \(3,\)"),
    ],
    ids=["element-of-3", "element-of-2x8", "pullback-2x2", "substitute-of-4", "quantize-of-3",
         "bracket-of-3", "bracket-stack-of-7", "verify-of-3"],
)
def test_input_of_the_wrong_size_is_validation_error(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


# -------------------------------------------------------------- involutions


def test_star_fixes_real_field_hamiltonian():
    h = precession_hamiltonian(RNG.standard_normal(3))
    assert involution_star(h) == h


def test_star_moves_complex_field_hamiltonian():
    h = precession_hamiltonian([1.0, 0.0, 0.5j])
    assert dist(involution_star(h), h) > 0.4


def test_star_on_quadratic_monomial():
    f = 1j * (XI[0] * XI[1])
    assert involution_star(f) == f  # conjugation and reversal signs cancel


def test_star_conjugates_scalars():
    c = GrassmannElement.from_scalar(2.0 - 3.0j)
    assert involution_star(c).scalar() == 2.0 + 3.0j


def test_star_is_involution():
    for _ in range(10):
        f = random_element(RNG)
        assert dist(involution_star(involution_star(f)), f) == 0.0


def test_star_is_anti_automorphism():
    for _ in range(10):
        f, g = random_homogeneous(RNG, RNG.integers(2)), random_homogeneous(RNG, RNG.integers(2))
        lhs = involution_star(product(f, g))
        rhs = product(involution_star(g), involution_star(f))
        assert dist(lhs, rhs) < 1e-13


def test_star_fixed_point_class_exhaustive():
    # real subalgebra: degrees 0 and 1 real, degrees 2 and 3 purely imaginary
    grid = coefficient_grid()
    star = antilinear_matrix(involution_star)
    fixed = np.max(np.abs(np.conj(grid) @ star.T - grid), axis=1) < 1e-12
    real_masks, imag_masks = [0, 1, 2, 4], [3, 5, 6, 7]
    printed = np.all(np.abs(grid[:, real_masks].imag) < 1e-12, axis=1) & np.all(
        np.abs(grid[:, imag_masks].real) < 1e-12, axis=1
    )
    assert np.array_equal(fixed, printed)
    assert 0 < int(fixed.sum()) < len(grid)


def plane_rotation_pair():
    v, alpha = 1.0, 0.6
    f = np.array([v, 0.0, 1j * alpha])
    b = np.array([np.sqrt(v**2 - alpha**2), 0.0, 0.0])
    return f, b, canonical_rotation(f, b)


def test_plus_reduces_to_star_at_identity():
    for _ in range(5):
        f = random_element(RNG)
        assert dist(involution_plus(f, np.eye(3)), involution_star(f)) < 1e-14


def test_plus_fixes_transformed_hamiltonian_from_real_field():
    f, b, r = plane_rotation_pair()
    h_rotated = precession_hamiltonian(f)  # field components satisfy f = R b
    assert np.allclose(r @ b, f, atol=1e-12)
    assert dist(involution_plus(h_rotated, r), h_rotated) < 1e-12


def test_plus_is_involution():
    for _ in range(10):
        r = random_complex_orthogonal(RNG)
        f = random_element(RNG)
        assert dist(involution_plus(involution_plus(f, r), r), f) < 1e-10


def test_plus_fixed_point_class_exhaustive():
    # printed class: g0 real, g1 = R R^dagger conj(g1), R^T g2 R Hermitian, k real
    _, _, r = plane_rotation_pair()
    grid = coefficient_grid()
    plus = antilinear_matrix(lambda e: involution_plus(e, r))
    fix_residual = np.max(np.abs(np.conj(grid) @ plus.T - grid), axis=1)
    fixed = fix_residual < 1e-9

    g0 = grid[:, 0]
    g1 = grid[:, [1, 2, 4]]
    g2 = np.zeros((len(grid), 3, 3), dtype=complex)
    for (i, j), mask in (((0, 1), 3), ((0, 2), 5), ((1, 2), 6)):
        g2[:, i, j] = 0.5 * grid[:, mask]
        g2[:, j, i] = -g2[:, i, j]
    k = -1j * grid[:, 7]

    cond = np.abs(g0.imag) < 1e-9
    cond &= np.max(np.abs(g1 - np.conj(g1) @ (r @ r.conj().T).T), axis=1) < 1e-9
    t = np.einsum("ia,nij,jb->nab", r, g2, r)
    cond &= np.max(np.abs(t - np.conj(np.transpose(t, (0, 2, 1)))), axis=(1, 2)) < 1e-9
    cond &= np.abs(k.imag) < 1e-9

    assert np.array_equal(fixed, cond)
    assert 0 < int(fixed.sum()) < len(grid)
    # clean separation: nothing sits between the pass and fail bands
    assert not np.any((fix_residual > 1e-9) & (fix_residual < 1e-6))


def test_reality_transport_exhaustive():
    # f star-real iff its pushforward is plus-real
    _, _, r = plane_rotation_pair()
    grid = coefficient_grid()
    star = antilinear_matrix(involution_star)
    star_fixed = np.max(np.abs(np.conj(grid) @ star.T - grid), axis=1) < 1e-9
    push = np.stack([pushforward(GrassmannElement(row), r).coeffs for row in grid])
    plus = antilinear_matrix(lambda e: involution_plus(e, r))
    plus_fixed = np.max(np.abs(np.conj(push) @ plus.T - push), axis=1) < 1e-9
    assert np.array_equal(star_fixed, plus_fixed)


# ------------------------------------------------------------- substitution


def test_pullback_identity():
    f = random_element(RNG)
    assert dist(pullback(f, np.eye(3)), f) < 1e-15


def test_pullback_of_transformed_hamiltonian():
    # the rotated-field Hamiltonian pulls back to the real-field one
    f, b, r = plane_rotation_pair()
    assert dist(pullback(precession_hamiltonian(f), r), precession_hamiltonian(b)) < 1e-12


def test_pullback_respects_field_transport_for_random_rotations():
    for _ in range(10):
        r = random_complex_orthogonal(RNG)
        b = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        f = np.linalg.det(r) * (r @ b)
        assert dist(pullback(precession_hamiltonian(f), r), precession_hamiltonian(b)) < 1e-10


def test_pullback_top_monomial_gives_determinant():
    for _ in range(5):
        r = random_complex_orthogonal(RNG)
        top = XI[0] * XI[1] * XI[2]
        pulled = pullback(top, r)
        assert abs(pulled.coefficient((1, 2, 3)) - np.linalg.det(r)) < 1e-12
        assert max(abs(pulled.coeffs[m]) for m in range(7)) < 1e-12


def test_pullback_inverts_pushforward():
    for _ in range(16):
        r = random_complex_orthogonal(RNG)
        f = random_element(RNG)
        assert dist(pullback(pushforward(f, r), r), f) < 1e-10


def test_substitute_rejects_non_orthogonal():
    with pytest.raises(ValidationError):
        pullback(XI[0], np.diag([2.0, 1.0, 1.0]))


def _with_entry(value):
    r = np.eye(3, dtype=complex)
    r[1, 2] = value
    return r


@pytest.mark.parametrize("transform", [pullback, pushforward, involution_plus])
@pytest.mark.parametrize(
    "matrix",
    [np.full((3, 3), np.nan), _with_entry(np.inf), _with_entry(complex(0.0, -np.inf)), 1e200 * np.eye(3)],
    ids=["nan", "inf", "imag-inf", "overflowing"],
)
def test_transforms_refuse_non_finite_matrices_without_warnings(transform, matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="complex-orthogonal"):
            transform(XI[0], matrix)


# ------------------------------------------------------------ Dirac bracket


def test_bracket_generator_pairs():
    for i in range(3):
        for j in range(3):
            out = dirac_bracket(XI[i], XI[j])
            expected = -1j if i == j else 0.0
            assert out.scalar() == expected
            assert np.all(out.coeffs[1:] == 0)


def test_bracket_equations_of_motion():
    b = np.array([0.7, -1.1, 0.4])
    h = precession_hamiltonian(b)
    eps = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        eps[i, j, k] = permutation_sign((i, j, k))
    for i in range(3):
        out = dirac_bracket(XI[i], h)
        expected = GrassmannElement()
        for j in range(3):
            for k in range(3):
                expected.coeffs[1 << j] += -eps[i, j, k] * b[k]
        assert dist(out, expected) < 1e-14


def test_bracket_graded_antisymmetry():
    for _ in range(20):
        pf, pg = RNG.integers(2), RNG.integers(2)
        f, g = random_homogeneous(RNG, pf), random_homogeneous(RNG, pg)
        sign = -1.0 if (pf and pg) else 1.0
        assert dist(dirac_bracket(f, g), -sign * dirac_bracket(g, f)) < 1e-13


def test_bracket_rejects_mixed_parity():
    with pytest.raises(NonHomogeneousError):
        dirac_bracket(XI[0] + GrassmannElement.from_scalar(1.0), XI[1])


def test_right_and_left_derivatives():
    top = XI[0] * XI[1] * XI[2]
    # right derivative at position j of degree k carries (-1)^(k-j)
    assert dist(right_derivative(top, 1), XI[1] * XI[2]) == 0.0
    assert dist(right_derivative(top, 2), -1.0 * (XI[0] * XI[2])) == 0.0
    assert dist(left_derivative(top, 2), -1.0 * (XI[0] * XI[2])) == 0.0
    assert dist(left_derivative(top, 3), XI[0] * XI[1]) == 0.0


def gaussian_integer_homogeneous(parity):
    """Parity-homogeneous element with small Gaussian-integer coefficients: products are exact."""
    masks = (0, 3, 5, 6) if parity == 0 else (1, 2, 4, 7)
    pairs = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=4, max_size=4)

    def build(values):
        out = GrassmannElement()
        for m, (re, im) in zip(masks, values):
            out.coeffs[m] = complex(re, im)
        return out

    return pairs.map(build)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), pf=st.integers(0, 1), pg=st.integers(0, 1), i=st.integers(1, 3))
def test_derivative_sign_rules(data, pf, pg, i):
    # graded Leibniz rules for both derivatives and the parity relation between them
    f = data.draw(gaussian_integer_homogeneous(pf))
    g = data.draw(gaussian_integer_homogeneous(pg))
    fg = product(f, g)
    right = product(f, right_derivative(g, i)) + (-1) ** pg * product(right_derivative(f, i), g)
    left = product(left_derivative(f, i), g) + (-1) ** pf * product(f, left_derivative(g, i))
    assert right_derivative(fg, i) == right
    assert left_derivative(fg, i) == left
    assert left_derivative(f, i) == (-1) ** (pf - 1) * right_derivative(f, i)


# ------------------------------------------------------------- quantization


def test_quantize_images_match_permutation_sum():
    for mask in range(8):
        e = GrassmannElement()
        e.coeffs[mask] = 1.0
        assert np.max(np.abs(quantize(e) - antisymmetrized_image(mask))) < 1e-15


def test_quantize_unit_and_generators():
    assert np.array_equal(quantize(GrassmannElement.from_scalar(1.0)), IDENTITY2)
    assert np.allclose(quantize(XI[0]), SIGMA1 / np.sqrt(2.0), atol=1e-16)


def test_quantize_precession_hamiltonian_is_exact():
    b = np.array([0.7, -1.1, 0.4])
    assert np.array_equal(quantize(precession_hamiltonian(b)), hamiltonian_from_field(b))


def test_quantize_quadratic_monomial():
    expected = 0.25 * (SIGMA1 @ SIGMA2 - SIGMA2 @ SIGMA1)
    assert np.array_equal(quantize(XI[0] * XI[1]), expected)
    assert np.array_equal(quantize(XI[0] * XI[1]), 0.5j * SIGMA3)


def test_quantize_star_real_elements_are_hermitian():
    for _ in range(20):
        f = GrassmannElement()
        f.coeffs[[0, 1, 2, 4]] = RNG.standard_normal(4)
        f.coeffs[[3, 5, 6, 7]] = 1j * RNG.standard_normal(4)
        assert involution_star(f) == f
        q = quantize(f)
        assert np.max(np.abs(q - q.conj().T)) < 1e-15


def test_anticommutation_relations():
    for i in range(3):
        for j in range(3):
            acomm = graded_commutator(quantize(XI[i]), quantize(XI[j]), 1, 1)
            expected = IDENTITY2 if i == j else np.zeros((2, 2))
            assert np.max(np.abs(acomm - expected)) < 4e-16


def test_quantize_transformed_rotated_hamiltonian():
    f, b, r = plane_rotation_pair()
    assert np.array_equal(quantize_transformed(precession_hamiltonian(f), r),
                          hamiltonian_from_field(f))


def test_quantize_transformed_generator_and_det_sign():
    f, b, r = plane_rotation_pair()
    assert np.allclose(quantize_transformed(XI[0], r), SIGMA1 / np.sqrt(2.0), atol=1e-16)
    reflection = np.diag([1.0, 1.0, -1.0])
    assert np.allclose(quantize_transformed(XI[0], reflection), -SIGMA1 / np.sqrt(2.0))


def test_quantize_transformed_refuses_an_orthogonal_matrix_whose_determinant_is_not_one():
    # _require_orthogonal's bound grows with |r|^2: a complex rotation about y by 7i, scaled by
    # 1 + 3e-6, passes it (|r|^2 ~ 1.2e6, r r^T = 1.000006 I) with a determinant of 1.000009
    theta = 7j
    c, s = np.cos(theta), np.sin(theta)
    r = (1 + 3e-6) * np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    assert np.linalg.norm(r) ** 2 > 1e6
    pullback(XI[0], r)  # the orthogonality check passes
    with pytest.raises(ValidationError, match=r"^determinant 1\.00001\+0j is not \+-1$"):
        quantize_transformed(XI[0], r)


def test_quantizations_are_isometry_similar():
    # the two quantized Hamiltonians of a canonical pair are conjugate by M
    f, b, r = plane_rotation_pair()
    pair = build_isometry(f, b)
    q_real = quantize(precession_hamiltonian(b))
    q_rotated = quantize_transformed(precession_hamiltonian(f), r)
    conjugated = pair.isometry @ q_real @ np.linalg.inv(pair.isometry)
    assert np.max(np.abs(q_rotated - conjugated)) < 1e-12


def test_heisenberg_evolution_matches_classical_precession():
    b = np.array([0.9, 0.2, -0.5])
    h = precession_hamiltonian(b)
    hq = quantize(h)
    for i in range(3):
        heisenberg = 1j * (hq @ quantize(XI[i]) - quantize(XI[i]) @ hq)
        classical = quantize(dirac_bracket(XI[i], h))
        assert np.max(np.abs(heisenberg - classical)) < 1e-15


# ----------------------------------------------------------- correspondence


def test_correspondence_generator_pairs_exact():
    for i in range(3):
        for j in range(3):
            rep = verify_correspondence(XI[i], XI[j])
            assert rep.exact
            expected = -1j * IDENTITY2 if i == j else np.zeros((2, 2))
            assert np.max(np.abs(rep.bracket_image - expected)) < 1e-15


def test_correspondence_hamiltonian_pairs_exact():
    h = precession_hamiltonian([1.3, -0.2, 0.8])
    for i in range(3):
        rep = verify_correspondence(h, XI[i])
        assert rep.exact
        assert rep.residual < 1e-15


def test_correspondence_with_unit_is_trivial():
    rep = verify_correspondence(GrassmannElement.from_scalar(1.0), random_homogeneous(RNG, 0))
    assert rep.exact
    assert np.max(np.abs(rep.bracket_image)) == 0.0
    assert np.max(np.abs(rep.commutator_image)) < 1e-15


def test_correspondence_suite_report():
    suite = correspondence_suite([0.7, -1.1, 0.4])
    assert all(entry["exact"] for entry in suite["generator_pairs"])
    assert all(entry["exact"] for entry in suite["hamiltonian_pairs"])
    assert len(suite["generator_pairs"]) == 9
    assert len(suite["basis_pairs"]) == 64
    # the only non-exact basis pair is the top monomial with itself: its
    # Dirac self-bracket vanishes while the graded self-anticommutator is
    # 2 Q(top)^2 = -I/4, an hbar^2 term that survives at unit hbar
    assert [(e["a"], e["b"]) for e in suite["non_exact_pairs"]] == [(7, 7)]
    assert suite["non_exact_pairs"][0]["residual"] == pytest.approx(0.25, abs=1e-12)
    assert not suite["all_exact"]


def test_top_monomial_self_pair_is_the_hbar_squared_exception():
    top = XI[0] * XI[1] * XI[2]
    assert dist(dirac_bracket(top, top), GrassmannElement()) == 0.0
    rep = verify_correspondence(top, top)
    assert not rep.exact
    assert np.allclose(rep.commutator_image, 0.25j * IDENTITY2, atol=1e-15)


def test_every_suite_pair_takes_the_one_verify_path():
    # verify_correspondence on one pair is the suite's batched verifier at N = 1
    field = [0.7, -1.1, 0.4]
    suite = correspondence_suite(field)
    h = precession_hamiltonian(field)
    mono = [GrassmannElement(row) for row in np.eye(8)]
    pairs = (
        [(XI[e["i"] - 1], XI[e["j"] - 1], e) for e in suite["generator_pairs"]]
        + [(h, XI[e["i"] - 1], e) for e in suite["hamiltonian_pairs"]]
        + [(mono[e["a"]], mono[e["b"]], e) for e in suite["basis_pairs"]]
    )
    assert len(pairs) == 76
    for f, g, entry in pairs:
        rep = verify_correspondence(f, g)
        assert rep.exact is entry["exact"]
        assert rep.residual.hex() == entry["residual"].hex()


def test_batched_verify_rejects_mixed_parity():
    mixed = GrassmannElement.from_scalar(1.0) + XI[0]
    with pytest.raises(NonHomogeneousError):
        verify_correspondence(mixed, XI[1])
    with pytest.raises(NonHomogeneousError):
        verify_correspondence(np.stack([XI[0].coeffs, mixed.coeffs]), XI[1].coeffs)


# ------------------------------------------------------ loop reference pin

EPS = np.finfo(float).eps
TINY = 8 * np.finfo(float).smallest_subnormal  # rounding of products that underflow
EDGE_COMPONENTS = st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e150, 5e-324, -2.5e-310])
SCALED_COMPONENTS = st.builds(lambda m, k: m * 10.0**k, st.floats(-10.0, 10.0), st.integers(-8, 8))
FIELDS = st.lists(st.one_of(SCALED_COMPONENTS, EDGE_COMPONENTS), min_size=3, max_size=3)
# tolerances either side of the generator and basis pairs' residuals (a few 1e-16, and 0.25 for
# the top monomial with itself), so that the pairs verified once per process flip their flags
SUITE_TOLS = st.sampled_from([1e-12, 1e-17, 1e-16, 2.3e-16, 1e-13, 0.2, 0.3]) | st.floats(1e-18, 0.5)
GAUSSIAN = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=8, max_size=8).map(
    lambda pairs: np.array([complex(re, im) for re, im in pairs])
)
DENSE = hnp.arrays(
    np.complex128, 8, elements=st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
)


@settings(max_examples=150, deadline=None)
@given(field=FIELDS, tol=SUITE_TOLS)
def test_suite_matches_loop_reference_bit_for_bit(field, tol):
    suite, pinned = correspondence_suite(field, tol), reference_suite(field, tol)
    for group in ("generator_pairs", "hamiltonian_pairs", "basis_pairs"):
        for entry, ref in zip(suite[group], pinned[group], strict=True):
            assert entry["exact"] is ref["exact"]
            assert entry["residual"].hex() == ref["residual"].hex()
    # the whole report, as grassmann-verify writes it
    assert json.dumps(suite, sort_keys=True) == json.dumps(pinned, sort_keys=True)


def test_suite_tables_are_read_only():
    assert not grassmann._SUITE_F.flags.writeable
    assert not grassmann._SUITE_G.flags.writeable
    assert not grassmann._HAMILTONIAN_G.flags.writeable
    assert not any(kept.flags.writeable for kept in grassmann._fixed_pairs())


def test_fixed_part_holds_the_flags_at_its_tol_and_their_aggregates():
    part = grassmann._fixed_part(1e-12)
    assert (part.generators_exact, part.all_exact) == (True, False)
    assert part.max_residual == max(part.residual) and type(part.max_residual) is float
    assert (len(part.exact), len(part.residual)) == (73, 73)
    assert type(part.exact) is tuple and type(part.residual) is tuple
    assert grassmann._fixed_part(0.5).all_exact and grassmann._fixed_part(0.5) != part
    # the aggregates follow the flags a part is built from
    flipped = part.of((False, *part.exact[1:]), part.residual)
    assert (flipped.generators_exact, flipped.all_exact) == (False, False)


@pytest.mark.parametrize("tol", [np.float64(1e-10), np.array(1e-10)], ids=["float64", "0-d"])
def test_suite_takes_a_numpy_tol(tol):
    # the comparison needs only a scalar: a NumPy scalar or 0-d array tol gives the float's report
    field = [0.7, -1.1, 0.4]
    expected = json.dumps(correspondence_suite(field, 1e-10), sort_keys=True)
    assert json.dumps(correspondence_suite(field, tol), sort_keys=True) == expected


def test_each_suite_is_fresh():
    field = [0.7, -1.1, 0.4]
    first, second = correspondence_suite(field), correspondence_suite(field)
    assert first == second
    groups = ("generator_pairs", "hamiltonian_pairs", "basis_pairs")
    records = {id(e) for k in groups for e in first[k]}
    assert len(records) == 76 and not records & {id(e) for k in groups for e in second[k]}
    # the non-exact records are basis records of the same report, as they always were
    assert all(any(e is b for b in first["basis_pairs"]) for e in first["non_exact_pairs"])


@settings(max_examples=30, deadline=None)
@given(first=FIELDS, second=FIELDS)
def test_consecutive_suites_each_match_the_loop_reference(first, second):
    # a call verifies only its own field's Hamiltonian pairs: nothing carries over to the next field
    for field in (first, second, first):
        suite, pinned = correspondence_suite(field), reference_suite(field)
        assert json.dumps(suite, sort_keys=True) == json.dumps(pinned, sort_keys=True)


def test_suite_calls_the_kernels_through_the_module_globals(monkeypatch):
    # the benchmark's tracer counts these calls by replacing the module attributes; the pairs that
    # do not depend on the field are verified before counting, so any test order counts the same.
    # verify_correspondence checks the parities itself and takes the unchecked _bracket, so the
    # suite makes no dirac_bracket call.
    grassmann._fixed_pairs()
    calls = dict.fromkeys(["verify_correspondence", "dirac_bracket", "quantize"], 0)
    for name in calls:

        def counted(*args, name=name, kernel=getattr(grassmann, name), **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(grassmann, name, counted)
    correspondence_suite([0.7, -1.1, 0.4])
    correspondence_suite([0.7, -1.1, 0.4], tol=0.5)
    assert calls == {"verify_correspondence": 2, "dirac_bracket": 0, "quantize": 2}
    assert grassmann._fixed_pairs.cache_info().misses == 1  # once per process, whatever the tol


def test_verify_correspondence_computes_each_parity_once(monkeypatch):
    seen = []

    def counted(c, kernel=grassmann._parity):
        seen.append(c.shape)
        return kernel(c)

    grassmann._fixed_pairs()  # the field-independent pairs, verified once per process
    monkeypatch.setattr(grassmann, "_parity", counted)
    correspondence_suite([0.7, -1.1, 0.4])
    assert seen == [(3, 8), (3, 8)]  # the Hamiltonian pairs' f, then g
    seen.clear()
    dirac_bracket(XI[0], XI[1])  # the public bracket still checks both arguments itself
    assert seen == [(8,), (8,)]


@settings(max_examples=200, deadline=None)
@given(f=GAUSSIAN, g=GAUSSIAN, i=st.integers(1, 3))
def test_kernels_equal_loop_reference_on_gaussian_integers(f, g, i):
    e = GrassmannElement(f)
    assert np.array_equal(product(e, GrassmannElement(g)).coeffs, reference_product(f, g))
    assert np.array_equal(right_derivative(e, i).coeffs, reference_right_derivative(f, i))
    assert np.array_equal(left_derivative(e, i).coeffs, reference_left_derivative(f, i))
    even = np.where(ODD_MASKS, 0, f)  # even images are dyadic, so their sums are exact
    assert np.array_equal(quantize(GrassmannElement(even)), reference_quantize(even))


@settings(max_examples=200, deadline=None)
@given(f=DENSE, g=DENSE, i=st.integers(1, 3))
def test_kernels_match_loop_reference_within_ulps(f, g, i):
    # term order and fused multiply-adds move the last bits only
    e = GrassmannElement(f)
    bound = 2 * EPS * np.abs(f).sum() * np.abs(g).sum() + TINY
    assert np.max(np.abs(product(e, GrassmannElement(g)).coeffs - reference_product(f, g))) <= bound
    assert np.max(np.abs(quantize(e) - reference_quantize(f))) <= 2 * EPS * np.abs(f).sum() + TINY
    assert np.array_equal(right_derivative(e, i).coeffs, reference_right_derivative(f, i))
    assert np.array_equal(left_derivative(e, i).coeffs, reference_left_derivative(f, i))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), pf=st.integers(0, 1), pg=st.integers(0, 1))
def test_coefficient_stacks_match_elements(data, pf, pg):
    fs = data.draw(st.lists(gaussian_integer_homogeneous(pf), min_size=1, max_size=6))
    gs = data.draw(st.lists(gaussian_integer_homogeneous(pg), min_size=len(fs), max_size=len(fs)))
    f_stack, g_stack = np.array([f.coeffs for f in fs]), np.array([g.coeffs for g in gs])
    brackets, images = dirac_bracket(f_stack, g_stack), quantize(f_stack)
    rep = verify_correspondence(f_stack, g_stack)
    for k, (f, g) in enumerate(zip(fs, gs)):
        assert np.array_equal(brackets[k], dirac_bracket(f, g).coeffs)
        assert np.array_equal(images[k], quantize(f))
        single = verify_correspondence(f, g)
        assert (rep.exact[k], rep.residual[k]) == (single.exact, single.residual)
        assert np.array_equal(rep.commutator_image[k], single.commutator_image)
