import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudospin import (
    IDENTITY2,
    SIGMA1,
    evolve_operator,
    field_square,
    hamiltonian_from_field,
    inner,
    spectrum,
)
from pseudospin.exceptions import (
    DegenerateFieldError,
    NonPseudoHermitianError,
    NonRealLimitError,
    NormMismatchError,
    PlaneRestrictionViolatedError,
    SingularEigenbasisError,
    SingularMetricError,
    ValidationError,
)
from pseudospin.metric import (
    build_isometry,
    canonical_limit_field,
    canonical_rotation,
    eigenpairs_complex,
    eta_adjoint,
    eta_from_isometry,
    is_pseudo_hermitian,
)

from helpers import plane_rotation, random_state

RNG = np.random.default_rng(7)


def damped_field(v, alpha):
    return np.array([v, 0.0, 1j * alpha], dtype=complex)


def limit_field(v, alpha):
    return np.array([np.sign(v) * np.sqrt(v**2 - alpha**2), 0.0, 0.0])


def eta_closed_form(f, b):
    """Metric written out entrywise from the isometry, as an independent check."""
    return (1.0 / b[0] ** 2) * np.array(
        [
            [abs(f[0]) ** 2, np.conj(f[0]) * (b[2] - f[2])],
            [f[0] * (b[2] - np.conj(f[2])), b[0] ** 2 + abs(b[2] - f[2]) ** 2],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------- detection


def test_pseudo_hermitian_damped_field():
    assert is_pseudo_hermitian(hamiltonian_from_field(damped_field(1.0, 0.6)))


def test_pseudo_hermitian_real_field():
    for _ in range(10):
        assert is_pseudo_hermitian(hamiltonian_from_field(RNG.standard_normal(3)))


def test_not_pseudo_hermitian_negative_square():
    h = hamiltonian_from_field([1, 0, 2j])
    assert field_square([1, 0, 2j]) == pytest.approx(-3.0)
    assert np.linalg.det(h) == pytest.approx(0.75)
    assert not is_pseudo_hermitian(h)


def test_pseudo_hermitian_iff_field_square_nonnegative_real():
    hits = 0
    for _ in range(1000):
        f = RNG.standard_normal(3) + 1j * RNG.standard_normal(3) * RNG.choice([0, 0, 1])
        sq = field_square(f)
        expected = abs(sq.imag) / max(1.0, abs(sq.real)) < 1e-10 and sq.real >= -1e-10
        assert is_pseudo_hermitian(hamiltonian_from_field(f)) == expected
        hits += expected
    assert 0 < hits < 1000  # both branches exercised


@pytest.mark.parametrize("test", [spectrum, is_pseudo_hermitian])
def test_overflowing_field_square_is_refused_without_a_warning(test):
    h = hamiltonian_from_field([1e200, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^field square inf\\+0j is not finite$"):
            test(h)


# ----------------------------------------------------------------- rotation


def test_rotation_parallel_transverse_field():
    b = np.array([1.4, 0, 0])
    assert np.allclose(canonical_rotation(b, b), np.diag([1, -1, -1]), atol=1e-14)


def test_rotation_parallel_axial_field():
    b = np.array([0, 0, -0.7])
    assert np.allclose(canonical_rotation(b, b), np.diag([-1, -1, 1]), atol=1e-14)


def test_rotation_maps_real_to_damped_field():
    v, alpha = -1.2, 0.5
    f, b = damped_field(v, alpha), limit_field(v, alpha)
    r = canonical_rotation(f, b)
    assert np.allclose(r @ b, f, atol=1e-12)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(r @ r, np.eye(3), atol=1e-12)


def test_rotation_rejects_bad_pairs():
    with pytest.raises(PlaneRestrictionViolatedError):
        canonical_rotation([1, 0.5, 0], [1, 0, 0])
    with pytest.raises(NormMismatchError):
        canonical_rotation([2, 0, 0], [1, 0, 0])
    with pytest.raises(DegenerateFieldError):
        canonical_rotation([1, 0, 1j], [1j, 0, 1])


# ----------------------------------------------------------- canonical limit


def test_canonical_limit_damped_family():
    v, alpha = -2.0, 0.7
    b = canonical_limit_field(lambda a: damped_field(v, a), alpha)
    assert np.allclose(b, limit_field(v, alpha), atol=1e-14)
    assert b @ np.array([v, 0, 0]) > 0  # aligned with the limit field


def test_canonical_limit_at_zero_is_identity():
    v = 1.5
    b = canonical_limit_field(lambda a: damped_field(v, a), 0.0)
    assert np.allclose(b, [v, 0, 0], atol=1e-14)


def test_canonical_limit_rabi_family():
    # drive amplitude sqrt(1.5), level splitting 1, frequency 2, damping 0.5
    bb, b_z, omega, alpha = np.sqrt(1.5), 1.0, 2.0, 0.5

    def family(a):
        u = (1 + 1j * a) / (1 + a**2)
        return np.array([u * bb, 0.0, u * b_z - omega])

    b = canonical_limit_field(family, alpha)
    delta = b_z - omega
    expected = np.sqrt(2.0 / 2.5) * np.array([bb, 0.0, delta])
    assert np.allclose(b, expected, atol=1e-12)
    assert field_square(b) == pytest.approx(field_square(family(alpha)).real, abs=1e-12)


def test_canonical_limit_errors():
    with pytest.raises(NonRealLimitError):
        canonical_limit_field(lambda a: np.array([1j, 0, 0]), 0.1)
    with pytest.raises(NonRealLimitError):
        canonical_limit_field(lambda a: np.zeros(3), 0.1)
    with pytest.raises(NonPseudoHermitianError):
        canonical_limit_field(lambda a: np.array([1.0, 0, 2j * a]), 1.0)  # square -3
    with pytest.raises(PlaneRestrictionViolatedError):
        canonical_limit_field(lambda a: np.array([1.0, 0.5 * a, 1j * a]), 0.5)
    with pytest.raises(PlaneRestrictionViolatedError):
        canonical_limit_field(lambda a: np.array([1.0, 0.5, 1j * a]), 0.5)


# -------------------------------------------------------------- eigenvectors


def test_eigenpairs_transverse_real_field():
    (plus, ep), (minus, em) = eigenpairs_complex([2.0, 0, 0])
    assert np.allclose(plus, [1, 1]) and np.allclose(minus, [-1, 1])
    assert ep == pytest.approx(1.0) and em == pytest.approx(-1.0)


def test_eigenpairs_are_eigenvectors():
    for f in (damped_field(1.0, 0.6), np.array([0.9, 0, -0.4 + 0.2j])):
        h = hamiltonian_from_field(f)
        (plus, ep), (minus, em) = eigenpairs_complex(f)
        assert np.linalg.norm(h @ plus - ep * plus) < 1e-11
        assert np.linalg.norm(h @ minus - em * minus) < 1e-11


def test_eigenpairs_damped_form():
    v, alpha = 1.0, 0.6
    (plus, _), (minus, _) = eigenpairs_complex(damped_field(v, alpha))
    e = np.sqrt(v**2 - alpha**2)
    assert np.allclose(plus, [(1j * alpha + e) / v, 1.0], atol=1e-14)
    assert np.allclose(minus, [(1j * alpha - e) / v, 1.0], atol=1e-14)


def test_eigenpairs_rejects_singular_basis():
    with pytest.raises(SingularEigenbasisError):
        eigenpairs_complex([0, 0, 1.0])
    with pytest.raises(PlaneRestrictionViolatedError):
        eigenpairs_complex([1.0, 0.5, 1j])


# ------------------------------------------------------------------ isometry


def test_isometry_identity_when_fields_match():
    b = np.array([0.8, 0, 0.3])
    pair = build_isometry(b, b)
    assert np.allclose(pair.isometry, IDENTITY2, atol=1e-14)
    assert np.allclose(pair.eta, IDENTITY2, atol=1e-14)


def test_isometry_rejects_a_vanishing_first_component():
    with pytest.raises(SingularEigenbasisError):
        build_isometry([0, 0, 1], [0, 0, 1])


# b = (1e-4, 0, 1e3) rotated by the complex angle 1e-8 + 3i: |det M| is about 1e-8, but
# M M^dagger rounds to a singular matrix
ROUNDS_SINGULAR = (
    [0.0011074428195355542 + 10017.874927409892j, 0.0, 10067.661995777755 - 0.0011019662420150892j],
    [0.0001, 0.0, 1000.0],
)


def test_isometry_whose_metric_rounds_singular_is_a_singular_metric_error():
    with pytest.raises(SingularMetricError, match="^isometry is singular$"):
        build_isometry(*ROUNDS_SINGULAR)
    # the same refusal as an isometry whose determinant fails the check outright
    with pytest.raises(SingularMetricError, match="^isometry is singular$"):
        eta_from_isometry(np.zeros((2, 2)))


# |f1| = 1e-8 passes the eigenbasis test, and the square-sums differ by 2e-11, inside
# _check_plane_pair's band, but M would leave a similarity residual (b^2 - f^2) / (2 f1) of 1e-3
SMALL_F1_MISMATCH = ([1e-8, 0.0, 1.0], [1e-8, 0.0, 1.00000000001])


def test_isometry_refuses_a_mismatch_too_large_for_its_first_component():
    with pytest.raises(NormMismatchError, match=r"too much for \|f1\| = 1e-08"):
        build_isometry(*SMALL_F1_MISMATCH)
    # the same first component with square-sums that agree is still an isometry
    pair = build_isometry([1e-8, 0.0, 1.0], [1e-8, 0.0, 1.0])
    assert np.array_equal(pair.isometry, IDENTITY2)
    # a rotation by 3e-9 misses b's square-sum by its rounding, 1.16e-10 = 0.52 eps |b|^2, which
    # is past 2 |f1| tol |b| = 2e-11 but not refused
    b = np.array([1e-4, 0.0, 1e3])
    build_isometry(plane_rotation(1, 3e-9) @ b, b)


def test_singularity_is_judged_against_the_matrix_scale():
    eps = np.finfo(float).eps
    assert np.allclose(eta_from_isometry(1e-8 * IDENTITY2), 1e16 * IDENTITY2, rtol=4 * eps, atol=0)
    assert np.array_equal(eta_adjoint(SIGMA1, 1e-160 * IDENTITY2), SIGMA1)
    assert np.array_equal(eta_adjoint(SIGMA1, 1e200 * IDENTITY2), SIGMA1)  # det overflows
    # b rotated by pi, an edge of the covariance property: ||M||_F^2 / |det M| = 4e14, and eta's
    # determinant is 6e-30 of its squared norm, all rounding; both are accepted, as before
    b = np.array([-1e-4, 0.0, -1e3])
    f = plane_rotation(1, np.pi) @ b
    eta_adjoint(hamiltonian_from_field(f), build_isometry(f, b).eta)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    non_finite = (np.diag([1.0, np.nan]), np.full((2, 2), np.nan), np.diag([np.inf, 1.0]))
    for m in (singular, np.zeros((2, 2)), *non_finite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMetricError, match="^isometry is singular$"):
                eta_from_isometry(m)
            with pytest.raises(SingularMetricError, match="^metric is singular$"):
                eta_adjoint(SIGMA1, m)


def test_isometry_damped_field_matches_closed_form_metric():
    v, alpha = 1.0, 0.6
    f, b = damped_field(v, alpha), limit_field(v, alpha)
    pair = build_isometry(f, b)
    assert np.allclose(pair.eta, eta_closed_form(f, b), atol=1e-12)
    # metric is Hermitian positive-definite and equals (M M^dagger)^(-1)
    assert np.allclose(pair.eta, pair.eta.conj().T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(pair.eta)) > 0
    assert np.allclose(
        pair.eta @ (pair.isometry @ pair.isometry.conj().T), IDENTITY2, atol=1e-12
    )


def test_isometry_maps_eigenvectors():
    v, alpha = 1.0, 0.6
    f, b = damped_field(v, alpha), limit_field(v, alpha)
    m = build_isometry(f, b).isometry
    (fp, _), (fm, _) = eigenpairs_complex(f)
    (bp, _), (bm, _) = eigenpairs_complex(b)
    assert np.allclose(m @ bp, fp, atol=1e-12)
    assert np.allclose(m @ bm, fm, atol=1e-12)


def test_isometry_conjugates_hamiltonians():
    v, alpha = -1.0, 0.35
    f, b = damped_field(v, alpha), limit_field(v, alpha)
    m = build_isometry(f, b).isometry
    hf, hb = hamiltonian_from_field(f), hamiltonian_from_field(b)
    assert np.allclose(m @ hb @ np.linalg.inv(m), hf, atol=1e-12)
    # same spectrum from the closed form on both sides
    assert spectrum(hf)[0] == pytest.approx(spectrum(hb)[0], abs=1e-12)


def test_metric_canonical_limit_is_monotone():
    v = 1.0
    norms = []
    for alpha in (0.4, 0.2, 0.1, 0.05):
        pair = build_isometry(damped_field(v, alpha), limit_field(v, alpha))
        norms.append(np.linalg.norm(pair.eta - IDENTITY2))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.1


def test_isometry_preserves_inner_products():
    v, alpha = 1.0, 0.6
    pair = build_isometry(damped_field(v, alpha), limit_field(v, alpha))
    for _ in range(20):
        x, y = random_state(RNG), random_state(RNG)
        lhs = inner(pair.isometry @ x, pair.isometry @ y, pair.eta)
        assert lhs == pytest.approx(inner(x, y), abs=1e-12)


# a nonzero real component: sign times 10^e, so |b| runs from about 1e-4 to 1e3
SIGNED = st.builds(lambda s, e: s * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-4.0, 3.0))


@settings(max_examples=150, deadline=None)
@given(b1=SIGNED, b3=SIGNED, re=st.floats(-np.pi, np.pi), im=st.floats(-3.0, 3.0))
def test_isometry_and_metric_are_covariant_under_complex_plane_rotations(b1, b3, re, im):
    # f = R(theta) b has the square-sum of b for any complex angle theta; the isometry
    # conjugates H(b) into H(f) and H(f) is eta-Hermitian, both up to roundoff amplified
    # by cond(M) and cond(eta) = cond(M)^2.  The rounded f misses the square-sum of b by
    # about eps |f|^2, and the closed form turns that into an off-diagonal residual
    # (b^2 - f^2) / (2 f1): hence the factor |f| / |f1| (b = (-1e-3, 0, -10) at
    # theta = 1e-6 i gives 4e-12 against |H| cond(M) = 7).
    b = np.array([b1, 0.0, b3])
    f = plane_rotation(1, complex(re, im)) @ b
    try:
        pair = build_isometry(f, b)
    except DegenerateFieldError:  # square-sum too small against the fields' scale
        assume(False)
    m = pair.isometry
    hf, hb = hamiltonian_from_field(f), hamiltonian_from_field(b)
    cond = np.linalg.cond(m)
    scale = max(1.0, np.linalg.norm(hf), np.linalg.norm(hb)) * np.linalg.norm(f) / abs(f[0])
    assert np.linalg.norm(m @ hb @ np.linalg.inv(m) - hf) <= 1e-13 * scale * cond
    assert np.linalg.norm(eta_adjoint(hf, pair.eta) - hf) <= 1e-13 * scale * cond**2


@settings(max_examples=100, deadline=None)
@given(b1=SIGNED, b3=SIGNED, re=st.floats(-np.pi, np.pi), im=st.floats(-3.0, 3.0))
def test_isometry_maps_each_real_eigenpair_onto_the_complex_one(b1, b3, re, im):
    # M v_b = v_f exactly in exact arithmetic, at the same eigenvalue.  The sine of the angle
    # between M v_b and v_f is roundoff amplified by cond(M), and by |f| / |f1| where (f3 - E)
    # cancels in v_f; the eigenvalues differ by the rounding of the square-sums, eps |f|^2 / E
    # (worst of 28,000 random and edge pairs: sine 3.0e-16 cond(M) |f| / |f1|, gap 1.1e-16
    # |f|^2 / E).
    b = np.array([b1, 0.0, b3])
    f = plane_rotation(1, complex(re, im)) @ b
    try:
        m = build_isometry(f, b).isometry
    except DegenerateFieldError:  # square-sum too small against the fields' scale
        assume(False)
    bound = 1e-13 * np.linalg.cond(m) * np.linalg.norm(f) / abs(f[0])
    for (vf, ef), (vb, eb) in zip(eigenpairs_complex(f), eigenpairs_complex(b), strict=True):
        image = m @ vb
        sine = abs(image[0] * vf[1] - image[1] * vf[0]) / np.linalg.norm(image) / np.linalg.norm(vf)
        assert sine <= bound
        assert abs(ef - eb) <= 1e-14 * np.linalg.norm(f) ** 2 / abs(eb)


# ---------------------------------------------------------------- eta adjoint


def test_eta_adjoint_identity_metric_is_dagger():
    t = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    assert np.allclose(eta_adjoint(t, IDENTITY2), t.conj().T, atol=1e-14)


def test_eta_adjoint_diagonal_metric():
    expected = np.array([[0.0, 0.5], [2.0, 0.0]])
    assert np.allclose(eta_adjoint(SIGMA1, np.diag([2.0, 1.0])), expected, atol=1e-14)


def test_eta_adjoint_rejects_a_singular_metric():
    with pytest.raises(SingularMetricError, match="^metric is singular$"):
        eta_adjoint(SIGMA1, np.diag([1.0, 0.0]))


# build_isometry accepts this pair (cond(M) = 1.3e8), but an LU pivot of its metric rounds to 0
# in np.linalg.solve, past the determinant check eta_adjoint makes first
SOLVE_ROUNDS_SINGULAR = (
    (9.712242402764332e-05, 0.0, -712.7500278654323),
    2.6235751231829347 - 2.7441131332229896j,
)


def test_eta_adjoint_whose_solve_rounds_singular_is_a_singular_metric_error():
    b, theta = SOLVE_ROUNDS_SINGULAR
    f = plane_rotation(1, theta) @ np.array(b)
    pair = build_isometry(f, b)
    with pytest.raises(SingularMetricError, match="^metric is singular$"):
        eta_adjoint(hamiltonian_from_field(f), pair.eta)


def test_damped_hamiltonian_is_eta_hermitian():
    v, alpha = 1.0, 0.6
    f, b = damped_field(v, alpha), limit_field(v, alpha)
    pair = build_isometry(f, b)
    hf = hamiltonian_from_field(f)
    assert np.allclose(eta_adjoint(hf, pair.eta), hf, atol=1e-12)


def test_eta_adjoint_is_involution():
    v, alpha = 1.0, 0.6
    eta = build_isometry(damped_field(v, alpha), limit_field(v, alpha)).eta
    for _ in range(10):
        t = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        assert np.allclose(eta_adjoint(eta_adjoint(t, eta), eta), t, atol=1e-12)
