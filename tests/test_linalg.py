import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospin import (
    IDENTITY2,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    bloch_canonical,
    evolve_operator,
    evolve_state,
    field_square,
    hamiltonian_from_field,
    inner,
    pauli_compose,
    pauli_decompose,
    principal_sqrt,
    spectrum,
    validate_metric,
)
from pseudospin.exceptions import InvalidMetricError, NonTracelessError, ValidationError

from helpers import random_complex_orthogonal, random_traceless, random_state, taylor_expm

RNG = np.random.default_rng(20260810)


def test_hamiltonian_diagonal_case():
    h = hamiltonian_from_field([0, 0, 3.5])
    assert np.allclose(h, np.diag([1.75, -1.75]))
    assert abs(np.trace(h)) == 0.0


def test_hamiltonian_damped_transverse_field():
    v, alpha = 2.0, 0.7
    h = hamiltonian_from_field([v, 0, 1j * alpha])
    expected = np.array([[0.5j * alpha, 0.5 * v], [0.5 * v, -0.5j * alpha]])
    assert np.array_equal(h, expected)


def test_hamiltonian_real_field_is_hermitian():
    for _ in range(10):
        f = RNG.standard_normal(3)
        h = hamiltonian_from_field(f)
        assert np.allclose(h, h.conj().T, atol=1e-15)


def test_pauli_round_trip():
    for _ in range(50):
        t0 = complex(*RNG.standard_normal(2))
        tvec = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        m = pauli_compose(t0, tvec)
        s0, svec = pauli_decompose(m)
        assert abs(s0 - t0) <= 1e-14 * max(1.0, abs(t0))
        assert np.linalg.norm(svec - tvec) <= 1e-14 * max(1.0, np.linalg.norm(tvec))


def test_principal_sqrt_branch():
    assert principal_sqrt(4.0) == 2.0
    assert principal_sqrt(-4.0) == 2.0j
    assert principal_sqrt(complex(-4.0, -0.0)) == 2.0j  # tie broken upward
    w = principal_sqrt(-3 + 4j)
    assert w.real >= 0 and abs(w * w - (-3 + 4j)) < 1e-14


def test_spectrum_damped_rabi_field_is_real():
    v, alpha = 1.0, 0.6
    e_plus, e_minus = spectrum(hamiltonian_from_field([v, 0, 1j * alpha]))
    assert e_plus == pytest.approx(0.5 * np.sqrt(v**2 - alpha**2), abs=1e-14)
    assert abs(e_plus.imag) < 1e-14
    assert e_minus == -e_plus


def test_spectrum_zero_field():
    assert spectrum(np.zeros((2, 2))) == (0.0, 0.0)


def test_spectrum_imaginary_pair_matches_eigensolver():
    # field (1, 0, 2i): F^2 = -3, direct eigenvalue solve gives +- i sqrt(3)/2
    h = hamiltonian_from_field([1, 0, 2j])
    e_plus, e_minus = spectrum(h)
    assert e_plus == pytest.approx(0.5j * np.sqrt(3.0), abs=1e-14)
    direct = sorted(np.linalg.eigvals(h), key=lambda z: z.imag)
    assert np.allclose(sorted([e_plus, e_minus], key=lambda z: z.imag), direct, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    log_s=st.floats(-6.0, 6.0),
    exponent=st.floats(-16.0, -3.0),
    on_axis=st.booleans(),
)
def test_spectrum_across_branch_cut(log_s, exponent, on_axis):
    # F = (i sqrt(s), 0, sqrt(eps / 2) (1 +- i)) has F^2 = -s +- i eps: the principal-sqrt cut
    s = 10.0**log_s
    eps = 0.0 if on_axis else s * 10.0**exponent
    pairs = []
    for side in (1.0, -1.0):
        f = [1j * np.sqrt(s), 0.0, np.sqrt(0.5 * eps) * (1.0 + side * 1j)]
        e_plus, e_minus = spectrum(hamiltonian_from_field(f))
        assert e_plus.real >= 0.0
        assert e_minus == -e_plus
        pairs.append((e_plus, e_minus))
    (a_plus, a_minus), (b_plus, b_minus) = pairs
    # the unordered pair moves by the first-order 0.5 eps / sqrt(s), not by sqrt(s)
    jump = min(
        max(abs(a_plus - b_plus), abs(a_minus - b_minus)),
        max(abs(a_plus - b_minus), abs(a_minus - b_plus)),
    )
    assert jump <= np.sqrt(s) * (eps / s + 1e-15)


def test_spectrum_rejects_traced_operator():
    with pytest.raises(NonTracelessError):
        spectrum(np.eye(2))


def test_spectrum_similarity_invariance():
    for _ in range(20):
        h = random_traceless(RNG)
        m = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        conj = m @ h @ np.linalg.inv(m)
        a = spectrum(h, tol=1e-9)
        b = spectrum(conj, tol=1e-9)
        assert abs(a[0] - b[0]) < 1e-10 * max(1.0, abs(a[0]))


def test_evolve_diagonal_exponentiation():
    b, t = 1.7, 2.3
    u = evolve_operator(hamiltonian_from_field([0, 0, b]), t)
    assert np.allclose(u, np.diag([np.exp(-0.5j * b * t), np.exp(0.5j * b * t)]), atol=1e-14)


def test_evolve_identity_at_zero_time():
    h = random_traceless(RNG)
    assert np.allclose(evolve_operator(h, 0.0), IDENTITY2, atol=1e-15)


def test_evolve_matches_taylor_series():
    h = hamiltonian_from_field([1, 0, 2j])
    u = evolve_operator(h, 1.0)
    assert np.allclose(u, taylor_expm(-1j * h), atol=1e-12)


def test_evolve_exceptional_point_is_nilpotent_series():
    # F = (1, i, 0) has F^2 = 0 with F != 0; H^2 = 0 so the series truncates.
    h = hamiltonian_from_field([1, 1j, 0])
    assert np.allclose(h @ h, 0.0, atol=1e-15)
    u = evolve_operator(h, 3.0)
    assert np.allclose(u, IDENTITY2 - 3j * h, atol=1e-15)
    assert np.allclose(u, taylor_expm(-3j * h), atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gap=st.sampled_from([0.0, 1e-300, 1e-150, 1e-12]) | st.floats(0.0, 1e-3),
    phase=st.floats(0.0, 2.0 * np.pi),
    rotate=st.booleans(),
)
def test_evolve_operator_time_array_near_exceptional_point(seed, gap, phase, rotate):
    # F = c (1, i, 0) + (0, 0, g) has F^2 = g^2; at g = 0 without rotation
    # H = [[0, c], [0, 0]] exactly and the nilpotent branch I - iHt runs.
    rng = np.random.default_rng(seed)
    c = complex(*rng.uniform(-2.0, 2.0, size=2))
    f = np.array([c, 1j * c, gap * np.exp(1j * phase)])
    if rotate:
        f = random_complex_orthogonal(rng) @ f
    h = hamiltonian_from_field(f)
    t = np.concatenate([[0.0], rng.uniform(-5.0, 5.0, size=7)])
    u = evolve_operator(h, t)
    assert u.shape == (len(t), 2, 2)
    for tk, uk in zip(t, u):
        assert np.allclose(uk, taylor_expm(-1j * h * tk), rtol=0.0, atol=1e-10)


def test_evolve_group_property():
    for _ in range(20):
        h = random_traceless(RNG)
        t1, t2 = RNG.uniform(-2, 2, size=2)
        lhs = evolve_operator(h, t1) @ evolve_operator(h, t2)
        rhs = evolve_operator(h, t1 + t2)
        assert np.linalg.norm(lhs - rhs) < 1e-11 * max(1.0, np.linalg.norm(rhs))


def test_evolve_hermitian_is_unitary():
    for _ in range(20):
        h = hamiltonian_from_field(RNG.standard_normal(3))
        u = evolve_operator(h, RNG.uniform(-5, 5))
        assert np.linalg.norm(u.conj().T @ u - IDENTITY2) < 1e-11
        assert abs(np.linalg.det(u) - 1.0) < 1e-11


def test_inner_identity_metric_reduces_to_canonical():
    for _ in range(10):
        x, y = random_state(RNG), random_state(RNG)
        assert inner(x, y, IDENTITY2) == pytest.approx(inner(x, y), abs=1e-15)


def test_inner_diagonal_metric():
    assert inner([1, 0], [1, 0], np.diag([2.0, 1.0])) == pytest.approx(2.0)


def test_inner_rejects_bad_metrics():
    with pytest.raises(InvalidMetricError):
        inner([1, 0], [0, 1], np.array([[1.0, 1.0], [0.0, 1.0]]))  # not Hermitian
    with pytest.raises(InvalidMetricError):
        inner([1, 0], [0, 1], np.diag([1.0, -2.0]))  # not positive


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
def test_validate_metric_refuses_a_non_finite_entry_before_any_arithmetic(entry):
    eta = np.eye(2, dtype=complex)
    eta[0, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMetricError, match="^metric has a non-finite entry$"):
            validate_metric(eta)


def test_inner_eta_orthogonal_eigenvectors():
    # Damped transverse field: eigenvectors ((F3 +- E)/F1, 1) are orthogonal
    # under the metric (1/B1^2) [[|F1|^2, conj(F1)(B3-F3)], [F1(B3-conj(F3)), B1^2+|B3-F3|^2]]
    # written out by hand for F = (V, 0, i a), B = (sqrt(V^2-a^2), 0, 0).
    v, a = 1.3, 0.5
    e = np.sqrt(v**2 - a**2)
    f1, f3 = v, 1j * a
    b1, b3 = e, 0.0
    plus = np.array([(f3 + e) / f1, 1.0])
    minus = np.array([(f3 - e) / f1, 1.0])
    eta = (1.0 / b1**2) * np.array(
        [
            [abs(f1) ** 2, np.conj(f1) * (b3 - f3)],
            [f1 * (b3 - np.conj(f3)), b1**2 + abs(b3 - f3) ** 2],
        ]
    )
    assert abs(inner(plus, minus, eta)) < 1e-12


def test_field_square_examples():
    v, a = 0.8, 0.3
    assert field_square([v, 0, 1j * a]) == pytest.approx(v**2 - a**2)
    assert field_square([0, 0, 0]) == 0.0
    assert field_square([1, 0, 2j]) == pytest.approx(-3.0)
    for overflowing in ([1e155, 0, 1e155j], [1e200, 0, 0]):  # nan and inf squares
        with pytest.raises(ValidationError):
            field_square(overflowing)
        with pytest.raises(ValidationError):
            spectrum(hamiltonian_from_field(overflowing))


def test_field_square_rotation_invariance():
    for _ in range(20):
        r = random_complex_orthogonal(RNG)
        assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-12
        f = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        assert field_square(r @ f) == pytest.approx(field_square(f), abs=1e-11)


@pytest.mark.parametrize(
    "call",
    [
        lambda: field_square([1, 2]),
        lambda: hamiltonian_from_field([1, 2]),
        lambda: pauli_compose(0.0, np.ones(4)),
        lambda: spectrum(np.eye(3)),
        lambda: evolve_operator([1, 0, 0, 0, 1], 0.5),
        lambda: inner([1, 0], [0, 1], np.eye(3)),
        lambda: inner([1, 2, 3], [1, 0]),
        lambda: inner([1, 0], [1, 0, 0]),
        lambda: inner(1.0, [1, 0]),
        lambda: evolve_state(hamiltonian_from_field([0, 0, 1]), [1, 0, 0], 1.0),
        lambda: bloch_canonical(np.ones((4, 3))),
    ],
    ids=["field_square", "hamiltonian_from_field", "pauli_compose", "spectrum", "evolve_operator",
         "inner-eta", "inner-x", "inner-y", "inner-scalar", "evolve_state", "bloch_canonical"],
)
def test_wrong_size_is_validation_error(call):
    with pytest.raises(ValidationError, match="got shape"):
        call()


def test_any_shape_of_the_right_size_is_accepted():
    column = hamiltonian_from_field([[1.0], [2.0], [3.0]])
    assert np.array_equal(column, hamiltonian_from_field([1, 2, 3]))
    assert spectrum(np.array([[[0.5, 0.0, 0.0, -0.5]]]))[0] == 0.5
