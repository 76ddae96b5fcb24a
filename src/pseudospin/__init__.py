"""Two-level pseudo-Hermitian dynamics toolkit.

Closed-form complex 2x2 linear algebra, metric/isometry construction for
complex fields with real square-sums, quantum-classical Bloch dynamics
with Gilbert damping, the damped Rabi problem with its suppression
conditions, and an exact Grassmann-algebra engine for the pseudoclassical
layer.  Units: hbar = 1, fields in energy units.
"""

from .dynamics import (
    Trajectory,
    bloch_canonical,
    bloch_eta,
    bloch_exact,
    bloch_model,
    correspondence_residual,
    effective_field,
    evolve_state,
    evolve_trajectory,
    integrate,
    rhs_damped_precession,
    rhs_llg,
    rhs_llg_spin_torque,
)
from .grassmann import (
    CorrespondenceReport,
    GrassmannElement,
    correspondence_suite,
    dirac_bracket,
    generator,
    involution_plus,
    involution_star,
    precession_hamiltonian,
    product,
    pullback,
    pushforward,
    quantize,
    quantize_transformed,
    verify_correspondence,
)
from .linalg import (
    IDENTITY2,
    SIGMA,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    evolve_operator,
    field_square,
    hamiltonian_from_field,
    inner,
    pauli_compose,
    pauli_decompose,
    principal_sqrt,
    spectrum,
    validate_metric,
)
from .metric import (
    MetricPair,
    build_isometry,
    canonical_limit_field,
    canonical_rotation,
    eigenpairs_complex,
    eta_adjoint,
    eta_from_isometry,
    is_pseudo_hermitian,
)
from .rabi import (
    PseudoHermitianRabi,
    RabiParameters,
    classify_regime,
    lab_frame_field,
    nonrotating_hamiltonians,
    omega_squared,
    ph_condition_residual,
    ph_condition_residual_spin_valve,
    ph_rabi_amplitude,
    rabi_amplitude,
    rotating_frame_field,
    rotating_frame_hamiltonian,
    solve_suppression_B,
    solve_suppression_spin_valve,
    to_rotating_frame,
)

__version__ = "0.1.0"
