"""Numerical theta functions, line-bundle sections, and projective embeddings
on the Kodaira-Thurston nilmanifold."""

from .checks import CheckReport, RunConfig, run_all, REGISTRY
from .embedding import (
    InjectivityReport,
    JacobianMatrix,
    ProjectivePoint,
    chordal_distance,
    injectivity_scan,
    jacobian,
    phi,
    phi_batch,
    projective_rank,
    psi_double_prime,
    psi_prime,
    segre,
)
from .errors import (
    AllSectionsVanish,
    DimensionMismatch,
    EquivalentPoints,
    IllConditioned,
    InvalidModulus,
    KThetaError,
    NonCommutingPair,
    SearchFailed,
    ShiftSumNonzero,
    TailNotConverged,
    TorusNotClosed,
)
from .manifold import (
    GENERATORS,
    GroupWord,
    KTPoint,
    TwoFormAtPoint,
    act,
    cocycle_residual,
    compose,
    fundamental_domain_samples,
    inverse,
    multiplicator,
    omega_kt,
    quotient_distance,
    reduce_point,
    two_form,
)
from .sections import (
    SectionIndex,
    SeparationResult,
    ZetaShift,
    fit_in_span,
    product_of_shifts,
    section,
    section_gradient,
    section_matrix,
    separating_section,
    separating_value,
    shift_product,
    theta_kt,
    zeta_action,
)
from .symplectic import (
    BasisTorus,
    LeftInvariantDecomposition,
    PullbackForm,
    chern_cocycle,
    chern_for_generator_pair,
    chern_via_multiplicators,
    decompose_left_invariant,
    exterior_derivative_residual,
    fs_normalization,
    fs_pullback,
    fs_pullback_batch,
    integrate_over_torus,
    pfaffian,
    transition_function,
)
from .theta import (
    DEFAULT_POLICY,
    ThetaArgument,
    ThetaBasisIndex,
    TruncationPolicy,
    classical_product,
    tail_bound,
    theta,
    theta_degree_k,
    theta_degree_k_deriv,
    theta_deriv,
    theta_zero,
)

__version__ = "0.1.0"
