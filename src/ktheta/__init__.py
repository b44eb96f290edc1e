"""Numerical theta functions, line-bundle sections, and projective embeddings
on the Kodaira-Thurston nilmanifold.

The package root exports the names README's examples use, the entry points
of the benchmark and every error class; every other name is
``ktheta.<module>.<name>``.  ``ktheta.theta`` is the submodule, whose
evaluation entries are ``theta_batch`` and ``theta_degree_k_batch``.
"""

from .checks import RunConfig
from .embedding import (
    chordal_distances,
    injectivity_scan,
    phi,
    phi_batch,
    projective_rank,
    psi_double_prime,
    psi_prime,
)
from .errors import (
    AllSectionsVanish,
    DimensionMismatch,
    EquivalentPoints,
    IllConditioned,
    InvalidModulus,
    KThetaError,
    LiftOverflow,
    SearchFailed,
    TailNotConverged,
)
from .manifold import GroupWord, KTPoint, act, fundamental_domain_samples, reduce_point
from .sections import SectionIndex, ZetaShift, fit_in_span, section, shift_product
from .symplectic import BasisTorus, chern_via_multiplicators, fs_pullback, integrate_over_torus
from .theta import theta_batch

__version__ = "0.1.0"
