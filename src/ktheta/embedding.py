"""Projective maps into CP^{k-1} x CP^{k-1} and CP^{k^2-1}, and their rank.

phi_k lists the k^2 basis sections in the fixed flattening p*k + q; it
factors through the Segre map applied to the fiber map psi' and the base
map psi''.  Injectivity and the immersion property are verified by seeded
sampling and SVD rank counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta as th
from .errors import AllSectionsVanish, DimensionMismatch
from .manifold import (
    GENERATORS,
    KTPoint,
    fundamental_domain_samples,
    quotient_distance,
)
from .sections import section_matrix, section_matrix_with_gradients


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous complex coordinates up to scale."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coords must be a nonempty vector")
        if not np.any(np.abs(c) > 0.0):
            raise AllSectionsVanish("all homogeneous coordinates vanish")
        object.__setattr__(self, "coords", c)

    def normalized(self) -> np.ndarray:
        """Unit-norm lift; presentation helpers may further rotate the phase."""
        return self.coords / np.linalg.norm(self.coords)


def chordal_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Scale-invariant metric sqrt(1 - |<P,Q>|^2 / (|P|^2 |Q|^2)) in [0, 1].

    Computed as the norm of the projection residual q - <p,q>p of unit
    lifts, which is the same quantity without the catastrophic cancellation
    of 1 - |<p,q>|^2 near coincident points.
    """
    a, b = p.coords, q.coords
    if a.size != b.size:
        raise DimensionMismatch(f"dimensions {a.size} and {b.size} differ")
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    resid = b - np.vdot(a, b) * a
    return min(1.0, float(np.linalg.norm(resid)))


def _fiber_coords(k, pts, policy):
    w1 = pts[..., 2] + 1j * pts[..., 0]
    tau1 = pts[..., 1] + 1j
    vals, _ = th._degree_basis_batch(k, w1, tau1, policy)
    return np.moveaxis(vals, 0, -1)


def _base_coords(k, pts, policy):
    w2 = pts[..., 1] + 1j * pts[..., 3]
    vals, _ = th._degree_basis_batch(k, w2, 1j + 0 * w2, policy)
    return np.moveaxis(vals, 0, -1)


def psi_prime(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """Fiber map [theta_k^0(z+ix, y+i) : ... : theta_k^{k-1}(z+ix, y+i)]."""
    return ProjectivePoint(_fiber_coords(k, u.as_array(), policy))


def psi_double_prime(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """Base map [theta_k^0(y+it, i) : ... : theta_k^{k-1}(y+it, i)]."""
    return ProjectivePoint(_base_coords(k, u.as_array(), policy))


def segre(p: ProjectivePoint, q: ProjectivePoint) -> ProjectivePoint:
    """All pairwise products in the fixed order index(p, q) = p*k + q."""
    if p.coords.size != q.coords.size:
        raise DimensionMismatch("Segre factors must have equal dimension")
    return ProjectivePoint(np.outer(p.coords, q.coords).ravel())


def phi(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """The full map u -> [s_1 : ... : s_{k^2}] into CP^{k^2-1}."""
    return ProjectivePoint(section_matrix(k, u.as_array(), policy)[0])


def phi_batch(k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY) -> np.ndarray:
    """Lift coordinates of phi_k at an (B, 4) array of points, shape (B, k^2)."""
    return section_matrix(k, pts, policy)


@dataclass(frozen=True)
class JacobianMatrix:
    """Rows (s, d/dx s, d/dy s, d/dz s, d/dt s) over the k^2 sections."""

    point: KTPoint
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != 5:
            raise ValueError("expected a 5 x k^2 matrix")
        if not np.any(np.abs(mat[0]) > 0.0):
            raise AllSectionsVanish("section row of the Jacobian vanishes")
        object.__setattr__(self, "matrix", mat)


def jacobian(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> JacobianMatrix:
    """Assemble the 5 x k^2 matrix from analytic section gradients."""
    vals, grads = section_matrix_with_gradients(k, u.as_array(), policy)
    return JacobianMatrix(u, np.vstack([vals[0][None, :], grads[0]]))


def _differential_ranks(vals, grads, tol):
    """Rank of the projectivized differential for batched lifts.

    ``vals`` has shape (B, n) and ``grads`` (B, 4, n).  Each lift is unit
    normalized and the partials are projected orthogonally to it before the
    singular values are thresholded at tol * sigma_max.  The rank is taken
    over the reals: the map is real 4-dimensional while the lift is
    holomorphic in z + ix, so the partials in x and z are complex multiples
    of each other and a complex SVD would report at most 3.  Splitting real
    and imaginary parts gives the rank of the underlying real differential.
    """
    norms = np.linalg.norm(vals, axis=1, keepdims=True)
    f = vals / norms
    d = grads / norms[:, :, None]
    overlap = np.einsum("bn,bmn->bm", f.conj(), d)
    proj = d - overlap[:, :, None] * f[:, None, :]
    proj = np.concatenate([proj.real, proj.imag], axis=2)
    sv = np.linalg.svd(proj, compute_uv=False)
    top = sv[:, :1]
    # absolute floor against the unprojected gradient scale: for a constant
    # map the projection leaves only roundoff, which must count as rank 0
    # rather than be thresholded against itself
    gscale = np.linalg.norm(d, axis=(1, 2))[:, None]
    floor = 1e-10 * np.maximum(gscale, 1.0)
    ranks = (sv > np.maximum(tol * top, floor)).sum(axis=1)
    return ranks


def projective_rank(k: int, u: KTPoint, tol: float = 1e-8, policy=th.DEFAULT_POLICY) -> int:
    """Rank of the differential of phi_k at ``u`` (4 for an immersion)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals, grads = section_matrix_with_gradients(k, u.as_array(), policy)
    return int(_differential_ranks(vals, grads, tol)[0])


@dataclass(frozen=True)
class InjectivityReport:
    """Outcome of a seeded image-collision scan."""

    k: int
    n_samples: int
    seed: int
    d_min: float
    threshold: float
    min_image_distance: float
    witness_indices: tuple[int, int]
    witness_quotient_distance: float
    passed: bool


def injectivity_scan(
    k: int,
    n_samples: int,
    seed: int,
    policy=th.DEFAULT_POLICY,
    d_min: float = 1e-3,
    threshold: float = 1e-6,
) -> InjectivityReport:
    """Search sampled fundamental-domain pairs for image near-collisions.

    Pairs closer than ``d_min`` on the quotient are excluded; the report
    passes iff the smallest remaining image distance exceeds ``threshold``.
    The extremal pair is deterministic for a fixed seed (ties broken by
    sample index order).
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    pts = fundamental_domain_samples(n_samples, seed)
    lifts = phi_batch(k, pts, policy)
    lifts = lifts / np.linalg.norm(lifts, axis=1, keepdims=True)

    # row-major flat indices of the pairs i < j
    pairs = np.flatnonzero(np.triu(np.ones((n_samples, n_samples), dtype=bool), 1))
    gram = np.abs((lifts @ lifts.conj().T).ravel()[pairs]) ** 2
    np.clip(gram, 0.0, 1.0, out=gram)
    dists = np.sqrt(1.0 - gram)

    # Scan pairs in stable (distance, index) order without sorting them all:
    # the pairs at or below the m-th smallest distance are a prefix of that
    # order, so m grows until the prefix holds a quotient-separated pair.
    m, seen = 64, 0
    while seen < dists.size:
        if m < dists.size:
            cand = np.flatnonzero(dists <= np.partition(dists, m - 1)[m - 1])
            cand = cand[np.argsort(dists[cand], kind="stable")]
        else:
            cand = np.argsort(dists, kind="stable")
        for pos in cand[seen:]:
            i, j = divmod(int(pairs[pos]), n_samples)
            qd = quotient_distance(KTPoint.from_array(pts[i]), KTPoint.from_array(pts[j]))
            if qd > d_min:
                dist = float(dists[pos])
                return InjectivityReport(
                    k, n_samples, seed, d_min, threshold, dist, (i, j), qd, dist > threshold
                )
        m, seen = 4 * m, cand.size
    # every pair was quotient-equivalent; vacuous pass
    return InjectivityReport(
        k, n_samples, seed, d_min, threshold, 1.0, (-1, -1), math.inf, True
    )


def generator_invariance_residual(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> float:
    """Largest chordal distance between phi_k(g.u) and phi_k(u) over generators."""
    from .manifold import act

    base = phi(k, u, policy)
    return max(
        chordal_distance(phi(k, act(g, u), policy), base) for g in GENERATORS.values()
    )
