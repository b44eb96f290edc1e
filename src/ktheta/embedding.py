"""Projective maps into CP^{k-1} x CP^{k-1} and CP^{k^2-1}, and their rank.

phi_k lists the k^2 basis sections in the fixed flattening p*k + q.  It is
built as the Segre product of the fiber map psi' and the base map psi'',
which are the fiber and base lifts of ``sections.factor``.  Injectivity
is verified by seeded sampling, and the immersion property by ranks of the
Fubini-Study metric of the two factors (``symplectic.hermitian_ranks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta as th
from .errors import AllSectionsVanish, DimensionMismatch, LiftOverflow
from .manifold import (
    GENERATORS,
    KTPoint,
    act_on_array,
    fundamental_domain_samples,
    quotient_distance,
    reduce_point,
)
from .sections import factor, section_matrix
from .symplectic import fs_hermitian, hermitian_pullback_batch, hermitian_ranks


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous complex coordinates up to scale."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coords must be a nonempty vector")
        top = np.abs(c).max()  # NaN if any coordinate is NaN
        if not math.isfinite(top):
            raise LiftOverflow("homogeneous coordinates are not finite")
        if top == 0.0:
            raise AllSectionsVanish("all homogeneous coordinates vanish")
        object.__setattr__(self, "coords", c)

    def normalized(self) -> np.ndarray:
        """Unit-norm lift; presentation helpers may further rotate the phase."""
        return unit_rows(self.coords)


@np.errstate(divide="ignore", invalid="ignore")
def unit_rows(lifts: np.ndarray) -> np.ndarray:
    """Unit-norm lifts along the last axis, scaled by their largest |Re| or
    |Im| first so that the norm neither overflows nor underflows.

    Both scales are read from the real view of the lifts, with no complex
    modulus per entry.  A row that vanishes or is not finite comes out NaN,
    without a warning.
    """
    c = np.ascontiguousarray(lifts, dtype=complex)
    v = c.view(float)
    c = c * (1.0 / np.maximum(v.max(axis=-1), -v.min(axis=-1)))[..., None]
    v = c.view(float)
    c *= (1.0 / np.sqrt(np.einsum("...i,...i->...", v, v)))[..., None]
    return c


def chordal_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise sqrt(1 - |<P,Q>|^2 / (|P|^2 |Q|^2)) of (B, n) lifts, in [0, 1].

    Computed as the norm of the projection residual q - <p,q>p of unit
    lifts: the same quantity without the catastrophic cancellation of
    1 - |<p,q>|^2 near coincident points.
    """
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    if p.shape[-1] != q.shape[-1]:
        raise DimensionMismatch(f"dimensions {p.shape[-1]} and {q.shape[-1]} differ")
    a, b = unit_rows(p), unit_rows(q)
    resid = b - np.einsum("bn,bn->b", a.conj(), b)[:, None] * a
    return np.minimum(1.0, np.linalg.norm(resid, axis=1))


def chordal_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """``chordal_distances`` of two projective points."""
    return float(chordal_distances(p.coords, q.coords)[0])


def _domain_point(u: KTPoint) -> np.ndarray:
    """The fundamental-domain representative of ``u``, where the single-point
    maps evaluate: they descend to the quotient, and there the lift is moderate."""
    return reduce_point(u)[0].as_array()


def psi_prime(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """Fiber map [theta_k^0(z+ix, y+i) : ... : theta_k^{k-1}(z+ix, y+i)], at ``reduce_point(u)``."""
    return ProjectivePoint(factor("fiber", k, _domain_point(u), policy))


def psi_double_prime(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """Base map [theta_k^0(y+it, i) : ... : theta_k^{k-1}(y+it, i)], at ``reduce_point(u)``."""
    return ProjectivePoint(factor("base", k, _domain_point(u), policy))


def segre(p: ProjectivePoint, q: ProjectivePoint) -> ProjectivePoint:
    """All pairwise products in the fixed order index(p, q) = p*k + q."""
    if p.coords.size != q.coords.size:
        raise DimensionMismatch("Segre factors must have equal dimension")
    return ProjectivePoint(np.outer(p.coords, q.coords).ravel())


def phi(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """The full map u -> [s_1 : ... : s_{k^2}] into CP^{k^2-1}.

    Evaluated at ``reduce_point(u)``: the lift differs from ``phi_batch``'s
    at ``u`` by a nonzero scalar, and stays finite for every finite ``u``.
    """
    return ProjectivePoint(section_matrix(k, _domain_point(u), policy)[0])


def phi_batch(k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY) -> np.ndarray:
    """Lift coordinates of phi_k at an (B, 4) array of points, shape (B, k^2).

    The points are taken as given, so the lift can overflow far off the
    fundamental domain; ``phi`` evaluates at the reduced point instead.
    """
    return section_matrix(k, pts, policy)


def _differential_ranks(vals, grads, tol):
    """``hermitian_ranks`` of batched lifts (B, n) with partials (B, 4, n)."""
    return hermitian_ranks(*fs_hermitian(vals, grads), tol)


def projective_rank(k: int, u: KTPoint, tol: float = 1e-6, policy=th.DEFAULT_POLICY) -> int:
    """Rank of the differential of phi_k at ``u`` (4 for an immersion).

    Evaluated at ``reduce_point(u)``, which has the same rank: phi_k descends
    and the deck group acts by diffeomorphisms.  ``tol`` must be at least
    ``symplectic.MIN_RANK_TOL``; raises ``LiftOverflow`` where the lift or
    its partials are not finite.
    """
    b, scale = hermitian_pullback_batch("phi_k", k, _domain_point(u), policy)
    return int(hermitian_ranks(b, scale, tol)[0])


# Rows per block of the injectivity scan's Gram triangle.
SCAN_ROWS = 64


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


def injectivity_scan(k: int, n_samples: int, seed: int,
                     policy=th.DEFAULT_POLICY) -> InjectivityReport:
    """Search sampled fundamental-domain pairs for image near-collisions.

    Pairs closer than ``d_min`` = 1e-3 on the quotient are excluded; the
    report passes iff the smallest remaining image distance exceeds
    ``threshold`` = 1e-6.  Pairs are ranked by sqrt(1 - |<a,b>|^2) of their
    ``unit_rows``, which resolves only about 1e-8; the witness pair's
    reported distance is its ``chordal_distances``, which resolves about
    1e-12.  The extremal pair is deterministic for a fixed seed (ties broken
    by sample index order).
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    d_min, threshold = 1e-3, 1e-6
    pts = fundamental_domain_samples(n_samples, seed)
    lifts = unit_rows(phi_batch(k, pts, policy))

    # The Gram's upper triangle |<a_i, a_j>|^2, i < j, in row-major pair
    # order, SCAN_ROWS rows at a time: the rows [r, r + SCAN_ROWS) against
    # the columns [r, n), of which the entries with j > i are kept.
    conj = lifts.conj()
    blocks = []
    for r in range(0, n_samples, SCAN_ROWS):
        block = lifts[r:r + SCAN_ROWS] @ conj[r:].T
        above = np.arange(n_samples - r) > np.arange(len(block))[:, None]
        blocks.append(np.abs(block[above]) ** 2)
    gram = np.concatenate(blocks)
    np.clip(gram, 0.0, 1.0, out=gram)
    dists = np.sqrt(1.0 - gram)
    # position of the pair (i, i + 1): each row i' < i holds n - 1 - i' pairs
    rows = np.arange(n_samples)
    row_start = rows * (2 * n_samples - rows - 1) // 2

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
            i = int(np.searchsorted(row_start, pos, side="right")) - 1
            j = int(pos - row_start[i]) + i + 1
            qd = quotient_distance(KTPoint.from_array(pts[i]), KTPoint.from_array(pts[j]))
            if qd > d_min:
                dist = float(chordal_distances(lifts[i], lifts[j])[0])
                return InjectivityReport(
                    k, n_samples, seed, d_min, threshold, dist, (i, j), qd, dist > threshold
                )
        m, seen = 4 * m, cand.size
    # every pair was quotient-equivalent; vacuous pass
    return InjectivityReport(
        k, n_samples, seed, d_min, threshold, 1.0, (-1, -1), math.inf, True
    )


def generator_invariance_residuals(k: int, pts: np.ndarray,
                                   policy=th.DEFAULT_POLICY) -> np.ndarray:
    """Largest chordal distance between phi_k(g.u) and phi_k(u) over the
    generators g, at an (B, 4) array of points u, shape (B,)."""
    pts = np.atleast_2d(pts)
    base = phi_batch(k, pts, policy)
    return np.max([chordal_distances(base, phi_batch(k, act_on_array(g, pts), policy))
                   for g in GENERATORS.values()], axis=0)

