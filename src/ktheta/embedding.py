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
    _reduce,
    act_on_array,
    fundamental_domain_samples,
    reduced_distance,
)
from .sections import AXES, _factor_views, _point_block, factor, section_matrix, segre_lift
from .symplectic import MAP_FACTORS, check_rank_tol, fs_hermitian, hermitian_ranks


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
    """Row-wise sqrt(1 - |<P,Q>|^2 / (|P|^2 |Q|^2)) of (B, n) or (1, n) lifts, in [0, 1].

    Computed as the norm of the projection residual q - <p,q>p of unit
    lifts: the same quantity without the catastrophic cancellation of
    1 - |<p,q>|^2 near coincident points.
    """
    if max(np.ndim(p), np.ndim(q)) > 2:
        raise ValueError(f"lifts of shapes {np.shape(p)} and {np.shape(q)} are not (n,) or (B, n)")
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    if p.shape[-1] != q.shape[-1]:
        raise DimensionMismatch(f"dimensions {p.shape[-1]} and {q.shape[-1]} differ")
    if len(p) != len(q) and 1 not in (len(p), len(q)):
        raise ValueError(f"row counts of shapes {p.shape} and {q.shape} do not broadcast")
    a, b = unit_rows(p), unit_rows(q)
    resid = b - np.einsum("bn,bn->b", a.conj(), b)[:, None] * a
    return np.minimum(1.0, np.linalg.norm(resid, axis=1))


def chordal_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """``chordal_distances`` of two projective points."""
    return float(chordal_distances(p.coords, q.coords)[0])


def psi_prime(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """Fiber map [theta_k^0(z+ix, y+i) : ... : theta_k^{k-1}(z+ix, y+i)], at ``reduce_point(u)``."""
    block = _point_block("fiber", k, _reduce(u)[0], policy)
    return ProjectivePoint(_factor_views("fiber", *block)[0])


def psi_double_prime(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """Base map [theta_k^0(y+it, i) : ... : theta_k^{k-1}(y+it, i)], at ``reduce_point(u)``."""
    block = _point_block("base", k, _reduce(u)[0], policy)
    return ProjectivePoint(_factor_views("base", *block)[0])


def phi(k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> ProjectivePoint:
    """The full map u -> [s_1 : ... : s_{k^2}] into CP^{k^2-1}.

    Evaluated at ``reduce_point(u)``: the lift differs from ``phi_batch``'s
    at ``u`` by a nonzero scalar, and stays finite for every finite ``u``.
    """
    names = ("fiber", "base")
    lift = segre_lift(*_factor_views(names, *_point_block(names, k, _reduce(u)[0], policy)))
    return ProjectivePoint(lift[0])


phi_batch = section_matrix  # the lift of phi_k at an (..., 4) array of points, as given


def _raw_gram(vals, grads):
    """|F|^2 (B, 1, 1), c = <F, dF> (B, 4, 1) and Re m = Re<dF_nu, dF_mu> (B, 4, 4)
    of lifts (B, n) with C-contiguous partials (B, 4, n), as given."""
    g = grads.view(float)
    return (np.vecdot(vals, vals).real[:, None, None], np.matmul(grads, vals.conj()[:, :, None]),
            np.vecdot(g[:, None], g[:, :, None]))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _differential_ranks(vals, grads, tol):
    """``hermitian_ranks`` of lifts (B, n) with partials (B, 4, n): the form of
    ``symplectic.fs_hermitian`` from ``_raw_gram`` times 2^-2e, e the ``np.frexp``
    exponent of the row's largest |lift entry|: bit for bit that of the rows
    divided by 2^e wherever nothing over- or underflows, with no copy of them.
    At |e| <= 400 entry products stay within 2^±802, 2^220 inside float64's
    normal range for k^2-term sums and large partials; rows past it are divided first."""
    mant, e = np.frexp(np.abs(vals).max(axis=1))
    far = np.abs(e) > 400
    n2, c, m = _raw_gram(vals, grads)
    far_s = np.ldexp(1.0, -e[far])[:, None]
    n2[far], c[far], m[far] = _raw_gram(vals[far] * far_s, grads[far] * far_s[:, None])
    s = np.ldexp(mant / mant, -2 * e * ~far)[:, None, None]  # NaN where the top is 0 or not finite
    inv_n2, c, m = 1.0 / (n2 * s), c * s, m * s
    b = (m - (c * c.conj().mT).real * inv_n2) * inv_n2
    return hermitian_ranks(b, np.einsum("bmm->b", m) * inv_n2[:, 0, 0], tol)


def projective_rank(k: int, u: KTPoint, tol: float = 1e-6, policy=th.DEFAULT_POLICY) -> int:
    """Rank of the differential of phi_k at ``u`` (4 for an immersion).

    Evaluated at ``reduce_point(u)``, which has the same rank: phi_k descends
    and the deck group acts by diffeomorphisms.  ``tol`` must be at least
    ``symplectic.MIN_RANK_TOL``; raises ``LiftOverflow`` where the lift or
    its partials are not finite.
    """
    check_rank_tol(tol)
    b, scale = fs_hermitian(*_point_block(MAP_FACTORS["phi_k"], k, _reduce(u)[0], policy, AXES))
    return int(hermitian_ranks(b, scale, tol)[0])


# Rows per block of the injectivity scan's squared overlaps.
SCAN_ROWS = 64
# The pairs j <= i of a block's leading SCAN_ROWS x SCAN_ROWS square.
_NOT_PAIRS = np.tri(SCAN_ROWS, dtype=bool)
_NOT_PAIRS.flags.writeable = False


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


# The largest degree whose factors' squared overlaps come from the real
# rows of f f^*: k^2 wide, but one real product gives |<f_i, f_j>|^2 with no
# squaring pass.  Above it the k-wide complex Gram is squared in place: the
# real rows grow as k^2 and are the faster way up to k = 8 only (CHANGES.md
# has the scan timings).
OUTER_MAX_K = 8


def _overlap_operands(rows):
    """The two (n, K) operands whose row products are a factor's squared
    overlaps |<f_i, f_j>|^2, from its unit rows f (n, k).

    For k <= OUTER_MAX_K they are real: the diagonal |f_p|^2 of f f^* and
    its entries f_p conj(f_q), p < q, as real and imaginary parts, doubled
    in the first operand, since |<f, g>|^2 = sum_p |f_p|^2 |g_p|^2 +
    2 sum_{p<q} Re(f_p conj(f_q) conj(g_p conj(g_q))).  Otherwise they are
    the rows and their conjugates, whose products are the Gram itself.
    """
    k = rows.shape[1]
    if k > OUTER_MAX_K:
        return rows, rows.conj()
    p, q = np.triu_indices(k, 1)
    entries = rows[:, p] * rows[:, q].conj()
    right = np.concatenate([np.abs(rows) ** 2, entries.real, entries.imag], axis=1)
    left = right.copy()
    left[:, k:] *= 2.0
    return left, right


def _squared_overlaps(factors, r, gram, out):
    """|<f_i, f_j>|^2 |<g_i, g_j>|^2 of the unit factor rows i in [r, r +
    SCAN_ROWS) against j in [r, n), with the entries j <= i set to -inf.

    ``factors`` holds the fiber's and the base's ``_overlap_operands``.  A
    complex Gram block is written into the complex work buffer ``gram``,
    squared in place in its real view and its two halves summed; the
    product of the two factors' blocks goes to the float work buffer
    ``out``, whose leading entries are returned as the block.  A given
    ``r`` gives the same bits on every call.
    """
    width = len(factors[0][0]) - r
    height = min(SCAN_ROWS, width)
    block = out[:height * width].reshape(height, width)
    for f, (left, right) in enumerate(factors):
        if left.dtype == complex:
            view = np.matmul(left[r:r + SCAN_ROWS], right[r:].T,
                             out=gram[:height * width].reshape(height, width)).view(float)
            np.square(view, out=view)
            square = np.add(view[:, ::2], view[:, 1::2], out=view[:, ::2] if f else block)
        else:
            spare = gram.view(float)[:height * width].reshape(height, width)
            square = np.matmul(left[r:r + SCAN_ROWS], right[r:].T, out=spare if f else block)
        if f:
            block *= square
    block[:, :height][_NOT_PAIRS[:height, :height]] = -math.inf
    return block


def _nearest(overlaps):
    """Each row's nearest column and its distance sqrt(1 - min(s, 1)): the
    first column of the smallest distance, the first NaN before any number.

    The largest s gives the smallest distance, but distinct s can round to
    one distance.  Each such s is at least ``floor``, so a row with a column
    at or above it before its largest s checks those columns' distances.
    """
    best = overlaps.argmax(axis=1)  # the first NaN, else the first largest
    top = overlaps[np.arange(len(overlaps)), best]
    dist = np.sqrt(1.0 - np.minimum(top, 1.0))
    # below this, 1 - s rounds past every x whose sqrt rounds to dist
    floor = 1.0 - dist * dist * (1.0 + 2.0**-48) - 2.0**-50
    first = (overlaps >= floor[:, None]).argmax(axis=1)
    for i in np.flatnonzero(first < best):  # a NaN row finds no column here
        cand = np.flatnonzero(overlaps[i, :best[i]] >= floor[i])
        tied = cand[np.sqrt(1.0 - np.minimum(overlaps[i, cand], 1.0)) == dist[i]]
        if len(tied):
            best[i] = tied[0]
    return best, dist


def injectivity_scan(k: int, n_samples: int, seed: int,
                     policy=th.DEFAULT_POLICY) -> InjectivityReport:
    """Search sampled fundamental-domain pairs for image near-collisions.

    Pairs closer than ``d_min`` = 1e-3 on the quotient are excluded; the
    report passes iff the smallest remaining image distance exceeds
    ``threshold`` = 1e-6.  Pairs are ranked by sqrt(1 - |<a,b>|^2) of their
    unit lifts, which resolves only about 1e-8; phi_k is a Segre product,
    so |<a,b>|^2 is the product of the fiber and base squared overlaps
    (``_overlap_operands``).  These are formed SCAN_ROWS rows at a time,
    against the columns past the block's first row; each row keeps only
    its nearest column and distance, and the block is dropped, so the scan
    holds one block, not the Gram.  Pairs are visited in (distance, index) order:
    argmin takes the first of equal distances, and the first NaN before
    any number, over the rows and within a row.  So ties break by sample
    index order and the witness is deterministic for a fixed seed, and a
    non-finite lift fails the scan with a NaN witness distance.  A
    quotient-equivalent pair is struck out of its row, whose block is
    formed again (the same call, so the same bits; the last one is kept)
    with every pair struck so far, and only that row is searched again.
    The witness pair's reported distance is the ``chordal_distances`` of
    its two k^2 lifts, the only ones formed, which resolves about 1e-12.
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 2:
        raise ValueError(f"n_samples must be an int of at least 2, got {n_samples!r}")
    d_min, threshold = 1e-3, 1e-6
    pts = fundamental_domain_samples(n_samples, seed)
    raw = factor(("fiber", "base"), k, pts, policy)
    factors = [_overlap_operands(rows) for rows in map(unit_rows, raw)]
    # one block's work buffers, reused: fresh pages for every block cost more
    work = np.empty(SCAN_ROWS * n_samples, dtype=complex), np.empty(SCAN_ROWS * n_samples)

    cols, dists = np.empty(n_samples, dtype=int), np.empty(n_samples)
    for r in range(0, n_samples, SCAN_ROWS):
        best, dist = _nearest(_squared_overlaps(factors, r, *work))
        cols[r:r + SCAN_ROWS], dists[r:r + SCAN_ROWS] = best + r, dist

    struck, kept, block = {}, None, None
    while True:
        i = int(dists.argmin())
        if dists[i] == math.inf:
            break
        j = int(cols[i])
        qd = reduced_distance(pts[i], pts[j])  # samples in [0, 1)^4 are reduced
        if qd > d_min:
            pair = segre_lift(raw[0][[i, j]], raw[1][[i, j]])  # the pair's k^2 lifts
            dist = float(chordal_distances(*unit_rows(pair))[0])
            return InjectivityReport(
                k, n_samples, seed, d_min, threshold, dist, (i, j), qd, dist > threshold
            )
        r = i - i % SCAN_ROWS
        struck.setdefault(r, []).append((i - r, j - r))
        if kept != r:
            kept, block = r, _squared_overlaps(factors, r, *work)
            block[tuple(zip(*struck[r]))] = -math.inf
        else:
            block[i - r, j - r] = -math.inf
        best, dist = _nearest(block[i - r:i - r + 1])
        cols[i], dists[i] = best[0] + r, dist[0]
    # every pair was quotient-equivalent; vacuous pass
    return InjectivityReport(
        k, n_samples, seed, d_min, threshold, 1.0, (-1, -1), math.inf, True
    )


def generator_invariance_residuals(k: int, pts: np.ndarray,
                                   policy=th.DEFAULT_POLICY) -> np.ndarray:
    """Largest chordal distance between phi_k(g.u) and phi_k(u) over the
    generators g, at an (B, 4) array of points u, shape (B,).  The points and
    their four moves are one ``phi_batch`` call."""
    pts = np.atleast_2d(pts)
    base, *moved = phi_batch(
        k, np.stack([pts] + [act_on_array(g, pts) for g in GENERATORS.values()]), policy)
    return np.max([chordal_distances(base, lifts) for lifts in moved], axis=0)
