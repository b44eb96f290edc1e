"""Fubini-Study pullback, metric and rank, torus integrals and Chern classes.

The Fubini-Study form is normalized to unit integral over a projective
line.  For a lift F: R^4 -> C^n \\ {0} with partials dF, ``fs_hermitian``
builds the Hermitian form

    b_{mu nu} = <dF_nu, dF_mu>/|F|^2 - <F, dF_mu><dF_nu, F>/|F|^4,

whose real part is the pulled-back metric and whose imaginary part gives
the pullback Omega = -(1/pi) Im b of (i/2pi) del delbar log |Z|^2.  Every
pullback, differential rank and torus integral is a view of this form;
phi_k's is the sum of its two Segre factors' forms, each from at most two
holomorphic rows through the chain table that comes with them.
``fs_hermitian`` takes one Gram per factor of the kernel's block of lift
and rows, at a single point as on a batch of any size, and is exactly 0 at
k = 1, where the maps go to CP^0.  The chart oracle ``fs_normalization``
integrates the pullback of C -> CP^1 over the chart and must return 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from . import theta as th
from .errors import LiftOverflow
from .manifold import (
    GEN_A,
    GEN_B,
    GEN_C,
    GEN_D,
    GroupWord,
    KTPoint,
    TwoFormAtPoint,
    _reduce,
    act,
    act_on_array,
    inverse,
    multiplicator_batch,
    multiplicator_exponent,
    omega_kt_matrix,
)
from .sections import AXES, CHAIN, FACTOR_AXES, _factor_block, _point_block

# The Segre factors of each map: phi_k is the product of psi' and psi''.
MAP_FACTORS = {"phi_k": ("fiber", "base"), "psi_prime": ("fiber",), "psi_double_prime": ("base",)}
FS_MAP_IDS = tuple(MAP_FACTORS)
MAP_IDS = FS_MAP_IDS + ("omega_kt",)


@np.errstate(divide="ignore", invalid="ignore")
def fs_hermitian(block: np.ndarray, tables: np.ndarray):
    """Fubini-Study Hermitian form of the Segre product of F lifts, and its scale.

    ``block`` (1 + R, n, F, B) holds each lift F (B, n) and then its R rows,
    as ``sections._factor_block`` and ``sections._point_block`` return it with
    the chain ``tables`` (F, m, R): lift f's m partials are dF = tables[f] @ rows.
    Returns b (B, m, m), the module docstring's form summed over the lifts,
    and scale = sum |dF|^2/|F|^2 (B,), which bounds b's terms and so sets
    their roundoff.  Each lift and its rows are divided by the point's largest
    |lift entry|, then one contraction takes every Gram of [F; rows], so |F|^4
    stays finite wherever the lift is; a lift that vanishes or is not finite,
    or a non-finite row, leaves its b and scale non-finite, without a warning.
    A lift of width 1 maps to CP^0: exact zeros, where the formula divides
    roundoff by |F|^2.
    """
    npts, nm = block.shape[-1], tables.shape[1]
    if len(block[0]) == 1:
        return np.zeros((npts, nm, nm), dtype=complex), np.zeros(npts)
    block = block * (1.0 / np.abs(block[0]).max(axis=0))
    gram = np.vecdot(block[None], block[:, None], axis=2).transpose(2, 3, 0, 1)  # <X_j, X_i>
    # |F|^2, c_r = <F, row_r> and m_rs = <row_s, row_r>, <x, y> = sum conj(x) y;
    # b = (m - c c^H / |F|^2) / |F|^2 in place, scaled by the real 1/|F|^2:
    # dividing by |F|^2 would make it complex and divide entry by entry
    c, m = gram[..., 1:, 0], gram[..., 1:, 1:]
    inv_n2 = (1.0 / gram[..., 0, 0].real)[..., None, None]
    b = c[..., :, None] * c.conj()[..., None, :]
    b *= inv_n2
    np.subtract(m, b, out=b)
    b *= inv_n2
    kron, weights = _kron(tables.shape, tables.dtype, tables.tobytes())
    b = (b.swapaxes(0, 1).reshape(npts, len(kron)) @ kron).reshape(npts, nm, nm)
    return b, np.einsum("fbrr,fbr->b", m.real, weights * inv_n2[..., 0])


@functools.cache
def _kron(shape, dtype, data):
    """Chain tables (F, m, R), from their bytes, as the map (F*R*R, m*m) of the
    rows' forms to the sum of the partials' forms chain b chain^H, exact: each
    entry is one entry of b per lift times 0, +-1 or +-i; and each row's
    weight in sum_mu |dF_mu|^2."""
    c = np.frombuffer(data, dtype=dtype).reshape(shape).astype(complex)
    kron = np.einsum("fmr,fns->frsmn", c, c.conj()).reshape(-1, shape[1] ** 2)
    return kron, (abs(c) ** 2).sum(axis=1)[:, None]


def hermitian_pullback_batch(map_id: str, k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY):
    """``fs_hermitian`` of the named map at an (B, 4) array of points.

    The Segre map pulls the Fubini-Study form and metric back to the sums of
    the factors' ones, so phi_k's form is the fiber plus the base term, with
    no k^2 lift; psi' and psi'' are each term alone.  Only the map's own
    factors are evaluated, in one kernel call, and their block goes to one
    ``fs_hermitian`` call.
    """
    _check_map(map_id, FS_MAP_IDS)
    return fs_hermitian(*_factor_block(MAP_FACTORS[map_id], k, _point_rows(pts), policy, AXES))


def _point_rows(pts) -> np.ndarray:
    """An (B, 4) array of points, or one point as one row, for every map id;
    any other shape raises ValueError naming it."""
    rows = np.atleast_2d(pts)
    if rows.shape[-1] != 4:
        raise ValueError(f"points must have shape (..., 4), got {np.shape(pts)}")
    if rows.ndim > 2:
        raise ValueError(f"points must have shape (B, 4), got {np.shape(pts)}")
    return rows


def _check_map(map_id: str, known: tuple) -> None:
    if map_id not in known:
        raise ValueError(f"unknown map_id {map_id!r}; expected one of {known}")


def _form(b: np.ndarray) -> np.ndarray:
    """The pulled-back 2-form -(1/pi) Im b, antisymmetrised."""
    omega = -(1.0 / math.pi) * b.imag
    return 0.5 * (omega - omega.transpose(0, 2, 1))


# Eigenvalues of the metric square the singular values of the differential,
# so the metric resolves sigma_min / sigma_max only down to about sqrt(u).
MIN_RANK_TOL = 1e-7


def check_rank_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is at least MIN_RANK_TOL."""
    if not tol >= MIN_RANK_TOL:
        raise ValueError(f"tol must be at least {MIN_RANK_TOL}: the metric squares the "
                         f"singular values, so it cannot resolve smaller ratios")


def hermitian_ranks(b: np.ndarray, scale: np.ndarray, tol: float) -> np.ndarray:
    """Real rank of the differential from its ``fs_hermitian`` form, shape (B,).

    Re b is the Gram matrix of the realified projected partials (the rank is
    real: the lift is holomorphic in z + ix), so its eigenvalues are the
    squared singular values.  The rank counts those above tol^2 times the
    largest and above 1e-12 * scale, far above b's roundoff (a few u * scale),
    so a constant map has rank 0.  Raises ``LiftOverflow`` naming non-finite rows.
    """
    check_rank_tol(tol)
    if not np.isfinite(b).all():
        raise LiftOverflow(f"the lift or its partials are not finite in rows "
                           f"{np.flatnonzero(~np.isfinite(b).all(axis=(1, 2))).tolist()}")
    lam = np.linalg.eigvalsh(b.real)
    return (lam > np.maximum(tol * tol * lam[:, -1], 1e-12 * scale)[:, None]).sum(axis=1)


def fs_pullback_batch(map_id: str, k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY) -> np.ndarray:
    """Pullback coefficient matrices at an (B, 4) array of points."""
    if map_id == "omega_kt":
        return omega_kt_matrix(_point_rows(pts))
    return _form(hermitian_pullback_batch(map_id, k, pts, policy)[0])


def fs_pullback(map_id: str, k: int, u: KTPoint, policy=th.DEFAULT_POLICY) -> TwoFormAtPoint:
    """Pullback of the Fubini-Study form under the named map at ``u``.

    The maps descend to the quotient, so with u = act(w, u0) and u0 =
    ``reduce_point(u)`` the form is J^T Omega(u0) J, where J = I - m e_z e_y^T
    is the inverse of w's differential and m its a-exponent; ``omega_kt`` is
    evaluated at ``u`` itself.  Raises ``LiftOverflow`` where the map's lift
    or its partials are not finite at u0; ``fs_pullback_batch``, which
    evaluates the raw point, returns NaN rows there.
    """
    if map_id == "omega_kt":
        return TwoFormAtPoint(u, omega_kt_matrix(u.as_array()))
    _check_map(map_id, FS_MAP_IDS)
    coords, (m, *_) = _reduce(u)
    mat = _form(fs_hermitian(*_point_block(MAP_FACTORS[map_id], k, coords, policy, AXES))[0])[0]
    if m:  # row and column y of J^T Omega J, in place and exactly antisymmetric
        mat[:, 1] -= m * mat[:, 2]
        mat[1, :] -= m * mat[2, :]
    if not np.isfinite(mat).all():
        raise LiftOverflow(f"the {map_id} lift or its partials are not finite at {u}")
    return TwoFormAtPoint(u, mat)


def fs_normalization(max_radius: float = np.inf) -> float:
    """Integral of the chart pullback C -> CP^1 over the chart; exactly 1.

    Runs the production pullback code on the lift w -> (1, w) and
    integrates the single coefficient radially with a 16-node Gauss-Legendre
    rule in r = tan(theta), where the integrand is the smooth sin(2 theta).
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    top = math.atan(max_radius)
    theta = 0.5 * top * (nodes + 1.0)
    r = np.tan(theta)
    # the block of the lift (1, w) and its one row d/dw = (0, 1), with
    # d/du = d/dw and d/dv = i d/dw
    block = np.zeros((2, 2, 1, r.size), dtype=complex)
    block[0, 0], block[0, 1], block[1, 1] = 1.0, r, 1.0
    table = np.array([[[1], [1j], [0], [0]]])
    coeff = _form(fs_hermitian(block, table)[0])[:, 0, 1]
    ring = 2.0 * math.pi * r * coeff / np.cos(theta) ** 2  # dr = sec^2(theta) dtheta
    return float(0.5 * top * weights @ ring)


def decompose_left_invariant_batch(pts: np.ndarray, mats: np.ndarray) -> dict:
    """Exact change of basis into the left-invariant coframe at (..., 4) points.

    ``mats`` (..., 4, 4) are 2-form coefficient matrices at ``pts``; returns
    the coefficient arrays (...,) of the basis, in order, zx: (dz - x dy)^dx,
    zy: (dz - x dy)^dy, xy: dx^dy, yt: dy^dt, xt: dx^dt and zt: (dz - x dy)^dt.
    The last two are residuals that vanish for maps factoring through
    (x, y, z) and (y, t).
    """
    x = np.asarray(pts)[..., 0]
    zx = -mats[..., 0, 2]
    zt = mats[..., 2, 3]
    return {"zx": zx, "zy": -mats[..., 1, 2], "xy": mats[..., 0, 1] - zx * x,
            "yt": mats[..., 1, 3] + x * zt, "xt": mats[..., 0, 3], "zt": zt}


def pfaffian(form: TwoFormAtPoint) -> float:
    """Pf(Omega) = O_xy O_zt - O_xz O_yt + O_xt O_yz; nonzero iff nondegenerate."""
    return float(pfaffian_batch(form.matrix))


def pfaffian_batch(mats: np.ndarray) -> np.ndarray:
    m = np.asarray(mats)
    return m[..., 0, 1] * m[..., 2, 3] - m[..., 0, 2] * m[..., 1, 3] + m[..., 0, 3] * m[..., 1, 2]


# Step of the finite differences in ``exterior_derivative_residuals``.
FD_STEP = 1e-4


def exterior_derivative_residuals(
    map_id: str, k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY
) -> np.ndarray:
    """Max 3-form component of d(pullback) at (B, 4) points, shape (B,).

    Finite differences of step ``FD_STEP`` with the fourth-order five-point
    stencil: the second-order truncation error of plain central differences
    does not cancel across the d terms and would dominate the residual at
    that step.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    steps = np.array([2.0, 1.0, -1.0, -2.0]) * FD_STEP
    shifts = np.kron(np.eye(4), steps[:, None])  # row 4*i + s steps coordinate i by steps[s]
    stacked = (pts[:, None, :] + shifts).reshape(-1, 4)
    mats = fs_pullback_batch(map_id, k, stacked, policy).reshape(-1, 4, 4, 4, 4)
    deriv = (
        -mats[:, :, 0] + 8.0 * mats[:, :, 1] - 8.0 * mats[:, :, 2] + mats[:, :, 3]
    ) / (12.0 * FD_STEP)  # deriv[:, i] = d/du_i of the pullback matrix
    i, j, l = np.array(list(itertools.combinations(range(4), 3))).T
    comps = deriv[:, i, j, l] - deriv[:, j, i, l] + deriv[:, l, i, j]
    return np.abs(comps).max(axis=1)


TORUS_WORDS = {
    "T_ca": (GEN_C, GEN_A),
    "T_bd": (GEN_B, GEN_D),
    "T_cb": (GEN_C, GEN_B),
    "T_ad": (GEN_A, GEN_D),
}

# The coordinates of a torus's two words, in the words' order: each
# generator has one unit exponent, and a translates x, b y, c z and d t.
# The torus is oriented by ds_i ^ ds_j for (i, j) = TORUS_AXES[id], so its
# curvature integral is k times chern_via_multiplicators(id).
TORUS_AXES = {tid: tuple(astuple(w).index(1) for w in words) for tid, words in TORUS_WORDS.items()}


@dataclass(frozen=True)
class BasisTorus:
    """A coordinate 2-torus through the origin, spanned by two commuting unit
    translations."""

    id: str

    def __post_init__(self):
        if self.id not in TORUS_AXES:
            raise ValueError(f"unknown torus id {self.id!r}")

    def grid_points(self, grid: int, sides=None) -> np.ndarray:
        """The uniform grid of ``grid`` points a side, in coordinate order.

        ``sides`` maps some of the torus's two axes to a count; along such
        an axis only that many of the grid's first nodes are taken.  The
        order does not depend on the orientation, so reversing it negates
        an integral exactly.
        """
        axes = sorted(TORUS_AXES[self.id])
        s = [np.arange((sides or {}).get(a, grid)) / grid for a in axes]
        pts = np.zeros((len(s[0]), len(s[1]), 4))
        pts[..., axes] = np.stack(np.meshgrid(*s, indexing="ij"), -1)
        return pts.reshape(-1, 4)


def torus_grid(k: int) -> int:
    """``integrate_over_torus``'s default grid side, 12k: one 12 x 12 cell of
    the balanced rule on T_ca and T_bd, and a 12 x 12k strip on T_cb.

    Against twice this grid, phi_k's largest drift over T_ca, T_bd and T_cb
    is 2.6e-14, 4.4e-16, 1.4e-19 and 1.8e-15 at k = 2..5, and at most
    3.4e-14 at k = 6..16 (see ``integrate_over_torus``).  k = 1 maps to
    CP^0, whose form is 0.
    """
    return 12 * k


def balance_weights(k: int) -> np.ndarray:
    """The weights c_p = exp(pi p (1 - p/k)), p in [0, k), of the balanced lift.

    theta_k^p(w + tau/k) = e^{-2 pi i w} e^{2 pi i p tau/k} theta_k^{p+1}(w),
    with p + 1 read mod k, and at Im tau = 1 the modulus e^{-2 pi p/k} depends
    on p; c_{p+1}/c_p = e^{pi (1 - (2p + 1)/k)} cancels it, so on the
    balanced lift c_p theta_k^p the moves w -> w + 1/k and w -> w + i/k act
    (at Re tau = 0) by a cyclic residue shift times a unitary phase
    (Mumford, Tata Lectures on Theta I, Section II.1).
    """
    p = np.arange(k)
    return np.exp(np.pi * p * (1.0 - p / k))


def _spanning(map_id: str, torus: BasisTorus) -> tuple:
    """The map's Segre factors that depend on both of the torus's coordinates."""
    return tuple(w for w in MAP_FACTORS[map_id] if set(TORUS_AXES[torus.id]) <= set(FACTOR_AXES[w]))


def torus_nodes(map_id: str, k: int, torus: BasisTorus, grid: int | None = None) -> np.ndarray:
    """The (N, 4) nodes at which ``integrate_over_torus`` evaluates the map.

    ``grid`` (by default ``torus_grid(k)``, an int of at least 8) is the side of the
    full-torus rule.  ``omega_kt`` takes that whole grid.  For the
    Fubini-Study maps it is first rounded up to a multiple of k, and only
    the first grid/k nodes are taken along each coordinate on which every
    spanning factor's theta argument w depends (``CHAIN[f][a, 0] != 0``):
    one (grid/k)^2 cell on T_ca and T_bd, a (grid/k) x grid strip on T_cb,
    and no node on T_ad, which no factor spans.
    """
    _check_map(map_id, MAP_IDS)
    th.check_degree(k)
    grid = torus_grid(k) if grid is None else grid
    if not isinstance(grid, (int, np.integer)) or grid < 8:
        raise ValueError(f"grid must be an int of at least 8, got {grid!r}")
    if map_id == "omega_kt":
        return torus.grid_points(grid)
    spanning = _spanning(map_id, torus)
    if not spanning:
        return np.empty((0, 4))
    grid = k * -(-grid // k)
    periodic = [a for a in TORUS_AXES[torus.id] if all(CHAIN[f][a, 0] for f in spanning)]
    return torus.grid_points(grid, dict.fromkeys(periodic, grid // k))


def integrate_over_torus(
    map_id: str, k: int, torus: BasisTorus, grid: int | None = None, policy=th.DEFAULT_POLICY
) -> float:
    """Oriented integral of the pulled-back form over the torus (ds_i ^ ds_j).

    The mean of the (i, j) coefficient, (i, j) = TORUS_AXES[torus.id], by
    the periodic trapezoid rule on a uniform grid, by default of
    ``torus_grid(k)`` points a side: the integrand is smooth and periodic,
    so the rule converges like exp(-c grid / k) (Trefethen and Weideman,
    SIAM Review 56, 2014).  For the Fubini-Study maps the coefficient is
    the sum of the map's Segre factors' ones, and a factor that does not
    depend on both coordinates adds exactly zero, so only the factors
    spanning the torus are evaluated, and only their i and j partial rows
    enter the form: one kernel call on T_ca, T_bd and T_cb, and none on
    T_ad, where no factor depends on both x and t and the integral is 0.0.

    The spanning factors' values and rows are scaled by ``balance_weights``,
    a constant diagonal change of lift: the form changes by i d d-bar of
    log |c F|^2 / |F|^2, a function on the manifold, so by an exact form,
    and no torus integral changes.  The balanced density is (1/k)-periodic
    along each coordinate that moves w, so the full-grid mean is the mean
    over ``torus_nodes``, one cell or strip of the grid rounded up to a
    multiple of k.  phi_k's largest drift against twice the default grid
    12k over T_ca, T_bd and T_cb is at most 2.6e-14 at k = 2..8, 3.4e-14
    at k = 9..16, 3.2e-13 at k = 32 and 2.1e-12 at k = 64.
    """
    pts = torus_nodes(map_id, k, torus, grid)
    i, j = TORUS_AXES[torus.id]
    if map_id == "omega_kt":
        return float(np.mean(omega_kt_matrix(pts)[:, i, j]))
    if not len(pts):
        return 0.0
    block, tables = _factor_block(_spanning(map_id, torus), k, pts, policy, (i, j))
    b, _ = fs_hermitian(block * balance_weights(k)[:, None, None], tables)
    return float(np.mean(_form(b)[:, 0, 1]))


def transition_function(w1: GroupWord, w2: GroupWord, pts: np.ndarray) -> np.ndarray:
    """Bundle coordinate change g_{w1 w2}(u) = e_{w1}(u) * e_{w2^-1}(w2.u), (...,).

    ``pts`` is an (..., 4) array of points u; the words may hold array exponents.
    """
    pts = np.asarray(pts, dtype=float)
    return multiplicator_batch(w1, pts) * multiplicator_batch(inverse(w2), act_on_array(w2, pts))


def chern_cocycle(w1: GroupWord, w2: GroupWord, w3: GroupWord, pts: np.ndarray) -> np.ndarray:
    """Integer-valued degree-2 cocycle from principal-branch logarithms, (...,).

    (1/2 pi i) * (log g_{12} + log g_{23} - log g_{13}) at (..., 4) points;
    the transition functions multiply to 1 exactly, so the principal
    branches sum to an integer multiple of 2 pi i.  The words may hold
    array exponents (see ``manifold``).
    """
    g12 = transition_function(w1, w2, pts)
    g23 = transition_function(w2, w3, pts)
    g13 = transition_function(w1, w3, pts)
    total = np.log(g12) + np.log(g23) - np.log(g13)
    return total.imag / (2.0 * math.pi)


def chern_via_multiplicators(torus_id: str, u: KTPoint | None = None) -> int:
    """First Chern number on a named basis torus from the branch functions.

    With (lam, mu) = TORUS_WORDS[torus_id], two commuting generators, it is
    f_mu(u) + f_lam(mu.u) - f_lam(u) - f_mu(lam.u), an integer independent
    of the evaluation point u.
    """
    if torus_id not in TORUS_WORDS:
        raise ValueError(f"unknown torus id {torus_id!r}")
    lam, mu = TORUS_WORDS[torus_id]
    if u is None:
        u = KTPoint(0.31, 0.67, 0.12, 0.84)

    def f(w, v):  # branch function, e_w(v) = exp(2*pi*i*f(w, v))
        return -complex(multiplicator_exponent(w, v.as_array()))

    value = f(mu, u) + f(lam, act(mu, u)) - f(lam, u) - f(mu, act(lam, u))
    nearest = round(value.real)
    if abs(value - nearest) > 1e-9:
        raise ArithmeticError(f"branch combination {value} is not an integer")
    return int(nearest)
