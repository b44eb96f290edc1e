"""Theta functions on the quotient of R^4: basis sections, shifts, products.

The degree-one section is

    s(x, y, z, t) = theta(z + i x, y + i) * theta(y + i t, i),

``shift_product`` multiplies shifted copies of it, and the degree-k space
is spanned by the k^2 products

    s_{p,q}(u) = theta_k^p(z + i x, y + i) * theta_k^q(y + i t, i),

flattened project-wide as index p*k + q.  ``factor`` evaluates the fiber
map psi' = theta_k^p(z + i x, y + i), the base map psi'' = theta_k^q(y + i t, i)
or both in one kernel call; given coordinate axes, it adds the derivative
rows d/dw and d/dtau their partials need and the chain table, cut from
``CHAIN``, that gives each partial as one row times 1 or i.
``FACTOR_AXES`` gives the coordinates each factor depends on, fiber
(x, y, z) and base (y, t).  The basis values are the factors' ``segre_lift``
and the basis gradients follow by the product rule.  Sections transform
under the deck group by the k-th power of the multiplicators.

``shift_product`` also takes a stack (..., S, 2) of shift lists whose
leading axes broadcast against the points'.  ``separating_sections``
searches B point pairs, one seed each, on it: every pair's seeded
candidates are drawn up front, and round r evaluates candidate r of every
pair still unresolved in one ``shift_product`` call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import theta as th
from .errors import EquivalentPoints, IllConditioned, LiftOverflow
from .manifold import KTPoint, fundamental_domain_samples, reduce_point, reduced_distance

BASE_TAU = 1j  # modulus of the base-torus factor
THETA_ZERO = 0.5  # theta(1/2, tau) = 0 at every tau: the terms n and 1 - n cancel
RETRIES = 32  # seeded attempts per branch of the separating-section search


@dataclass(frozen=True)
class SectionIndex:
    """Degree k with fiber residue p and base residue q, both in [0, k)."""

    k: int
    p: int
    q: int

    def __post_init__(self):
        th.check_degree(self.k)
        if not (0 <= self.p < self.k and 0 <= self.q < self.k):
            raise ValueError("residues must lie in [0, k)")

    @property
    def flat(self) -> int:
        return self.p * self.k + self.q


@dataclass(frozen=True)
class ZetaShift:
    """A shift (zeta1, zeta2) of the two theta arguments."""

    zeta1: complex
    zeta2: complex

    def __post_init__(self):
        if not (np.isfinite(self.zeta1) and np.isfinite(self.zeta2)):
            raise ValueError("shift components must be finite")


# Each factor's theta arguments from the coordinates (x, y, z, t), by index:
# w = Re w + i Im w, and tau = Re tau + i, or BASE_TAU where Re tau is None.
_ARGS = MappingProxyType({"fiber": (2, 0, 1), "base": (1, 3, None)})


def _factor_args(names, pts):
    """Theta arguments w and moduli tau of the named factors at (..., 4) points, each
    (len(names), ...): z + i x against y + i for the fiber, y + i t against BASE_TAU."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1:] != (4,):
        raise ValueError(f"points must have shape (..., 4), got {pts.shape}")
    w = np.empty((len(names),) + pts.shape[:-1], dtype=complex)
    tau = np.empty_like(w)
    for f, name in enumerate(names):
        re, im, tau_re = _ARGS[name]
        w.real[f], w.imag[f] = pts[..., re], pts[..., im]
        tau[f] = BASE_TAU if tau_re is None else pts[..., tau_re] + 1j
    return w, tau


# The chain table: each Segre factor's partials along (x, y, z, t) from its
# kernel rows (d/dw, d/dtau): partial mu is sum_r CHAIN[name][mu, r] * row r.
# From _ARGS: the coordinate a of Re w gives 1 and that of Im w gives i on
# the d/dw row, and that of Re tau 1 on the d/dtau row.
CHAIN = MappingProxyType({f: np.array([[(a == re) + 1j * (a == im), a == tau] for a in range(4)])
                          for f, (re, im, tau) in _ARGS.items()})
for _table in CHAIN.values():
    _table.flags.writeable = False
AXES = (0, 1, 2, 3)  # the coordinates (x, y, z, t)
_ROW_ORDERS = ((1, 0), (0, 1))  # the kernel (w_order, tau_order) of each row
FACTOR_AXES = {name: tuple(np.flatnonzero(t.any(axis=1)).tolist()) for name, t in CHAIN.items()}


@functools.cache  # CHAIN is constant: a test that rebinds it replaces this cache too
def _chain(names, axes):
    """The read-only chain tables ``factor`` returns for checked axes (None
    without axes), and its kernel orders: the value, then the rows (d/dw,
    d/dtau) the partials use, at least d/dw.  An unknown name raises ValueError."""
    if not set(names) <= set(CHAIN):
        raise ValueError(f"unknown factor in {names!r}; expected one of {tuple(CHAIN)}")
    if axes is None:
        return None, ((0, 0),)
    used = [r for r in (0, 1) if any(CHAIN[n][a, r] for n in names for a in axes)] or [0]
    rows = slice(used[0], used[-1] + 1)
    tables = np.stack([CHAIN[n] for n in names])[:, axes, rows]
    tables.flags.writeable = False
    return tables, ((0, 0),) + _ROW_ORDERS[rows]


def factor(which, k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY, axes=None):
    """Segre factor lifts of the degree-k basis at (..., 4) points, one kernel call.

    ``which`` is "fiber", the values theta_k^p(z + i x, y + i), or "base",
    theta_k^q(y + i t, i), with the residue axis last, shape (..., k).  Given
    ``axes``, distinct ints in 0..3, it returns ``(values, rows, table)``:
    the kernel's derivative rows d/dw and d/dtau that the partials along
    ``axes`` need, shape (..., R, k), and the read-only chain table
    (len(axes), R) whose row mu gives the partial along ``axes[mu]`` as
    ``table[mu] @ rows``.  A tuple of F names stacks their factors on a
    leading axis in one kernel call: (F, ..., k), (F, ..., R, k), (F, len(axes), R).
    Every degree-k map passes here: a k that is not an int >= 1 raises ValueError.
    """
    return _factor_views(which, *_factor_block(which, k, pts, policy, axes))


def _factor_block(which, k, pts, policy=th.DEFAULT_POLICY, axes=None):
    """``factor``'s kernel array (len(orders), k, F, ...), the value and then
    the rows, and its chain tables, before ``_factor_views``."""
    th.check_degree(k)
    names = (which,) if isinstance(which, str) else tuple(which)
    if axes is not None and axes is not AXES and not (
            isinstance(axes, tuple) and axes and len(set(axes)) == len(axes)
            and all(type(a) is int and 0 <= a < 4 for a in axes)):
        raise ValueError(f"axes must be a nonempty tuple of distinct ints in 0..3, got {axes!r}")
    tables, orders = _chain(names, axes)
    return th._degree_basis_batch(k, *_factor_args(names, pts), policy, orders), tables


def _factor_views(which, basis, tables):
    """``factor``'s outputs from the kernel's (len(orders), k, F, ...) array.  The
    residue and row axes move last as transposed views, so memory keeps the point
    axes innermost; numpy keeps that order in products, and the k^2 assemblies
    run long inner loops."""
    out = (basis[0].transpose(*range(1, basis.ndim - 1), 0),)
    if tables is not None:
        out += (basis[1:].transpose(*range(2, basis.ndim), 0, 1), tables)
    if isinstance(which, str):  # one factor: drop the stacking axis
        out = tuple(x[0] for x in out)
    return out[0] if tables is None else out


@np.errstate(over="ignore", invalid="ignore")
def _point_block(which, k: int, coords, policy=th.DEFAULT_POLICY, axes=None):
    """``_factor_block``, bit for bit, at the point (1, 4) of ``manifold._reduce``'s
    coordinates, finite and in [0, 1)^4: every factor has Im tau = 1 and Im w in
    [0, 1), so the batch's checks hold.  One ``_series_block`` call, with
    ``_degree_basis_batch``'s w - w.real.round() as Python's round (also half to
    even) and the constants of the domain unit's cells int(CELLS * Im w), the
    windows ``_kernel_window`` reads for a batch within that unit, from the cache
    ``_cell_constants``.  ``axes``: None or AXES."""
    th.check_degree(k)
    names = (which,) if isinstance(which, str) else tuple(which)
    tables, orders = _chain(names, axes)
    w, tau, cells = [], [], []
    for name in names:
        re, im, tau_re = _ARGS[name]
        t = BASE_TAU if tau_re is None else complex(coords[tau_re], 1.0)
        w.append(complex(coords[re] - round(coords[re]), coords[im]))
        tau.append(t - round(t.real))
        cells.append(int(coords[im] * th.CELLS))
    consts = th._cell_constants(k, policy, orders, tuple(cells))
    basis = th._series_block(k, np.array(w), np.array(tau), consts, orders)
    return basis.reshape(basis.shape + (1,)), tables


def _partial(rows, coefs):
    """The partial a chain table row ``coefs`` gives: one row times 1 or i."""
    r = coefs.nonzero()[0][0]
    return rows[..., r, :] if coefs[r] == 1 else coefs[r] * rows[..., r, :]


@np.errstate(over="ignore", invalid="ignore")
def segre_lift(fiber, base) -> np.ndarray:
    """Products fiber_p * base_q of (..., k) factor rows, flattened as p*k + q,
    shape (..., k^2); where both are finite but large they overflow to inf or
    NaN without a warning, as in the kernel, for callers to type."""
    k = fiber.shape[-1]
    return (fiber[..., :, None] * base[..., None, :]).reshape(fiber.shape[:-1] + (k * k,))


def section_matrix(k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY) -> np.ndarray:
    """Values of all k^2 basis sections at (..., 4) points, shape (..., k^2):
    phi_k's lift (``embedding.phi_batch``) at the points as given, which far
    off the fundamental domain can overflow to inf or NaN without a warning;
    ``embedding.phi`` evaluates at the reduced point instead."""
    return segre_lift(*factor(("fiber", "base"), k, np.atleast_2d(pts), policy))


@np.errstate(over="ignore", invalid="ignore")
def section_matrix_with_gradients(k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY):
    """Values (..., k^2) and coordinate gradients (..., 4, k^2) of the basis.

    Gradients are analytic chain-rule derivatives; no finite differences.
    """
    (fiber, base), (d_fiber, d_base), (c_fiber, c_base) = factor(
        ("fiber", "base"), k, np.atleast_2d(pts), policy, AXES)
    # The product rule, term by term only along the axes where the factor's
    # partial is not identically zero; every axis has at least one term.
    grads = np.empty(fiber.shape[:-1] + (4, k, k), dtype=complex)
    for axis in FACTOR_AXES["fiber"]:
        np.multiply(_partial(d_fiber, c_fiber[axis])[..., :, None], base[..., None, :],
                    out=grads[..., axis, :, :])
    for axis in FACTOR_AXES["base"]:
        out = grads[..., axis, :, :]
        d = _partial(d_base, c_base[axis])[..., None, :]
        if axis in FACTOR_AXES["fiber"]:
            out += fiber[..., :, None] * d
        else:
            np.multiply(fiber[..., :, None], d, out=out)
    return segre_lift(fiber, base), grads.reshape(grads.shape[:-2] + (k * k,))


def section(idx: SectionIndex, u: KTPoint, policy=th.DEFAULT_POLICY) -> complex:
    """Value of the basis section s_{p,q} at ``u``, evaluated there; raises
    ``LiftOverflow`` where it is not finite (a few periods off the domain)."""
    value = complex(section_matrix(idx.k, u.as_array(), policy)[0, idx.flat])
    if not np.isfinite(value):
        raise LiftOverflow(f"the section {idx} is not finite at {u}")
    return value


def _shift_array(zetas) -> np.ndarray:
    """(..., S, 2) complex array from ZetaShifts, (zeta1, zeta2) rows or an array."""
    if not isinstance(zetas, np.ndarray):
        zetas = [(z.zeta1, z.zeta2) if isinstance(z, ZetaShift) else z for z in zetas]
    shifts = np.array(zetas, dtype=complex)
    if shifts.ndim < 2 or shifts.shape[-1] != 2 or not shifts.shape[-2]:
        raise ValueError(f"shifts must have shape (..., S, 2) with S >= 1, got {shifts.shape}")
    if not np.isfinite(shifts).all():
        raise ValueError("shift components must be finite")
    return shifts


def shift_product(zetas, pts: np.ndarray, policy=th.DEFAULT_POLICY) -> np.ndarray:
    """prod_s theta(w1 + zeta1_s, y + i) * theta(w2 + zeta2_s, i) at points.

    ``zetas`` holds S shifts, as ZetaShifts or an (S, 2) complex array, or
    is an (..., S, 2) array of shift lists whose leading axes broadcast
    against the points'; ``pts`` is an (..., 4) array of points and the
    result has the broadcast leading shape.  Every fiber and base factor at
    every point is summed in one series evaluation.  Componentwise zero-sum
    shifts give a degree-S section, in the span of the S^2 basis sections
    on each leaf of constant y.
    """
    shifts = _shift_array(zetas)
    (w1, w2), (tau1, tau2) = _factor_args(("fiber", "base"), pts)
    lead = np.broadcast_shapes(w1.shape, shifts.shape[:-2])
    # fiber factors against y + i and base factors against i, stacked
    ws = np.stack([w1[..., None] + shifts[..., 0], w2[..., None] + shifts[..., 1]])
    taus = np.stack([np.broadcast_to(tau1, lead), np.broadcast_to(tau2, lead)])[..., None]
    return th.theta_batch(ws, taus, policy=policy)[0].prod(axis=(0, -1))


def fit_in_span(pts: np.ndarray, vals, k: int, policy=th.DEFAULT_POLICY):
    """Least-squares fit of values sampled at points against the k^2 basis sections.

    ``pts`` is an (n, 4) array of at least 2*k^2 points and ``vals`` their
    n values, or (n, m) for m functions, which share one design matrix and
    get a (k^2, m) coefficient array and m residuals.  Returns (coefficients,
    relative l2 residual); raises ``IllConditioned`` where the singular
    values of the least-squares solve put the condition number above 1e12.
    """
    pts = np.asarray(pts, dtype=float)
    vals = np.asarray(vals, dtype=complex)
    if len(vals) != len(pts):
        raise ValueError(f"{len(pts)} points but {len(vals)} values")
    if len(pts) < 2 * k * k:
        raise ValueError(f"need at least {2 * k * k} samples for degree {k}")
    design = section_matrix(k, pts, policy)
    coeffs, _, _, sv = np.linalg.lstsq(design, vals, rcond=None)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e12:
        raise IllConditioned("sample matrix condition number exceeds 1e12")
    residual = np.linalg.norm(design @ coeffs - vals, axis=0) / np.linalg.norm(vals, axis=0)
    return coeffs, residual if vals.ndim > 1 else float(residual)


@dataclass(frozen=True)
class SeparationResult:
    """Shifts of a degree-3 section vanishing at u but not at v: the ``shift_product``
    of (alpha, gamma), (beta, delta), (-alpha - beta, -gamma - delta) (``_zeta_array``)."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    value_at_u: complex
    value_at_v: complex
    scale: float
    branch: str


@functools.cache
def _probes():
    """The fixed probe points whose values set a search candidate's scale,
    read-only; built on first use, so that importing the package does not
    import numpy.random."""
    pts = fundamental_domain_samples(24, seed=1729)
    pts.flags.writeable = False
    return pts


# A candidate from its six uniform draws d, in the order the search reads
# them: the branch's zero at u fills one slot of (alpha, beta, gamma,
# delta) and the free shifts d[re] + 0.6i (d[im] - 1/2) the other three.
_DRAW_LAYOUT = {  # branch: (zero slot, free slots, re columns, im columns)
    "base": (2, [0, 1, 3], [0, 1, 4], [2, 3, 5]),
    "fiber": (0, [1, 2, 3], [0, 2, 3], [1, 4, 5]),
}


def _candidates(branch, us: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Shifts (alpha, beta, gamma, delta) of the branch's candidates, (B, N, 4),
    at (B, 4) points u from their (B, N, 6) draws.

    z = THETA_ZERO kills a theta factor; the branch names the factor to kill at u.
    """
    zero, free, re, im = _DRAW_LAYOUT[branch]
    out = np.empty(draws.shape[:-1] + (4,), dtype=complex)
    out[..., zero] = (THETA_ZERO - _factor_args((branch,), us)[0][0])[:, None]
    out.real[..., free] = draws[..., re]
    out.imag[..., free] = (draws[..., im] - 0.5) * 0.6
    return out


def _zeta_array(shifts: np.ndarray) -> np.ndarray:
    """A ``SeparationResult``'s three (zeta1, zeta2) from (..., 4) shifts, (..., 3, 2)."""
    zetas = np.empty(shifts.shape[:-1] + (3, 2), dtype=complex)
    zetas[..., :2, 0] = shifts[..., :2]  # alpha, beta
    zetas[..., :2, 1] = shifts[..., 2:]  # gamma, delta
    zetas[..., 2, :] = -zetas[..., 0, :] - zetas[..., 1, :]
    return zetas


def separating_sections(us, vs, seeds, policy=th.DEFAULT_POLICY) -> list:
    """Degree-3 sections with s(u) = 0 and s(v) != 0 for the pairs of rows of
    (B, 4) arrays ``us`` and ``vs``: a SeparationResult per pair, or None where
    every candidate failed; ``EquivalentPoints`` if a pair coincides on the quotient.

    The base branch places a zero of the base factor at u (gamma = 1/2 - w2(u));
    when u and v share base coordinates modulo the lattice the fiber branch
    places it in the fiber factor (alpha = 1/2 - w1(u)).  The other shifts are
    drawn, six doubles of ``default_rng(seeds[i])`` per candidate of pair i and
    ``RETRIES`` per branch, until the section stays away from zero at v against
    a probe-set scale; round r takes candidate r of every unresolved pair.
    """
    us, vs = (np.asarray(a, dtype=float) for a in (us, vs))
    seeds = list(seeds)
    if not us.shape == vs.shape == (len(seeds), 4):
        raise ValueError(f"need (B, 4) point arrays and B seeds, got {us.shape}, {vs.shape}, "
                         f"{len(seeds)}")
    for i, seed in enumerate(seeds):
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"the seed of pair {i} must be an int of at least 0, got {seed!r}")
    # per pair: the probes, then u and v reduced, each point once
    pts = np.empty((len(seeds), len(_probes()) + 2, 4))
    pts[:, :-2] = _probes()
    draws = np.empty((len(seeds), 2 * RETRIES, 6))
    for i, (a, b, seed) in enumerate(zip(us, vs, seeds)):
        u0, v0 = (reduce_point(KTPoint.from_array(x))[0].as_array() for x in (a, b))
        if reduced_distance(u0, v0) < 1e-8:
            raise EquivalentPoints(f"the points of pair {i} coincide on the quotient")
        pts[i, -2], pts[i, -1] = u0, v0
        draws[i] = np.random.default_rng(seed).random((2 * RETRIES, 6))
    u0, v0 = pts[:, -2], pts[:, -1]
    # The base branch comes first unless u and v share base coordinates (y, t)
    # modulo the lattice; the fiber fallback only makes sense when the fiber
    # coordinates differ.  Candidate r of pair i is a fiber candidate iff
    # fiber_first[i] != (r >= RETRIES).
    d = (v0 - u0)[:, FACTOR_AXES["base"]] % 1.0
    fiber_first = np.hypot(*np.minimum(d, 1.0 - d).T) < 1e-4
    has_fallback = fiber_first | (np.abs(_factor_args(("fiber",), v0)[0][0]
                                         - _factor_args(("fiber",), u0)[0][0]) >= 1e-8)
    counts = np.where(has_fallback, 2 * RETRIES, RETRIES)
    in_fiber = fiber_first[:, None] != (np.arange(2 * RETRIES) >= RETRIES)
    candidates = np.where(in_fiber[..., None], _candidates("fiber", u0, draws),
                          _candidates("base", u0, draws))
    results = [None] * len(seeds)
    pending = np.arange(len(seeds))
    for r in range(2 * RETRIES):
        pending = pending[counts[pending] > r]
        if not pending.size:
            break
        shifts = candidates[pending, r]
        vals = shift_product(_zeta_array(shifts)[:, None], pts[pending], policy)
        scale = np.abs(vals[:, :-2]).max(axis=1)
        at_u, at_v = np.abs(vals[:, -2:]).T
        found = (scale > 0) & (at_u < 1e-8 * scale) & (at_v > 1e-3 * scale)
        for j in np.flatnonzero(found):
            results[pending[j]] = SeparationResult(
                *map(complex, shifts[j]), complex(vals[j, -2]), complex(vals[j, -1]),
                float(scale[j]), "fiber" if in_fiber[pending[j], r] else "base")
        pending = pending[~found]
    return results

