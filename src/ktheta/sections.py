"""Theta functions on the quotient of R^4: basis sections, shifts, products.

The degree-one section is

    s(x, y, z, t) = theta(z + i x, y + i) * theta(y + i t, i),

``shift_product`` multiplies shifted copies of it, and the degree-k space
is spanned by the k^2 products

    s_{p,q}(u) = theta_k^p(z + i x, y + i) * theta_k^q(y + i t, i),

flattened project-wide as index p*k + q.  ``factor`` evaluates the fiber
map psi' = theta_k^p(z + i x, y + i), the base map psi'' = theta_k^q(y + i t, i)
or both, with their coordinate partials, in one kernel call; ``factors``
is the pair.  The basis values are their Segre outer product and the basis
gradients follow by the product rule.  ``FACTOR_AXES`` records
the coordinates each factor depends on, fiber (x, y, z) and base (y, t);
every other partial is exactly zero, so a caller that needs one factor
evaluates only that one.  Sections transform under the deck group by the
k-th power of the multiplicators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import theta as th
from .errors import EquivalentPoints, IllConditioned, SearchFailed
from .manifold import KTPoint, fundamental_domain_samples, quotient_distance, reduce_point

BASE_TAU = 1j  # modulus of the base-torus factor
RETRIES = 32  # seeded attempts per branch of the separating-section search


@dataclass(frozen=True)
class SectionIndex:
    """Degree k with fiber residue p and base residue q, both in [0, k)."""

    k: int
    p: int
    q: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("degree k must be at least 1")
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


def _factor_args(which: str, pts: np.ndarray):
    """Theta argument w and modulus tau of one factor at (..., 4) points."""
    pts = np.asarray(pts, dtype=float)
    if which == "fiber":
        return pts[..., 2] + 1j * pts[..., 0], pts[..., 1] + 1j
    w = pts[..., 1] + 1j * pts[..., 3]
    return w, np.full_like(w, BASE_TAU)


# Each Segre factor's partials along (x, y, z, t), in terms of its
# theta_k^p(w, tau) (``_factor_args``): "w" is d/dw, "iw" is i d/dw, "tau"
# is d/dtau and None a coordinate the factor does not depend on.
_CHAIN = {
    "fiber": ("iw", "tau", "w", None),
    "base": (None, "w", None, "iw"),
}
# The coordinates each factor depends on: fiber (x, y, z), base (y, t).
FACTOR_AXES = {name: tuple(i for i, c in enumerate(chain) if c) for name, chain in _CHAIN.items()}


def factor(which, k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY, gradients: bool = False):
    """Segre factor lifts of the degree-k basis at (..., 4) points, one kernel call.

    ``which`` is "fiber", the values theta_k^p(z + i x, y + i), or "base",
    theta_k^q(y + i t, i), with the residue axis last, shape (..., k).  With
    ``gradients`` it returns ``(values, partials)``, where the
    (d/dx, d/dy, d/dz, d/dt) partials have shape (..., 4, k) and are the
    literal zero array along every coordinate outside ``FACTOR_AXES[which]``.
    A tuple of names stacks their factors on a leading axis, in one kernel
    call: shape (F, ..., k) and (F, ..., 4, k).
    """
    names = (which,) if isinstance(which, str) else tuple(which)
    if not set(names) <= set(_CHAIN):
        raise ValueError(f"unknown factor {which!r}; expected one of {tuple(_CHAIN)}")
    w, tau = np.stack([_factor_args(name, pts) for name in names], axis=1)
    orders = ((0, 0),)
    if gradients:
        orders += ((1, 0), (0, 1)) if any("tau" in _CHAIN[n] for n in names) else ((1, 0),)
    vals, *derivs = th._degree_basis_batch(k, w, tau, policy, orders)
    # The residue and partial axes move last as transposed views, so memory
    # keeps the point axes innermost; numpy keeps that order in products,
    # and the k^2 assemblies run long inner loops.
    out = vals.transpose(*range(1, vals.ndim), 0)
    if gradients:
        rows = dict(zip(("w", "tau"), derivs), iw=1j * derivs[0])
        partials = np.zeros((4,) + vals.shape, dtype=complex)
        for f, name in enumerate(names):
            for axis in FACTOR_AXES[name]:
                partials[axis, :, f] = rows[_CHAIN[name][axis]][:, f]
        out = out, partials.transpose(*range(2, vals.ndim + 1), 0, 1)
    if isinstance(which, str):  # one factor: drop the stacking axis
        return tuple(x[0] for x in out) if gradients else out[0]
    return out


def factors(k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY, gradients: bool = False):
    """``(fiber, base)``: both ``factor`` lifts, each as ``factor`` returns it."""
    both = factor(("fiber", "base"), k, pts, policy, gradients)
    return tuple(zip(*both)) if gradients else tuple(both)


# The Segre products overflow where both factors are finite but large; like
# the kernel's, they leave inf or NaN without a warning, for callers to type.
@np.errstate(over="ignore", invalid="ignore")
def section_matrix(k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY) -> np.ndarray:
    """Values of all k^2 basis sections at (..., 4) points, shape (..., k^2)."""
    fiber, base = factors(k, np.atleast_2d(pts), policy)
    return (fiber[..., :, None] * base[..., None, :]).reshape(fiber.shape[:-1] + (k * k,))


@np.errstate(over="ignore", invalid="ignore")
def section_matrix_with_gradients(k: int, pts: np.ndarray, policy=th.DEFAULT_POLICY):
    """Values (..., k^2) and coordinate gradients (..., 4, k^2) of the basis.

    Gradients are analytic chain-rule derivatives; no finite differences.
    """
    (fiber, d_fiber), (base, d_base) = factors(k, np.atleast_2d(pts), policy, gradients=True)
    vals = fiber[..., :, None] * base[..., None, :]
    # The product rule, term by term only along the axes where the factor's
    # partial is not identically zero; every axis has at least one term.
    grads = np.empty(fiber.shape[:-1] + (4, k, k), dtype=complex)
    for axis in FACTOR_AXES["fiber"]:
        np.multiply(d_fiber[..., axis, :, None], base[..., None, :], out=grads[..., axis, :, :])
    for axis in FACTOR_AXES["base"]:
        out = grads[..., axis, :, :]
        if axis in FACTOR_AXES["fiber"]:
            out += fiber[..., :, None] * d_base[..., axis, None, :]
        else:
            np.multiply(fiber[..., :, None], d_base[..., axis, None, :], out=out)
    return vals.reshape(vals.shape[:-2] + (k * k,)), grads.reshape(grads.shape[:-2] + (k * k,))


def section(idx: SectionIndex, u: KTPoint, policy=th.DEFAULT_POLICY) -> complex:
    """Value of the basis section s_{p,q} at ``u``."""
    return complex(section_matrix(idx.k, u.as_array(), policy)[0, idx.flat])


def _shift_array(zetas) -> np.ndarray:
    """(S, 2) complex array from ZetaShifts or from (zeta1, zeta2) rows."""
    rows = [(z.zeta1, z.zeta2) if isinstance(z, ZetaShift) else z for z in zetas]
    shifts = np.array(rows, dtype=complex).reshape(len(rows), 2)
    if not rows or not np.isfinite(shifts).all():
        raise ValueError("need at least one shift, with finite components")
    return shifts


def shift_product(zetas, pts: np.ndarray, policy=th.DEFAULT_POLICY) -> np.ndarray:
    """prod_s theta(w1 + zeta1_s, y + i) * theta(w2 + zeta2_s, i) at points.

    ``zetas`` holds S shifts, as ZetaShifts or an (S, 2) complex array;
    ``pts`` is an (..., 4) array of points and the result has shape (...,).
    Every fiber and base factor at every point is summed in one series
    evaluation.  Componentwise zero-sum shifts give a degree-S section, in
    the span of the S^2 basis sections on each leaf of constant y.
    """
    shifts = _shift_array(zetas)
    (w1, tau1), (w2, tau2) = _factor_args("fiber", pts), _factor_args("base", pts)
    # fiber factors against y + i and base factors against i, stacked
    ws = np.stack([w1[..., None] + shifts[:, 0], w2[..., None] + shifts[:, 1]])
    taus = np.stack([tau1, tau2])[..., None]
    return th._eval_series(ws, taus, policy, [(0, 0)])[0].prod(axis=(0, -1))


def fit_in_span(samples, k: int, policy=th.DEFAULT_POLICY):
    """Least-squares fit of sampled values against the k^2 basis sections.

    ``samples`` is a sequence of (KTPoint, value) pairs, at least 2*k^2 of
    them.  Returns (coefficients, relative l2 residual).  A value may be a
    length-m vector holding m functions sampled at that point; they share
    one design matrix and get a (k^2, m) coefficient array and m residuals.
    """
    pts = np.array([s[0].as_array() for s in samples])
    vals = np.array([s[1] for s in samples], dtype=complex)
    if len(samples) < 2 * k * k:
        raise ValueError(f"need at least {2 * k * k} samples for degree {k}")
    design = section_matrix(k, pts, policy)
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e12:
        raise IllConditioned("sample matrix condition number exceeds 1e12")
    coeffs, _, _, _ = np.linalg.lstsq(design, vals, rcond=None)
    residual = np.linalg.norm(design @ coeffs - vals, axis=0) / np.linalg.norm(vals, axis=0)
    return coeffs, residual if vals.ndim > 1 else float(residual)


@dataclass(frozen=True)
class SeparationResult:
    """Shift parameters of a degree-3 section vanishing at u but not at v."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    value_at_u: complex
    value_at_v: complex
    scale: float
    branch: str

    @property
    def zetas(self) -> tuple[ZetaShift, ZetaShift, ZetaShift]:
        return (
            ZetaShift(self.alpha, self.gamma),
            ZetaShift(self.beta, self.delta),
            ZetaShift(-self.alpha - self.beta, -self.gamma - self.delta),
        )


def _base_torus_distance(u: KTPoint, v: KTPoint) -> float:
    """Distance of the (y, t) base coordinates modulo unit translations."""
    dy = (v.y - u.y) % 1.0
    dt = (v.t - u.t) % 1.0
    dy = min(dy, 1.0 - dy)
    dt = min(dt, 1.0 - dt)
    return math.hypot(dy, dt)


def _try_branch(branch, u, v, policy, rng, probes):
    """One branch of the separating-section search; None when retries run out."""
    # z = 1/2 kills a theta factor; the branch names the factor to kill at u
    zero_at_u = th.theta_zero(BASE_TAU) - _factor_args(branch, u.as_array())[0]
    pts = np.vstack([probes, u.as_array(), v.as_array()])
    for _ in range(RETRIES):
        if branch == "base":
            gamma = zero_at_u
            alpha, beta = (rng.random(2) + 1j * (rng.random(2) - 0.5) * 0.6)
            delta = complex(rng.random() + 1j * (rng.random() - 0.5) * 0.6)
        else:
            alpha = zero_at_u
            beta = complex(rng.random() + 1j * (rng.random() - 0.5) * 0.6)
            gamma, delta = (rng.random(2) + 1j * (rng.random(2) - 0.5) * 0.6)
        candidate = SeparationResult(
            complex(alpha), complex(beta), complex(gamma), complex(delta),
            0.0, 0.0, 0.0, branch,
        )
        vals = shift_product(candidate.zetas, pts, policy)
        scale = float(np.abs(vals[:-2]).max())
        s_u, s_v = complex(vals[-2]), complex(vals[-1])
        if scale > 0 and abs(s_u) < 1e-8 * scale and abs(s_v) > 1e-3 * scale:
            return replace(candidate, value_at_u=s_u, value_at_v=s_v, scale=scale)
    return None


def separating_section(u: KTPoint, v: KTPoint, policy=th.DEFAULT_POLICY,
                       seed: int = 0) -> SeparationResult:
    """Degree-3 section with s(u) = 0 and s(v) != 0, by the zero-placement search.

    The base branch places a zero of the base factor at u (gamma = 1/2 - w2(u));
    when u and v share base coordinates modulo the lattice the fiber branch
    places the zero in the fiber factor instead (alpha = 1/2 - w1(u)).  The
    remaining shifts are drawn from a seeded generator, at most ``RETRIES``
    times per branch, until the other factors stay away from zero at v,
    judged against a probe-set scale.
    """
    if quotient_distance(u, v) < 1e-8:
        raise EquivalentPoints("points coincide on the quotient")
    u, _ = reduce_point(u)
    v, _ = reduce_point(v)
    rng = np.random.default_rng(seed)
    probes = fundamental_domain_samples(24, seed=1729)

    primary = "fiber" if _base_torus_distance(u, v) < 1e-4 else "base"
    order = (primary, "fiber" if primary == "base" else "base")
    for branch in order:
        if branch == "fiber" and primary == "base":
            # fallback only makes sense when the fiber coordinates differ
            if abs(_factor_args("fiber", v.as_array())[0]
                   - _factor_args("fiber", u.as_array())[0]) < 1e-8:
                continue
        found = _try_branch(branch, u, v, policy, rng, probes)
        if found is not None:
            return found
    raise SearchFailed(f"no separating section after {RETRIES} seeded attempts per branch")
