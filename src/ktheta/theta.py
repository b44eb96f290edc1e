"""Classical Jacobi theta series with certified truncation.

The series used throughout the package is

    theta(z, tau) = sum_{n in Z} exp(2*pi*i*n*z + pi*i*n*(n-1)*tau),

which converges for Im(tau) > 0.  ``theta``, ``theta_deriv`` and the
shifted products choose a symmetric index window [-N, N] whose discarded
tail is dominated by a geometric series and certified below the policy
epsilon, so reported values carry an absolute error guarantee.
Derivatives are summed termwise with the polynomial weight folded into
the tail bound.

The degree-k basis element with residue p is

    theta_k^p(w, tau) = exp(2*pi*i*p*w) * theta(k*w + p*tau, k*tau)
        = sum_{n = p mod k} exp(2*pi*i*n*w + pi*i*tau*((n^2 - p^2)/k - (n - p))),

where the term n = p + m*k is the term m of theta(k*w + p*tau, k*tau).
``_degree_basis_batch`` evaluates every residue at once from this n-sum.
Each point b keeps the m-window [lo_b, lo_b + L), the same for all its
residues and placed per point around the Gaussian peak of the term
magnitudes exp(-2*pi*m*Im(k*w + p*tau) - pi*m*(m-1)*k*Im(tau)); the batch
shares L.  The indices n = k*lo_b + j, 0 <= j < k*L, then form one
(window, point) array with one complex exponential, and a reshape to
(L, k) blocks and one contraction over the blocks give each residue's
value and derivatives.  The certificate is the symmetric windows' one:
for every point and residue p, the discarded terms of theta(k*w + p*tau,
k*tau) and of its termwise d/dz (and d/dtau when asked for) sum to at
most epsilon, each side of the window to at most epsilon / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModulus, ShiftSumNonzero, TailNotConverged

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ThetaArgument:
    """A point (z, tau) of the classical theta domain, Im(tau) > 0."""

    z: complex
    tau: complex

    def __post_init__(self):
        if not (np.isfinite(self.z) and np.isfinite(self.tau)):
            raise InvalidModulus("theta argument must be finite")
        if self.tau.imag <= 0.0:
            raise InvalidModulus(f"Im(tau) must be positive, got {self.tau.imag}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Target absolute tail bound and a hard cap on the window index."""

    epsilon: float = 1e-14
    max_terms: int = 512

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class ThetaBasisIndex:
    """Degree k and residue selector p of a degree-k basis element."""

    k: int
    p: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("degree k must be at least 1")
        if not 0 <= self.p < self.k:
            raise ValueError(f"residue p={self.p} outside [0, {self.k})")


_SIDE = np.array([-1.0, 1.0])


def _power(x, n):
    return 1.0 if n == 0 else x if n == 1 else x**n


def _tail_bound_arrays(z, im_tau, outward, orders=((0, 0),)):
    """Certified bounds on the terms discarded by windows [lo, hi].

    ``outward`` stacks (-lo, hi) on its first axis and ``z`` stacks an
    interval (z_min, z_max) of Im(z) the same way; trailing axes broadcast.
    The result stacks (below, above): bounds on the absolute sums of the
    termwise-differentiated terms with m < lo and with m > hi, valid for
    every Im(z) in the interval and every (z_order, tau_order) in ``orders``.

    Each side is a sum over j > s (s its ``outward`` entry) of
    |t_j| (2 pi j)^zo (pi j (j + o))^to, |t_j| = exp(-2 pi j y - pi j (j + o) im_tau):
    above m = j, y = Im(z), o = -1; below m = -j, y = -Im(z), o = 1.  The
    ratio t_{j+1} / t_j falls with j and is largest at the smallest y, and
    the weight is at most P(j - s - 1) with P(i) = (2 pi (a + i))^zo
    (pi (a + i)(b + i))^to, a = max(|s + 1|, 1), b = max(|s + 1 + o|, 1),
    whose ratio P(i+1) / P(i) is largest at i = 0.  So a geometric series
    from the largest first term over the interval dominates the side; the
    bound is +inf where that series diverges.
    """
    z = np.asarray(z, dtype=float)
    side = _SIDE.reshape((2,) + (1,) * (z.ndim - 1))
    y_min, y_max = z[::-1] * side, z * side
    offset = -side
    start = np.asarray(outward, dtype=float) + 1.0
    a = np.maximum(np.abs(start), 1.0)
    b = np.maximum(np.abs(start + offset), 1.0)
    weight = ratio = None
    for zo, to in orders:
        if zo or to:
            w = TWO_PI**zo * math.pi**to * _power(a, zo + to) * _power(b, to)
            r = _power((a + 1.0) / a, zo + to) * _power((b + 1.0) / b, to)
            weight = w if weight is None else np.maximum(weight, w)
            ratio = r if ratio is None else np.maximum(ratio, r)
    log_t = np.maximum(-TWO_PI * start * y_min, -TWO_PI * start * y_max)
    log_t -= math.pi * start * (start + offset) * im_tau
    log_q = -TWO_PI * y_min - math.pi * (2.0 * start + 1.0 + offset) * im_tau
    if weight is not None:
        log_t += np.log(weight)
        log_q += np.log(ratio)
    with np.errstate(over="ignore"):
        q = np.exp(log_q)
        return np.where(q < 1.0, np.exp(log_t) / np.maximum(1.0 - q, 1e-300), np.inf)


def _pick_window(im_z, im_tau, policy, z_order=0, tau_order=0):
    """Smallest window index N whose certified tail is <= policy.epsilon."""
    im_z = np.asarray(im_z, dtype=float)
    im_tau = np.asarray(im_tau, dtype=float)
    crossover = np.max(np.abs(im_z) / im_tau)
    n = max(1, int(math.ceil(crossover)))
    z = np.stack([im_z, im_z])
    while n <= policy.max_terms:
        bound = np.max(_tail_bound_arrays(z, im_tau, n, [(z_order, tau_order)]).sum(axis=0))
        if bound <= policy.epsilon:
            return n
        # far from the target the bound drops by ~exp(-2*pi*n*im_tau) per step
        n = n + 1 if bound < policy.epsilon * 1e8 else max(n + 2, int(n * 1.25))
    raise TailNotConverged(
        f"tail bound did not reach {policy.epsilon} within max_terms={policy.max_terms}"
    )


def _eval_series(zs, taus, policy, orders):
    """Evaluate termwise derivatives of the theta series on arrays.

    ``orders`` is a sequence of (z_order, tau_order) pairs; one array per
    pair is returned, all sharing a single certified window and a fixed
    summation order.
    """
    zs = np.asarray(zs, dtype=complex)
    taus = np.asarray(taus, dtype=complex)
    zs, taus = np.broadcast_arrays(zs, taus)
    zo_max = max(o[0] for o in orders)
    to_max = max(o[1] for o in orders)
    n = _pick_window(zs.imag, taus.imag, policy, zo_max, to_max)

    idx = np.arange(-n, n + 1)
    quad = idx * (idx - 1)
    expo = (2j * math.pi) * zs[..., None] * idx + (1j * math.pi) * taus[..., None] * quad
    terms = np.exp(expo)

    out = []
    for zo, to in orders:
        w = np.ones_like(idx, dtype=complex)
        if zo:
            w = w * (2j * math.pi * idx) ** zo
        if to:
            w = w * (1j * math.pi * quad) ** to
        out.append((terms * w).sum(axis=-1))
    return out


def tail_bound(arg: ThetaArgument, n: int, z_order: int = 0, tau_order: int = 0) -> float:
    """Certified upper bound on the absolute tail beyond index ``n``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    y = arg.z.imag
    return float(_tail_bound_arrays([y, y], arg.tau.imag, n, [(z_order, tau_order)]).sum())


def theta(arg: ThetaArgument, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Evaluate theta(z, tau) with absolute error at most policy.epsilon."""
    return complex(_eval_series(arg.z, arg.tau, policy, [(0, 0)])[0])


def theta_deriv(
    arg: ThetaArgument,
    z_order: int,
    tau_order: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Termwise derivative d^{z_order}/dz d^{tau_order}/dtau of theta."""
    if z_order < 0 or tau_order < 0:
        raise ValueError("derivative orders must be nonnegative")
    return complex(_eval_series(arg.z, arg.tau, policy, [(z_order, tau_order)])[0])


def theta_zero(tau: complex) -> complex:
    """Representative zero of theta(., tau) in the fundamental region.

    The pairing n <-> 1-n cancels the series exactly at z = 1/2, which is
    the single zero (up to multiplicity) modulo Z + tau*Z.
    """
    if complex(tau).imag <= 0.0:
        raise InvalidModulus("Im(tau) must be positive")
    return 0.5 + 0.0j


_CANDIDATES = np.array([-1, 0, 1])[:, None]  # one step in, the guess, one step out


def _basis_window(k, im_w, im_tau, policy, orders):
    """Per-point m-windows [lo, lo + length) of the degree-k kernel.

    Returns ``lo`` (shape (B,)) and the batch's shared length.  The terms of
    residue p's inner series theta(k*w + p*tau, k*tau) are a Gaussian in m
    centred at 1/2 - Im(w)/Im(tau) - p/k.  Each side of a window is guessed
    where that Gaussian falls to epsilon / 4 for residue 0 or k-1, certified
    for every residue at once (Im(k*w + p*tau) spans [z0, z1]) at the guess
    and one step either way, and set to the innermost certified step.
    Windows padded to the shared length, or that no step certified, are
    certified again and widened where they fail.
    """
    im_t = k * im_tau
    z = k * im_w + np.array([0.0, k - 1.0])[:, None] * im_tau  # (z0, z1)
    half_eps = 0.5 * policy.epsilon
    centre = 0.5 - z / im_t
    reach = np.sqrt(centre * centre + (math.log(2.0) - math.log(half_eps)) / (math.pi * im_t))
    ends = (reach + _SIDE[:, None, None] * centre).max(axis=1)
    guess = np.ceil(ends).astype(int) - 1
    z = z[:, None]

    ok = _tail_bound_arrays(z, im_t, guess[:, None] + _CANDIDATES, orders) <= half_eps
    certified = ok.any(axis=1)
    outward = guess - 1 + np.where(certified, ok.argmax(axis=1), 3)
    while True:
        if np.abs(outward).max() > policy.max_terms:
            raise TailNotConverged(
                f"tail bound did not reach {policy.epsilon} within max_terms={policy.max_terms}"
            )
        width = outward.sum(axis=0) + 1
        length = max(int(width.max()), 1)
        if certified.all() and (width == length).all():
            return -outward[0], length
        outward[0] += (length - width) // 2
        outward[1] = length - 1 - outward[0]
        fail = _tail_bound_arrays(z[:, 0], im_t, outward, orders) > half_eps
        certified = ~fail
        outward += fail


def _degree_basis_batch(k, ws, taus, policy, want_tau=False):
    """Degree-k basis values and derivatives on arrays of arguments.

    Returns arrays of shape (k,) + broadcast(ws, taus).shape: the values,
    the d/dw derivatives, and (if ``want_tau``) the d/dtau derivatives of
    every theta_k^p at (ws, taus), all from one exponential of the
    (window, residue, point) index array; see the module docstring.
    """
    ws, taus = np.asarray(ws, dtype=complex), np.asarray(taus, dtype=complex)
    if ws.shape != taus.shape:
        ws, taus = np.broadcast_arrays(ws, taus)
    shape = ws.shape
    w, tau = ws.ravel(), taus.ravel()
    if not (np.isfinite(w + tau).all() and (tau.imag > 0.0).all()):
        raise InvalidModulus("theta arguments must be finite with Im(tau) > 0")
    orders = ((0, 0), (1, 0), (0, 1)) if want_tau else ((0, 0), (1, 0))
    lo, length = _basis_window(k, w.imag, tau.imag, policy, orders)
    # theta_k^p has period 1 in w and in tau; removing whole periods is exact
    w = w - np.round(w.real)
    tau = tau - np.round(tau.real)

    # n = k*m + p with m = lo + a, laid out (a, p, point); the exponent
    # pi*i*(2*n*w + tau*(k*m^2 + (2p - k)*m)) is f(m) + p*g(m)
    m = lo + np.arange(length)[:, None]
    f = (1j * math.pi * k) * m * (2.0 * w + tau * (m - 1.0))
    g = (2j * math.pi) * (w + tau * m)
    p = np.arange(k, dtype=float)
    terms = np.multiply(g[:, None, :], p[:, None])
    terms += f[:, None, :]
    np.exp(terms, out=terms)

    # one contraction over a with the weights a'^j (a' = a - centre, j < 3)
    # gives every residue's sums S_j = sum_a a'^j * term
    centre = 0.5 * (length - 1)
    weights = (np.arange(length) - centre) ** np.arange(len(orders))[:, None]
    sums = weights @ terms.view(float).reshape(length, -1)
    sums = sums.view(complex).reshape(len(orders), k, -1)

    # with mc = lo + centre, n = nc + k*a' for nc = k*mc + p, and
    # k*m^2 + (2p - k)*m = mc*(nc + p - k) + (2*nc - k)*a' + k*a'^2
    mc = lo + centre
    nc = k * mc + p[:, None]
    vals = sums[0]
    out = [vals, (2j * math.pi) * (nc * vals + k * sums[1])]
    if want_tau:
        out.append((1j * math.pi) * (mc * (nc + p[:, None] - k) * vals
                                     + (2.0 * nc - k) * sums[1] + k * sums[2]))
    return tuple(x.reshape((k,) + shape) for x in out)


def theta_degree_k(
    idx: ThetaBasisIndex,
    arg: ThetaArgument,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Degree-k basis element theta_k^p at (z, tau).

    Satisfies theta_k^p(z+1) = theta_k^p(z) and
    theta_k^p(z+tau) = exp(-2*pi*i*k*z) * theta_k^p(z).
    """
    vals, _ = _degree_basis_batch(idx.k, arg.z, arg.tau, policy)
    return complex(vals[idx.p])


def theta_degree_k_deriv(
    idx: ThetaBasisIndex,
    arg: ThetaArgument,
    policy: TruncationPolicy = DEFAULT_POLICY,
):
    """Value, d/dz and d/dtau of theta_k^p at (z, tau) in one series pass."""
    vals, dws, dtaus = _degree_basis_batch(idx.k, arg.z, arg.tau, policy, want_tau=True)
    return complex(vals[idx.p]), complex(dws[idx.p]), complex(dtaus[idx.p])


def classical_product(
    shifts,
    arg: ThetaArgument,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Product of shifted theta factors prod_i theta(z + a_i, tau).

    The shifts must sum to zero; the product then lies in the span of the
    degree-k basis at the same tau, k = len(shifts).
    """
    shifts = np.asarray(list(shifts), dtype=complex)
    if shifts.size < 1:
        raise ValueError("at least one shift is required")
    total = shifts.sum()
    if abs(total) > 1e-12:
        raise ShiftSumNonzero(f"shifts sum to {total}, expected 0")
    factors = _eval_series(arg.z + shifts, arg.tau, policy, [(0, 0)])[0]
    return complex(np.prod(factors))
