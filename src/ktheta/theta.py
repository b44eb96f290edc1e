"""Jacobi theta series with certified truncation, from one summation engine.

The classical series used throughout the package is

    theta(z, tau) = sum_{n in Z} exp(2*pi*i*n*z + pi*i*n*(n-1)*tau),

which converges for Im(tau) > 0.  The degree-k basis element with residue
p is

    theta_k^p(w, tau) = exp(2*pi*i*p*w) * theta(k*w + p*tau, k*tau)
        = sum_{n = p mod k} exp(2*pi*i*n*w + pi*i*tau*((n^2 - p^2)/k - (n - p))),

where the term n = p + m*k is the term m of theta(k*w + p*tau, k*tau).  The
classical series is the degree-one element, theta = theta_1^0, so
``_degree_basis_batch`` is the only summation: ``theta``, ``theta_deriv``,
``theta_batch`` and the theta factors of ``sections.shift_product`` are its
k = 1 view.

The kernel evaluates every residue at once from the n-sum.  Each point b
keeps the m-window [lo_b, lo_b + L), the same for all its residues and
placed per point around the Gaussian peak of the term magnitudes
exp(-2*pi*m*Im(k*w + p*tau) - pi*m*(m-1)*k*Im(tau)); the batch shares L.
The indices n = k*lo_b + j, 0 <= j < k*L, then form one (window, residue,
point) array of terms.  Term (m, p) has the exponent f(m) + p*g(m), so it
is its modulus exp(Re f + p*Re g), from one real exponential, times its
phase exp(i*Im f) * exp(i*Im g)^p, a product of unit factors: the
trigonometry runs over (window, point) only, no product can overflow, and
every modulus has the exponent of the direct complex exponential.  One
contraction over the window axis gives each residue's centred moments,
from which every requested termwise derivative follows.  The certificate
holds per requested (z_order, tau_order): for every point and residue p,
the discarded terms of theta(k*w + p*tau, k*tau), each multiplied by its
termwise derivative weight, sum to at most epsilon / 2 on each side of the
window.  For k = 1 that bounds each returned output's truncation error by
epsilon.

Arguments reduced to the fundamental domain have Im(tau) = 1 and Im(w) in
[0, 1].  A batch of such arguments skips the per-point search: each point
takes lo from the cell [j, j + 1] / CELLS of Im(w) it lies in, and the
batch takes the table's shared L.  The table is built once per (k, policy,
orders) by ``_basis_window`` itself, each cell passed as its two edges, so
every cell's window carries the same certificate over the whole cell.  It
is certified for the requested orders together with the value and both
first derivatives, so value-only and gradient calls at one point sum the
same terms.  Every other batch keeps the per-point window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModulus, TailNotConverged

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
        # the window search takes log(epsilon / 2)
        if not (math.isfinite(self.epsilon) and 0.5 * self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive with a nonzero half, "
                             f"got {self.epsilon}")
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
    start = np.asarray(outward) + 1.0
    start_o = start - side  # s + 1 + o
    weight = ratio = None
    for zo, to in orders:
        if zo or to:
            if weight is None:
                a = np.maximum(np.abs(start), 1.0)
                b = np.maximum(np.abs(start_o), 1.0)
            w = TWO_PI**zo * math.pi**to * _power(a, zo + to)
            r = _power((a + 1.0) / a, zo + to)
            if to:
                w = w * _power(b, to)
                r = r * _power((b + 1.0) / b, to)
            weight = w if weight is None else np.maximum(weight, w)
            ratio = r if ratio is None else np.maximum(ratio, r)
    slope = -TWO_PI * start
    log_t = np.maximum(slope * y_min, slope * y_max)
    log_t -= math.pi * start * start_o * im_tau
    log_q = -TWO_PI * y_min - math.pi * (start + start_o + 1.0) * im_tau
    if weight is not None:
        log_t += np.log(weight)
        log_q += np.log(ratio)
    with np.errstate(over="ignore"):
        q = np.exp(log_q)
        return np.where(q < 1.0, np.exp(log_t) / np.maximum(1.0 - q, 1e-300), np.inf)


def _eval_series(zs, taus, policy, orders):
    """``theta_batch``, the degree-one view of ``_degree_basis_batch``: theta = theta_1^0."""
    return [x[0] for x in _degree_basis_batch(1, zs, taus, policy, orders)]


def theta_batch(zs, taus, orders=((0, 0),), policy: TruncationPolicy = DEFAULT_POLICY):
    """Termwise derivatives of theta on arrays of arguments, in one series
    evaluation: one array of shape broadcast(zs, taus).shape per
    (z_order, tau_order) in ``orders``, each within policy.epsilon."""
    return _eval_series(zs, taus, policy, orders)


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

    Returns ``lo`` (shape (B,)) and the batch's shared length.  ``im_w`` is
    either B values or, stacked as (2, B), B intervals (low, high) of Im(w),
    each window then certified over its whole interval.  The terms of
    residue p's inner series theta(k*w + p*tau, k*tau) are a Gaussian in m
    centred at 1/2 - Im(w)/Im(tau) - p/k.  Each side of a window is guessed
    where that Gaussian falls to epsilon / 4 for residue 0 or k-1, certified
    for every residue at once (Im(k*w + p*tau) spans [z0, z1]) at the guess
    and one step either way, and set to the innermost certified step; a side
    no step certified is retried one step further out until it certifies.
    Padding to the shared length keeps every window certified: it only drops
    terms from the discarded tails.
    """
    im_t = k * im_tau
    z = k * im_w + np.array([0.0, k - 1.0])[:, None] * im_tau  # (z0, z1)
    half_eps = 0.5 * policy.epsilon
    centre = 0.5 - z / im_t
    reach = np.sqrt(centre * centre + (math.log(2.0) - math.log(half_eps)) / (math.pi * im_t))
    ends = (reach + _SIDE[:, None, None] * centre).max(axis=1)
    guess = np.ceil(ends).astype(int) - 1

    ok = _tail_bound_arrays(z[:, None], im_t, guess[:, None] + _CANDIDATES, orders) <= half_eps
    certified = ok.any(axis=1)
    outward = guess - 1 + np.where(certified, ok.argmax(axis=1), 3)
    while not certified.all() and np.abs(outward).max() <= policy.max_terms:
        certified |= _tail_bound_arrays(z, im_t, outward, orders) <= half_eps
        outward += ~certified
    width = outward.sum(axis=0) + 1
    length = max(int(width.max()), 1)
    outward[0] += (length - width) // 2
    outward[1] = length - 1 - outward[0]
    if not certified.all() or np.abs(outward).max() > policy.max_terms:
        raise TailNotConverged(
            f"tail bound did not reach {policy.epsilon} within max_terms={policy.max_terms}"
        )
    return -outward[0], length


CELLS = 8  # cells of Im(w) in [0, 1] with one certified window each; a power of two
# Orders every cell window is certified for besides the requested ones, so a
# value-only call and a gradient call at one point share their window.
_CELL_ORDERS = frozenset({(0, 0), (1, 0), (0, 1)})


@functools.lru_cache(maxsize=None)
def _cell_windows(k, policy, orders):
    """``_basis_window`` of the CELLS cells [j, j + 1] / CELLS of Im(w) at Im(tau) = 1.

    Each cell is passed as its stacked edges, so the certified interval of
    Im(k*w + p*tau) spans the whole cell for every residue p: ``lo`` (CELLS,)
    and the shared length hold for every point of the cell.  ``lo`` is
    read-only, since every caller shares it.
    """
    edges = np.arange(CELLS + 1) / CELLS
    lo, length = _basis_window(k, np.stack([edges[:-1], edges[1:]]), 1.0, policy, orders)
    lo.flags.writeable = False
    return lo, length


@functools.lru_cache(maxsize=None)
def _kernel_constants(k, length, count):
    """The kernel's shape-only arrays, read-only: the window offsets a and
    the residues p as float columns, and the moment weights a'^j, j < count."""
    a = np.arange(length, dtype=float)[:, None]
    weights = (a.T - 0.5 * (length - 1)) ** np.arange(count)[:, None]
    out = a, np.arange(k, dtype=float)[:, None], weights
    for x in out:
        x.flags.writeable = False
    return out


@np.errstate(over="ignore", invalid="ignore")
def _degree_basis_batch(k, ws, taus, policy, orders):
    """Degree-k basis values and derivatives on arrays of arguments.

    ``orders`` is a sequence of (w_order, tau_order) pairs.  Returns one
    array of shape (k,) + broadcast(ws, taus).shape per pair: that
    termwise derivative of every theta_k^p at (ws, taus), all from one
    (window, residue, point) array of series terms; see the module
    docstring.  Overflow leaves inf or NaN, without a warning, for callers to type.
    """
    ws, taus = np.asarray(ws, dtype=complex), np.asarray(taus, dtype=complex)
    if ws.shape != taus.shape:
        ws, taus = np.broadcast_arrays(ws, taus)
    shape = ws.shape
    w, tau = ws.ravel(), taus.ravel()
    if not (np.isfinite(w + tau).all() and (tau.imag > 0.0).all()):
        raise InvalidModulus("theta arguments must be finite with Im(tau) > 0")
    im_w = w.imag
    if (tau.imag == 1.0).all() and ((im_w >= 0.0) & (im_w <= 1.0)).all():
        # the fundamental domain's arguments: each point takes its cell's window
        key = tuple(sorted(_CELL_ORDERS.union(map(tuple, orders))))
        cell_lo, length = _cell_windows(k, policy, key)
        lo = cell_lo.take((im_w * CELLS).astype(int), mode="clip")  # Im(w) = 1: the last cell
    else:
        lo, length = _basis_window(k, im_w, tau.imag, policy, orders)
    # theta_k^p has period 1 in w and in tau; removing whole periods is exact
    w = w - w.real.round()
    tau = tau - tau.real.round()

    # n = k*m + p with m = lo + a, laid out (a, p, point); the exponent
    # pi*i*(2*n*w + tau*(k*m^2 + (2p - k)*m)) is f(m) + p*g(m)
    count = max(zo + 2 * to for zo, to in orders) + 1
    a, p, weights = _kernel_constants(k, length, count)
    m = lo + a
    f = (1j * math.pi * k) * m * (2.0 * w + tau * (m - 1.0))
    g = (2j * math.pi) * (w + tau * m)
    # each term is its modulus exp(Re f + p*Re g), one real exponential, times
    # its phase exp(i*Im f) * exp(i*Im g)^p, a running product of unit
    # factors over p that cannot overflow
    terms = np.empty((length, k, len(w)), dtype=complex)
    terms[:, 0] = np.exp(1j * f.imag)
    terms[:, 1:] = np.exp(1j * g.imag)[:, None, :]
    np.multiply.accumulate(terms, axis=1, out=terms)
    modulus = np.multiply(g.real[:, None, :], p)
    modulus += f.real[:, None, :]
    terms *= np.exp(modulus, out=modulus)

    # one contraction over a with the weights a'^j (a' = a - centre) gives
    # every residue's centred moments M_j = sum_a a'^j * term
    moments = weights @ terms.view(float).reshape(length, -1)
    moments = moments.view(complex).reshape(count, k, -1)

    # With mc = lo + centre and nc = k*mc + p, the weight n is nc + k*a' and
    # the tau-exponent k*m^2 + (2p - k)*m is c0 + c1*a' + k*a'^2, so a factor
    # n maps M_j to nc*M_j + k*M_{j+1} and a factor tau-exponent maps it to
    # c0*M_j + c1*M_{j+1} + k*M_{j+2}; order (zo, to) applies zo and to of them.
    mc = lo + 0.5 * (length - 1)
    nc = k * mc + p
    if any(to for _, to in orders):
        c0 = mc * (nc + p - k)
        c1 = 2.0 * nc - k
    out = []
    for zo, to in orders:
        seq = moments[:zo + 2 * to + 1]
        for _ in range(to):
            seq = c0 * seq[:-2] + c1 * seq[1:-1] + k * seq[2:]
        for _ in range(zo):
            seq = nc * seq[:-1] + k * seq[1:]
        x = seq[0] if not (zo or to) else (2j * math.pi) ** zo * (1j * math.pi) ** to * seq[0]
        out.append(x.reshape((k,) + shape))
    return tuple(out)


def theta_degree_k(
    idx: ThetaBasisIndex,
    arg: ThetaArgument,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Degree-k basis element theta_k^p at (z, tau).

    Satisfies theta_k^p(z+1) = theta_k^p(z) and
    theta_k^p(z+tau) = exp(-2*pi*i*k*z) * theta_k^p(z).
    """
    (vals,) = _degree_basis_batch(idx.k, arg.z, arg.tau, policy, ((0, 0),))
    return complex(vals[idx.p])


def theta_degree_k_deriv(
    idx: ThetaBasisIndex,
    arg: ThetaArgument,
    policy: TruncationPolicy = DEFAULT_POLICY,
):
    """Value, d/dz and d/dtau of theta_k^p at (z, tau) in one series pass."""
    out = _degree_basis_batch(idx.k, arg.z, arg.tau, policy, ((0, 0), (1, 0), (0, 1)))
    return tuple(complex(x[idx.p]) for x in out)

