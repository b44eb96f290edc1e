"""Jacobi theta series with certified truncation, from one summation engine.

The classical series used throughout the package is

    theta(z, tau) = sum_{n in Z} exp(2*pi*i*n*z + pi*i*n*(n-1)*tau),

which converges for Im(tau) > 0.  The degree-k basis element with residue
p is

    theta_k^p(w, tau) = exp(2*pi*i*p*w) * theta(k*w + p*tau, k*tau)
        = sum_{n = p mod k} exp(2*pi*i*n*w + pi*i*tau*((n^2 - p^2)/k - (n - p))),

where the term n = p + m*k is the term m of theta(k*w + p*tau, k*tau).  The
classical series is the degree-one element, theta = theta_1^0, so
``_degree_basis_batch`` is the only summation: ``theta_degree_k_batch``
publishes it, and ``theta_batch``, which ``sections.shift_product`` calls,
is its k = 1 view.

The kernel evaluates every residue at once from the n-sum.  Each point b
keeps the m-window [lo_b, lo_b + L), the same for all its residues and
placed per point around the Gaussian peak of the term magnitudes
exp(-2*pi*m*Im(k*w + p*tau) - pi*m*(m-1)*k*Im(tau)); the batch shares L.
The indices n = k*lo_b + j, 0 <= j < k*L, then form one (window, residue,
point) array of terms.  Term (m, p) has the exponent f(m) + p*g(m), with
f = pi*i*k*m*(2w + tau*(m - 1)) and g = 2*pi*i*(w + tau*m); the block's
size picks how its exponentials are taken.

A block of fewer than FEW_POINTS points takes each term's exponent as
(2*pi*i*w)*n + (pi*i*tau)*E, which is f + p*g regrouped, from two integer
tables of its windows: n = k*m + p and E = (n + p - k)*m = k*m*(m - 1) +
2*p*m, whole numbers below 2*k*MAX_TERMS^2 in size and so exact in
float64; then one complex exponential per term, exp(Re) * (cos Im, sin Im),
whose modulus overflows only where its term does.  Where each requested
order is the value, d/dw or d/dtau, as the maps' always are, the block
returns them as one contraction of its terms with their exact weights 1,
2*pi*i*n and pi*i*E: no moments and no moment steps.  ``_block_constants``
builds the tables, the weights, m and the moment-step coefficients (below)
from a block's lo alone, and every batch block calls it on its own windows.
A single-point map's reduced point enters such a block directly
(``sections._point_block``) and reads those constants from
``_cell_constants``, a cache built once per (k, policy, orders, cells), so
a warm block does only the work that depends on w and tau.  Against
30-digit sums at Im(tau) down to 1e-4, where the windows are widest and
E*tau largest, each value stays within u * sum |t_n| (|2*pi*n*w| +
|pi*E*tau| + 1), the rounding of its terms' exponents
(tests/test_kernel_oracle.py); timings are in BENCH_35.json and BENCH_36.json.

A block of at least FEW_POINTS points splits each term into its modulus
exp(Re f + p*Re g), from one real exponential, and its phase
exp(i*Im f) * exp(i*Im g)^p, a product of unit factors: no product can
overflow, and every modulus has the exponent of the direct complex
exponential.  A unit exponential is the complex exponential of its angle
with the real part 0: one sincos, whose cos and sin are those of np.cos and
np.sin bit for bit with glibc, at about 0.6 times their cost, but
unvectorised: tens of times the cost of a real exp or a complex product an
entry (CHANGES.md has the timings).  So the block chains its unit factors
along each window, and forms no complex f or g: its moduli take the real products
Re f = -pi*k*m*(2 Im w + Im tau*(m - 1)) and Re g = -2*pi*(Im w + Im tau*m),
the bits of the complex products' real parts.  Im f = pi*k*m*(2 Re w + Re tau*(m - 1)) is
quadratic in m and Im g = 2*pi*(Re w + Re tau*m) linear, so along the
window both factors are progressions.  Each point takes five unit
exponentials at the window's centre mc = lo + L // 2: exp(i*Im f(mc)); its
step to mc + 1, exp(2*pi*i*k*(Re w + Re tau*mc)); that step's growth per
offset, exp(2*pi*i*k*Re tau); exp(i*Im g(mc)); and exp(2*pi*i*Re tau).
Complex products then fill the window outward both ways, each row the one
before times the step (its conjugate going down), the step times the
growth (``_progression``).  Where Re(tau) = 0, as on every base factor,
there is no growth and Im g = 2*pi*Re(w) at every m: three exponentials
per point.  The seeds sit at the centre, so no chain is longer than L / 2
products, and each is the exponential of its own angle, never a power of
another seed.  Against 30-digit sums (tests/test_kernel_oracle.py) seeding
at lo instead left values up to 8.3e-13 of a row off at k = 16 (1.1e-13
from the centre, where rounding the exponents alone leaves 1.3e-13), and
the growth as the k-th power of exp(2*pi*i*Re tau) raised the batch's
d/dtau error at k = 16 from 1.0e-12 to 7.0e-12 of a row.  Then the residue
powers fill residues [s, 2s) as residues [0, s) times exp(i*Im g)^s,
s = 1, 2, 4, ..., one product per level over contiguous slabs whose inner loop
runs over the points, with exp(i*Im g)^s from repeated squaring.  At k = 1
there is only p = 0: g is never formed, and the modulus is exp(Re f).

Every other block, chained or asked for a second order, takes one
contraction over the window axis for each residue's centred moments, from
which every requested termwise derivative follows.  The certificate
holds per requested (z_order, tau_order): for every point and residue p,
the discarded terms of theta(k*w + p*tau, k*tau), each multiplied by its
termwise derivative weight, sum to at most epsilon / 2 on each side of the
window.  For k = 1 that bounds each returned output's truncation error by
epsilon.

The windows of the whole batch are found first (below); then every batch,
of any size, fills its output block by block, building the terms, their
moments and the derivative outputs in near-equal blocks of at most BLOCK
points; a batch of at most BLOCK points is one block.  A batch's k*L*B
complex terms outgrow a 2 MB L2 cache at a few thousand points, and every
later pass over them then runs from memory; blocks of 512 to 1024 points
were about the fastest at each degree and batch size measured, up to twice
as fast as no blocks (the timings are in BENCH_36.json).

Every point keeps its window's lo and the batch its length L, so blocking
moves no term, and the elementwise steps give the same bits in any block.
So does the moment contraction: blocks are cut at multiples of ALIGN
points, so every block but the last spans a multiple of 16 real columns,
and the BLAS kernel's column tail, which may sum in another order, falls
where the whole batch's does (a 1-point block would take another BLAS
path).  Each block picks its phase and residue-power paths, which agree
only to roundoff, from its own size; but a batch of more than BLOCK points
cuts no block below BLOCK / 2 - ALIGN = 504 >= FEW_POINTS points, so each
takes the whole batch's paths.  A block with Re(tau) = 0 throughout skips
the growth seeds, which are exactly 1 at such a point in any other block.

Arguments reduced to the fundamental domain have Im(tau) = 1 and Im(w) in
[0, 1); the arguments ``sections.shift_product`` shifts and the deck group
moves have Im(tau) = 1 and Im(w) some units outside it.  So the windows
follow two rules: an Im(tau) = 1 batch reads the window tables of the units
it touches, and every other batch searches per point (``_basis_window``).
Each unit [j, j + 1) of Im(w) is cut into CELLS cells [i, i + 1] / CELLS,
and one ``_basis_window`` call per unit, each cell passed as its two edges,
gives every cell a window certified over the whole cell and the unit one
length.  A point's cell is floor(CELLS * Im(w)) (``_cells``): a point on an
edge takes the cell above it, and with CELLS a power of two the product is
exact; a binary search of the edges took over ten times as long as the
product (CHANGES.md).  A batch that touches one unit takes that unit's
table as it is: each point takes lo from its cell and the batch takes the unit's
length.  A batch that touches several takes L, the largest length among its
units made odd, and a point of a unit of length l takes the window of length
L that holds its cell's window and is nearest to centred on the point's mean
residue peak 1/2 - Im(w) - (k - 1) / 2k: the padding only drops terms from
the certified tails, so every window keeps its certificate.  The odd L and
the centring put the moments' centre lo + (L - 1) / 2 on the integer
nearest the peak, which keeps the moment step of the tau-derivatives
(above) from magnifying roundoff: against a 30-digit sum at 64 points moved
by the generators and their inverses (Im(w) in [-1, 2)), k in {1, 2, 3, 5,
8, 16}, the worst d/dtau, d2/dw dtau and d2/dtau2 errors are 2.1e-13,
1.6e-13 and 1.2e-12 of a row's largest entry, against 1.5e-13, 4.2e-13 and
1.1e-12 with the per-point search; an even L left 6.9e-12 in d2/dtau2 at
k = 16.  The lengths are per unit because the units off the domain need
longer windows (7 against the domain unit's 4 at k = 16).  Each unit's
table is built once per (k, policy, orders), on first use by a batch that
touches it, and is certified for the requested orders together with the
value and both first derivatives, so value-only and gradient calls at one
point sum the same terms.  Once built, the tables give a batch its windows
in well under a tenth of the per-point search's time (CHANGES.md).

No window index may pass MAX_TERMS.  The terms of an Im(tau) = 1 argument
peak within a unit of -Im(w), so a batch with some |Im(w)| > MAX_TERMS
raises TailNotConverged before any table is built, as the per-point search
does there; this also bounds the units a batch touches to 2 * MAX_TERMS + 1.
The certificate is absolute, so the windows widen with the values: a unit
table's own search meets the cap and raises from |Im(w)| of about 255-256
on, at every k, where the values have long overflowed (up to one unit
nearer 0 than the per-point search, which certifies points, not cells).
The tables of the units [-1, 3), where ``ktheta check`` evaluates, keep
|index| <= 20 over k <= 64, epsilon down to 1e-323 and orders up to (20,
20); the per-point search raises TailNotConverged where its windows meet
the cap (at Im(tau) = 1e-6, say).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModulus, TailNotConverged

TWO_PI = 2.0 * math.pi


# The hard cap on |m| of a window's indices; see the module docstring.
MAX_TERMS = 512


@dataclass(frozen=True)
class TruncationPolicy:
    """Target absolute tail bound of the truncated series."""

    epsilon: float = 1e-14

    def __post_init__(self):
        # the window search takes log(epsilon / 2)
        if not (math.isfinite(self.epsilon) and 0.5 * self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive with a nonzero half, "
                             f"got {self.epsilon}")


DEFAULT_POLICY = TruncationPolicy()


def check_degree(k) -> None:
    """Raise ValueError unless the degree ``k`` is an int (not a bool) of at least 1."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"degree k must be an int of at least 1, got {k!r}")


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


def _check_orders(orders) -> tuple:
    """``orders`` as a tuple of (z_order, tau_order) tuples of ints, if it is a
    nonempty sequence of pairs of nonnegative ints; otherwise ValueError."""
    orders = tuple(orders)
    if not orders:
        raise ValueError("orders must hold at least one (z_order, tau_order) pair")
    for order in orders:
        if not (isinstance(order, (tuple, list, np.ndarray)) and len(order) == 2
                and all(isinstance(n, (int, np.integer)) and n >= 0 for n in order)):
            raise ValueError(f"derivative order {order!r} is not a pair of nonnegative ints")
    return tuple((int(zo), int(to)) for zo, to in orders)


def theta_batch(zs, taus, orders=((0, 0),), policy: TruncationPolicy = DEFAULT_POLICY):
    """Termwise derivatives of theta on arrays of arguments, in one series
    evaluation: one array of shape broadcast(zs, taus).shape per (z_order,
    tau_order) in ``orders``, each within policy.epsilon; an output that
    overflows comes back inf or NaN, without a warning (far off the domain)."""
    return _eval_series(zs, taus, policy, _check_orders(orders))


def theta_degree_k_batch(k, ws, taus, orders=((0, 0),), policy: TruncationPolicy = DEFAULT_POLICY):
    """Termwise derivatives of every theta_k^p on arrays of arguments, in one
    series evaluation, truncated as the module docstring certifies: shape
    (len(orders), k) + broadcast(ws, taus).shape, per (w_order, tau_order)
    in ``orders``, with the residue p on the second axis.  An output that
    overflows comes back inf or NaN, without a warning, as in the kernel."""
    check_degree(k)
    return _degree_basis_batch(k, ws, taus, policy, _check_orders(orders))


def _basis_window(k, im_w, im_tau, policy, orders):
    """Per-point m-windows [lo, lo + length) of the degree-k kernel.

    Returns ``lo`` (shape (B,)) and the batch's shared length.  ``im_w`` is
    either B values or, stacked as (2, B), B intervals (low, high) of Im(w),
    each window then certified over its whole interval.  The terms of
    residue p's inner series theta(k*w + p*tau, k*tau) are a Gaussian in m
    centred at 1/2 - Im(w)/Im(tau) - p/k.  Each side of a window is guessed
    where that Gaussian falls to epsilon / 4 for residue 0 or k-1, and set
    to the first step, from one inside the guess outward, certified for
    every residue at once (Im(k*w + p*tau) spans [z0, z1]).  Padding to the
    shared length keeps every window certified: it only drops terms from
    the discarded tails.
    """
    im_t = k * im_tau
    z = k * im_w + np.array([0.0, k - 1.0])[:, None] * im_tau  # (z0, z1)
    half_eps = 0.5 * policy.epsilon
    centre = 0.5 - z / im_t
    reach = np.sqrt(centre * centre + (math.log(2.0) - math.log(half_eps)) / (math.pi * im_t))
    ends = (reach + _SIDE[:, None, None] * centre).max(axis=1)
    outward = np.ceil(ends).astype(int) - 2  # one step inside the guess
    certified = np.zeros(outward.shape, dtype=bool)
    while not certified.all() and np.abs(outward).max() <= MAX_TERMS:
        certified |= _tail_bound_arrays(z, im_t, outward, orders) <= half_eps
        outward += ~certified
    width = outward.sum(axis=0) + 1
    length = max(int(width.max()), 1)
    outward[0] += (length - width) // 2
    outward[1] = length - 1 - outward[0]
    if not certified.all() or np.abs(outward).max() > MAX_TERMS:
        raise TailNotConverged(
            f"tail bound did not reach {policy.epsilon} within |m| <= MAX_TERMS = {MAX_TERMS}"
        )
    return -outward[0], length


CELLS = 8  # cells per unit of Im(w), each with one certified window; a power of two
# Orders every cell window is certified for besides the requested ones, so a
# value-only call and a gradient call at one point share their window.
_CELL_ORDERS = frozenset({(0, 0), (1, 0), (0, 1)})


def _cells(im_w):
    """The cell [i, i + 1] / CELLS of each Im(w) as the integer i, a point on
    an edge in the cell above it: floor(CELLS * Im(w)), exact since CELLS is
    a power of two."""
    return np.floor(im_w * CELLS).astype(int)


@functools.lru_cache(maxsize=None)
def _cell_windows(k, policy, orders, unit):
    """``_basis_window`` of the CELLS cells [i, i + 1] / CELLS of the unit
    [unit, unit + 1) of Im(w), at Im(tau) = 1, for ``orders`` and _CELL_ORDERS.

    Each cell is passed as its stacked edges, so the certified interval of
    Im(k*w + p*tau) spans the whole cell for every residue p: ``lo`` (CELLS,)
    and the unit's length hold for every point of the cell.  ``lo`` is
    read-only, since every caller shares it.
    """
    edges = (unit * CELLS + np.arange(CELLS + 1)) / CELLS
    orders = tuple(sorted(_CELL_ORDERS.union(orders)))
    lo, length = _basis_window(k, np.stack([edges[:-1], edges[1:]]), 1.0, policy, orders)
    lo.flags.writeable = False
    return lo, length


@functools.lru_cache(maxsize=None)
def _cell_constants(k, policy, orders, cells):
    """``_block_constants`` of a block whose points lie in the domain unit's
    cells ``cells`` (a tuple, one cell per point), on their ``_cell_windows``
    at Im(tau) = 1, all read-only: a single-point block's constants, built
    once (``sections._point_block``)."""
    lo, length = _cell_windows(k, policy, orders, 0)
    consts = _block_constants(k, lo.take(cells), length, orders)
    for x in (consts[1], consts[3]) + consts[2] + (consts[4] or ()):
        if x is not None:
            x.flags.writeable = False
    return consts


def _unit_windows(k, im_w, policy, orders):
    """The windows of an Im(tau) = 1 batch from the cell tables of the units
    it touches (see the module docstring): ``lo`` (B,) and the shared length.
    Only the touched units' tables are built."""
    low, high = (im_w.min(), im_w.max()) if im_w.size else (0.0, 0.0)
    if max(-low, high) > MAX_TERMS:
        raise TailNotConverged(f"|Im(w)| = {max(-low, high)} passes MAX_TERMS = {MAX_TERMS}")
    first = math.floor(low)
    cell = _cells(im_w) - first * CELLS
    if first == math.floor(high):  # one unit: each point takes its cell's window as it is
        lo, length = _cell_windows(k, policy, orders, first)
        return lo.take(cell), length
    unit = cell // CELLS
    touched = np.bincount(unit)
    cell_lo = np.zeros((len(touched), CELLS), dtype=int)
    unit_length = np.zeros(len(touched), dtype=int)
    for u in np.flatnonzero(touched):
        cell_lo[u], unit_length[u] = _cell_windows(k, policy, orders, first + int(u))
    lengths = unit_length.take(unit)
    length = int(lengths.max()) | 1  # odd: the moments' centre lo + (length - 1) / 2 is an integer
    lo = cell_lo.take(cell)
    # centred on the mean residue peak, as far as the cell's window allows
    centred = np.rint((0.5 - 0.5 * (k - 1) / k - 0.5 * (length - 1)) - im_w).astype(int)
    return np.clip(centred, lo + lengths - length, lo), length


_INVALID = "theta arguments must be finite with Im(tau) > 0"


def _kernel_window(k, im_w, im_tau, policy, orders):
    """The kernel's window of a batch: ``lo`` (B,) and the shared length.

    An Im(tau) = 1 batch, or an empty one, reads its units' cell tables
    (``_unit_windows``); every other batch takes the per-point
    ``_basis_window``, which needs Im(tau) > 0.
    """
    if (im_tau == 1.0).all():
        return _unit_windows(k, im_w, policy, tuple(orders))
    if not (im_tau > 0.0).all():
        raise InvalidModulus(_INVALID)
    return _basis_window(k, im_w, im_tau, policy, orders)


# A block of fewer points takes one complex exponential per term, its exponent
# from the integer tables of _block_constants; a larger one chains its unit
# factors from per-point seeds at each window's centre and doubles its residue
# powers over contiguous slabs (module docstring; the paths cross at about 24
# points for k = 16 and past 32 for k <= 8).
FEW_POINTS = 32

# Points per block of the kernel's term arrays, and the multiple of points
# at which blocks are cut; see the module docstring.  BLOCK is a multiple of
# ALIGN, so no block passes it, and BLOCK / 2 - ALIGN >= FEW_POINTS.
BLOCK = 1024
ALIGN = 8


@functools.lru_cache(maxsize=None)
def _kernel_constants(k, length, orders):
    """The kernel's constants for a block's shape and orders: the window
    offsets a, the residues p and p - k as float columns and the moment
    powers a'^j, j < count, with a' = a - (length - 1) / 2, all read-only;
    then the moment count the orders need."""
    count = max(zo + 2 * to for zo, to in orders) + 1
    a = np.arange(length, dtype=float)[:, None]
    p = np.arange(k, dtype=float)[:, None]
    out = a, p, p - k, (a.T - 0.5 * (length - 1)) ** np.arange(count)[:, None]
    for x in out:
        x.flags.writeable = False
    return out + (count,)


def _block_constants(k, lo, length, orders):
    """What a block's terms and outputs take from its windows [lo, lo +
    length) alone: the length; m = lo + a (length, B); for a block of fewer than
    FEW_POINTS points the exponent tables n = k*m + p and E = (n + p - k)*m
    (length, k, B), and for one of first orders only their weights 1, 2*pi*i*n,
    pi*i*E, conjugated (len(orders), length, k, B); for other orders past the
    value, the moment-step coefficients (nc, c0, c1) (k, B); None where absent."""
    a, p, p_minus_k, _, count = _kernel_constants(k, length, tuple(orders))
    m = lo + a
    tables = weights = coefs = None
    if len(lo) < FEW_POINTS:  # whole numbers below 2*k*MAX_TERMS**2: exact
        n = k * m[:, None] + p
        tables = n, (n + p_minus_k) * m[:, None]
        if all(zo + to <= 1 for zo, to in orders):  # conjugated: np.vecdot conjugates them back
            weights = np.stack([tables[to] * (-1j * math.pi * (1 + zo)) if zo or to
                                else np.ones(n.shape, dtype=complex) for zo, to in orders])
    if count > 1 and weights is None:  # small multiples of 1/4: exact (see the moment steps)
        mc = lo + 0.5 * (length - 1)
        nc = k * mc + p
        coefs = nc, mc * (nc + p_minus_k), 2.0 * nc - k
    return length, m, tables, weights, coefs


@np.errstate(over="ignore", invalid="ignore")
def _degree_basis_batch(k, ws, taus, policy, orders):
    """Degree-k basis values and derivatives on arrays of arguments.

    ``orders`` is a sequence of (w_order, tau_order) pairs.  Returns one
    array of shape (len(orders), k) + broadcast(ws, taus).shape, per pair
    that termwise derivative of every theta_k^p at (ws, taus), all from one
    (window, residue, point) array of series terms per block of at most
    BLOCK points, each of which takes the whole batch's path (see the
    module docstring): below FEW_POINTS one complex exponential per term,
    from FEW_POINTS on a real modulus per term times unit factors
    chained from five seeds per point (three where Re(tau) = 0) and
    residue powers by doubling.  Overflow leaves inf or NaN, without a
    warning, for callers to type.
    """
    ws, taus = np.asarray(ws, dtype=complex), np.asarray(taus, dtype=complex)
    if ws.shape != taus.shape:
        ws, taus = np.broadcast_arrays(ws, taus)
    w, tau = ws.ravel(), taus.ravel()
    if not np.isfinite(w + tau).all():
        raise InvalidModulus(_INVALID)
    lo, length = _kernel_window(k, w.imag, tau.imag, policy, orders)
    # theta_k^p has period 1 in w and in tau; removing whole periods is exact
    w, tau = w - w.real.round(), tau - tau.real.round()
    # near-equal blocks cut at multiples of ALIGN points; at most BLOCK points make one
    blocks, groups = -(-len(w) // BLOCK), -(-len(w) // ALIGN)
    edges = [ALIGN * (b * groups // blocks) for b in range(blocks)] + [len(w)]
    out = np.empty((len(orders), k, len(w)), dtype=complex)
    for block in map(slice, edges[:-1], edges[1:]):
        consts = _block_constants(k, lo[block], length, orders)
        _series_block(k, w[block], tau[block], consts, orders, out[:, :, block])
    return out.reshape((len(orders), k) + ws.shape)


def _progression(out, seed, ratio, growth=None):
    """Fill ``out`` (L, B) outward from its centre row L // 2, which is
    ``seed``: going up, each row is the one below times a ratio that starts
    at ``ratio``; going down, each is the one above times a ratio that
    starts at conj(ratio) * growth; and each ratio is multiplied by
    ``growth``, if given, after every row.  For unit factors that is
    exp(i*phi) on a window where phi steps by the ratio's angle from the
    centre up and the step itself by the growth's angle."""
    centre = len(out) // 2
    out[centre] = seed
    up, down = ratio, ratio.conj()
    for a in range(centre + 1, len(out)):
        if a > centre + 1 and growth is not None:
            up = up * growth
        np.multiply(out[a - 1], up, out=out[a])
    for a in range(centre - 1, -1, -1):
        if growth is not None:
            down = down * growth
        np.multiply(out[a + 1], down, out=out[a])
    return out


def _series_block(k, w, tau, consts, orders, out):
    """``_degree_basis_batch`` on one block of reduced arguments with their
    windows' ``_block_constants``, written into the caller's ``out``
    (len(orders), k, len(w)), which it returns."""
    length, m, tables, weights, coefs = consts
    _, p, _, powers, count = _kernel_constants(k, length, tuple(orders))
    terms = np.empty((length, k, len(w)), dtype=complex)
    if tables is not None:  # each term's exponent 2*pi*i*n*w + pi*i*E*tau, one complex exponential
        np.multiply(tables[0], (2j * math.pi) * w, out=terms)
        terms += tables[1] * ((1j * math.pi) * tau)
        np.exp(terms, out=terms)
        if weights is not None:  # first orders: each one contraction with its exact weights
            return np.vecdot(weights, terms, axes=[(1,), (0,), ()], out=out)
    else:  # modulus exp(Re f + p*Re g) times phase exp(i*Im f) * exp(i*Im g)^p, unit factors
        # chained from the window's centre; the moduli take real products only
        pik_m = (math.pi * k) * m
        re_f = -pik_m * (2.0 * w.imag + tau.imag * (m - 1.0))
        if k == 1:  # p = 0 only: g is not needed
            modulus = np.exp(re_f)[:, None, :]
        else:
            modulus = np.multiply((-TWO_PI * (w.imag + tau.imag * m))[:, None, :], p)
            modulus += re_f[:, None, :]
            np.exp(modulus, out=modulus)
        # progressions from seeds at the centre; see the module docstring
        moving = tau.real.any()  # else no growth, and exp(i*Im g) is the same at every m
        mc = m[length // 2]
        inner = w.real + tau.real * mc  # Im g(mc) / (2*pi)
        # exp(i*Im f(mc)), its step and, for k > 1, exp(i*Im g(mc)); if moving,
        # the step's growth and, for k > 1, the step of exp(i*Im g)
        angles = [pik_m[length // 2] * (2.0 * w.real + tau.real * (mc - 1.0)),
                  (TWO_PI * k) * inner]
        if k > 1:
            angles.append(TWO_PI * inner)
        if moving:
            angles.append((TWO_PI * k) * tau.real)
            if k > 1:
                angles.append(TWO_PI * tau.real)
        seeds = np.empty((len(angles), len(w)), dtype=complex)
        seeds.real = 0.0
        seeds.imag = angles
        np.exp(seeds, out=seeds)
        growth = seeds[3 if k > 1 else 2] if moving else None
        _progression(terms[:, 0], seeds[0], seeds[1], growth)
        if k > 1:  # residues [s, 2s) are residues [0, s) times exp(i*Im g)^s
            step = (_progression(np.empty((length, len(w)), dtype=complex), seeds[2], seeds[4])
                    if moving else seeds[2:3])  # else one row for every m; seeds is read no more
            s = 1
            while s < k:
                np.multiply(terms[:, :min(s, k - s)], step[:, None, :], out=terms[:, s:2 * s])
                s *= 2
                if s < k:
                    step *= step
        terms *= modulus

    # one contraction over a with the powers a'^j (a' = a - centre) gives
    # every residue's centred moments M_j = sum_a a'^j * term
    moments = powers @ terms.view(float).reshape(length, -1)
    moments = moments.view(complex).reshape(count, k, -1)

    # With mc = lo + centre and nc = k*mc + p, the weight n is nc + k*a' and
    # the tau-exponent k*m^2 + (2p - k)*m is c0 + c1*a' + k*a'^2, so a factor
    # n maps M_j to nc*M_j + k*M_{j+1} and a factor tau-exponent maps it to
    # c0*M_j + c1*M_{j+1} + k*M_{j+2}; order (zo, to) applies to of the
    # second, then zo of the first, each step a new row.  With d = nc + p - k,
    # c0 = mc*d and c1 = 2*nc - k = k*mc + d; all are small multiples of
    # 1/4, so exact.
    if count > 1:
        nc, c0, c1 = coefs
    for x, (zo, to) in zip(out, orders):
        seq = moments[:zo + 2 * to + 1]
        for _ in range(to):
            row = seq[:-2] * c0
            row += c1 * seq[1:-1]
            row += k * seq[2:]
            seq = row
        for _ in range(zo):
            row = seq[:-1] * nc
            row += k * seq[1:]
            seq = row
        if zo or to:
            np.multiply((2j * math.pi) ** zo * (1j * math.pi) ** to, seq[0], out=x)
        else:
            x[...] = seq[0]
    return out
