"""The lattice acting on R^4, its multiplicators, and the invariant 2-form.

The deck group is generated by

    a: (x, y, z, t) -> (x+1, y, z+y, t)
    b: (x, y, z, t) -> (x, y+1, z, t)
    c: (x, y, z, t) -> (x, y, z+1, t)
    d: (x, y, z, t) -> (x, y, z, t+1)

with the single relation a*b = c*b*a (c central).  Words are stored in
the normal form a^m b^n c^p d^q, so all group arithmetic is exact
integer arithmetic.

A word's exponents may also be equal-shape integer arrays, a batch of
words: ``compose``, ``inverse``, ``act_on_array``, ``multiplicator_exponent``
and ``cocycle_residual`` are plain arithmetic on the exponents, so they
broadcast them against the leading axes of (..., 4) point arrays, and one
call covers a whole sample of words and points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class KTPoint:
    """A point (x, y, z, t) of R^4 covering the quotient manifold."""

    x: float
    y: float
    z: float
    t: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z, self.t))):
            raise ValueError("coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.t], dtype=float)

    @staticmethod
    def from_array(arr) -> "KTPoint":
        x, y, z, t = (float(v) for v in arr)
        return KTPoint(x, y, z, t)


@dataclass(frozen=True)
class GroupWord:
    """Normal-form lattice element a^m b^n c^p d^q.

    The exponents are ints, or equal-shape integer arrays for a batch of
    words (see the module docstring); neither is checked, so that building
    a word stays a plain tuple construction.
    """

    m: int
    n: int
    p: int
    q: int


IDENTITY = GroupWord(0, 0, 0, 0)
GEN_A = GroupWord(1, 0, 0, 0)
GEN_B = GroupWord(0, 1, 0, 0)
GEN_C = GroupWord(0, 0, 1, 0)
GEN_D = GroupWord(0, 0, 0, 1)
GENERATORS = {"a": GEN_A, "b": GEN_B, "c": GEN_C, "d": GEN_D}


def act(w: GroupWord, u: KTPoint) -> KTPoint:
    """Apply the word to a point: (x+m, y+n, z+p+m*(y+n), t+q)."""
    return KTPoint(u.x + w.m, u.y + w.n, u.z + w.p + w.m * (u.y + w.n), u.t + w.q)


def act_on_array(w: GroupWord, pts: np.ndarray) -> np.ndarray:
    """Vectorized ``act`` on an (..., 4) array of points; array exponents
    broadcast against the leading axes."""
    x, y, z, t = np.moveaxis(np.asarray(pts, dtype=float), -1, 0)
    y = y + w.n
    return np.stack(np.broadcast_arrays(x + w.m, y, z + (w.p + w.m * y), t + w.q), axis=-1)


def compose(w1: GroupWord, w2: GroupWord) -> GroupWord:
    """Normal form of w1*w2; act(compose(w1, w2), u) == act(w1, act(w2, u))."""
    return GroupWord(w1.m + w2.m, w1.n + w2.n, w1.p + w2.p - w1.n * w2.m, w1.q + w2.q)


def inverse(w: GroupWord) -> GroupWord:
    return GroupWord(-w.m, -w.n, -w.p - w.n * w.m, -w.q)


def group_law_residual(w1: GroupWord, w2: GroupWord, w3: GroupWord) -> int:
    """Largest exponent defect of (w1 w2) w3 = w1 (w2 w3) and of
    w w^-1 = w^-1 w = 1 for each of the words, over array exponents too:
    exact integer arithmetic, so 0 wherever the group law holds."""
    laws = [(compose(compose(w1, w2), w3), compose(w1, compose(w2, w3)))]
    for w in (w1, w2, w3):
        laws += [(compose(w, inverse(w)), IDENTITY), (compose(inverse(w), w), IDENTITY)]
    return int(max(np.max(np.abs(np.subtract(getattr(a, e), getattr(b, e))))
                   for a, b in laws for e in "mnpq"))


def _wrap_unit(v: float) -> tuple[float, int]:
    """Fractional part in [0, 1) and the integer removed.

    ``v - floor(v)`` can round to exactly 1.0 for tiny negative ``v``; the
    correction keeps the representative strictly inside the domain.
    """
    n = math.floor(v)
    f = v - n
    if f >= 1.0:
        n += 1
        f -= 1.0
    return f, n


def reduce_point(u: KTPoint) -> tuple[KTPoint, GroupWord]:
    """Fundamental-domain representative u0 in [0,1)^4 and w with act(w, u0) = u.

    The product m*y of z - m*y is split exactly, in integers, into its whole
    and fractional parts, so u0 stays accurate and finite for every finite u.
    """
    coords, exponents = _reduce(u)
    return KTPoint(*coords), GroupWord(*exponents)


def _reduce(u: KTPoint) -> tuple[tuple, tuple]:
    """``reduce_point`` as tuples: the coordinates of u0 and the exponents of w."""
    x0, m = _wrap_unit(u.x)
    y0, n = _wrap_unit(u.y)
    num, den = float(u.y).as_integer_ratio()
    whole, part = divmod(m * num, den)  # m*y = whole + part/den, 0 <= part < den
    z0, p = _wrap_unit(u.z - part / den)
    t0, q = _wrap_unit(u.t)
    return (x0, y0, z0, t0), (m, n, p - whole, q)


def multiplicator_exponent(w: GroupWord, pts: np.ndarray) -> np.ndarray:
    """f_w with e_w = exp(-2*pi*i*f_w) at an (..., 4) array of points, shape (...,).

    Array exponents broadcast against the points' leading axes.

    Closed form of the cocycle recursion e_{gw'}(u) = e_g(w'.u) * e_{w'}(u)
    over the normal form a^m b^n c^p d^q, from e_a(u) = exp(-2*pi*i*(z+ix)),
    e_d(u) = exp(-2*pi*i*(y+it)) and e_b = e_c = 1; integer real parts,
    which do not change e_w, are dropped.
    """
    pts = np.asarray(pts, dtype=float)
    # a single point unpacks to Python floats, whose arithmetic is much cheaper
    x, y, z, t = pts.tolist() if pts.ndim == 1 else np.moveaxis(pts, -1, 0)
    m, q = w.m, w.q
    return (m * (z + 1j * x) + (m * (m - 1) / 2.0) * (y + 1j)
            + q * (y + 1j * t) + 1j * (q * (q - 1) / 2.0))


def multiplicator_batch(w: GroupWord, pts: np.ndarray) -> np.ndarray:
    """Automorphy factor e_w = exp(-2*pi*i*f_w) at an (..., 4) array of points, (...,)."""
    return np.exp(-TWO_PI_I * multiplicator_exponent(w, pts))


def cocycle_residual(w1: GroupWord, w2: GroupWord, pts: np.ndarray) -> np.ndarray:
    """Relative defect of e_{w1}(w2.u) * e_{w2}(u) = e_{w1 w2}(u) at (..., 4) points, (...,)."""
    pts = np.asarray(pts, dtype=float)
    lhs = multiplicator_batch(w1, act_on_array(w2, pts)) * multiplicator_batch(w2, pts)
    rhs = multiplicator_batch(compose(w1, w2), pts)
    return np.abs(lhs - rhs) / np.abs(rhs)


@dataclass(frozen=True)
class TwoFormAtPoint:
    """A 2-form at a point, stored as an exactly antisymmetric 4x4 matrix.

    Rows and columns are indexed by the coordinates (x, y, z, t).
    """

    point: KTPoint
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (4, 4):
            raise ValueError("matrix must be 4x4")
        if not (mat == -mat.T).all():
            raise ValueError("matrix must be exactly antisymmetric")
        object.__setattr__(self, "matrix", mat)


def omega_kt_matrix(pts: np.ndarray) -> np.ndarray:
    """Coefficients of (dz - x dy) ^ dx + dy ^ dt at (..., 4) points, (..., 4, 4)."""
    pts = np.asarray(pts, dtype=float)
    upper = np.zeros(pts.shape[:-1] + (4, 4))
    upper[..., 0, 1] = pts[..., 0]
    upper[..., 0, 2] = -1.0
    upper[..., 1, 3] = 1.0
    return upper - np.swapaxes(upper, -1, -2)


# The exponents m, n, p, q (rows) of the 625 words a^m b^n c^p d^q with
# every exponent in [-2, 2] (columns), read-only.
_NEAR_WORDS = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * 4, indexing="ij")).reshape(4, -1)
_NEAR_WORDS.flags.writeable = False


def reduced_distance(u0: np.ndarray, v0: np.ndarray) -> float:
    """Quotient distance of two (4,) points ``reduce_point`` has reduced: the least
    Euclidean distance from u0 to v0's translates by the words with exponents in [-2, 2]."""
    # (x + m, y + n, z + p + m*(y + n), t + q): each word's translate of v0
    diff = v0[:, None] + _NEAR_WORDS
    diff[2] += _NEAR_WORDS[0] * diff[1]
    diff -= u0[:, None]
    diff *= diff
    return math.sqrt((diff[0] + diff[1] + diff[2] + diff[3]).min())


def fundamental_domain_samples(n: int, seed: int) -> np.ndarray:
    """Seeded uniform samples in [0,1)^4, shape (n, 4); ValueError unless n
    and seed are non-negative ints."""
    for name, value in (("n", n), ("seed", seed)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be a non-negative int, got {value!r}")
    rng = np.random.default_rng(seed)
    return rng.random((n, 4))
