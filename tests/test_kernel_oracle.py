"""The series kernel against 30-digit mpmath sums of the degree-k basis.

The ``loop_degree_basis`` oracle of test_theta.py is float64 and its own
error reaches 1.5e-13 of the largest entry where the values are large, so
it cannot gate the kernel at 1e-13 everywhere; a 30-digit sum can.  Each
reference is theta_k^p(w, tau) = sum over n = p + m*k of
exp(2*pi*i*n*w + pi*i*tau*E), E = k*m*(m - 1) + 2*p*m, with its termwise
d/dw (weight 2*pi*i*n) and d/dtau (weight pi*i*E), every term within e^-80
of the largest kept.  An error is measured against the largest entry of
its point's row: one output order of one point over its k residues,
with an allowance where the values are so large that rounding their
exponents alone exceeds the bound (``allowance``).

The kernel is held to it on one batch of FEW_POINTS arguments, which
chains its unit phases along each window, and on each argument alone,
which takes one exponential per term.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

import ktheta.theta as th_mod
from ktheta.theta import DEFAULT_POLICY

DEGREES = (1, 2, 3, 5, 8, 16)
ORDERS = ((0, 0), (1, 0), (0, 1))  # value, d/dw, d/dtau
# the units [j, j + 1) of Im(w) that the suites' moved and shifted arguments reach
UNITS = range(-1, 3)


def arguments(where):
    """FEW_POINTS kernel arguments and any Re(w), Re(tau): Im(w) in [-1, 2]
    with Im(tau) in [0.3, 3] ("general", corners first), or Im(w) over
    UNITS, [UNITS.start, UNITS.stop) with both ends first, at Im(tau) = 1
    ("unit", the maps' moduli)."""
    n = th_mod.FEW_POINTS
    rng = np.random.default_rng(2801 if where == "general" else 2802)
    lo, hi = (-1.0, 2.0) if where == "general" else (UNITS.start, UNITS.stop)
    im_w = rng.uniform(lo, hi, n)
    if where == "general":
        im_tau = rng.uniform(0.3, 3.0, n)
        im_w[:4], im_tau[:4] = [-1.0, 2.0, -1.0, 2.0], [0.3, 0.3, 3.0, 3.0]
    else:
        im_w[:2] = lo, np.nextafter(hi, lo)
        im_tau = np.ones(n)
    return (rng.uniform(-2.0, 2.0, n) + 1j * im_w, rng.uniform(-2.0, 2.0, n) + 1j * im_tau)


@functools.lru_cache(maxsize=None)
def reference(where, k):
    """The 30-digit value, d/dw and d/dtau of every theta_k^p at
    ``arguments(where)``: (3, k, FEW_POINTS)."""
    out = np.empty((len(ORDERS), k, th_mod.FEW_POINTS), dtype=complex)
    with mpmath.workdps(30):
        two_pi_i, pi_i = 2j * mpmath.pi, 1j * mpmath.pi
        for b, (w, tau) in enumerate(zip(*arguments(where))):
            a, c = two_pi_i * mpmath.mpc(w), pi_i * mpmath.mpc(tau)
            # |term| falls as exp(-pi*k*Im(tau)*(m - peak)^2) about its peak
            reach = math.isqrt(int(80.0 / (math.pi * k * tau.imag))) + 2
            for p in range(k):
                peak = 0.5 - w.imag / tau.imag - p / k
                m = range(math.floor(peak) - reach, math.ceil(peak) + reach + 1)
                n = [p + j * k for j in m]
                e = [k * j * (j - 1) + 2 * p * j for j in m]
                # term m + 1 is term m times exp(k*a + (2*k*m + 2*p)*c), whose
                # own ratio is exp(2*k*c): three exponentials per residue, and
                # about 1e-29 of drift over the window at 30 digits
                t = [mpmath.exp(n[0] * a + e[0] * c)]
                ratio = mpmath.exp(k * a + (2 * k * m[0] + 2 * p) * c)
                growth = mpmath.exp(2 * k * c)
                for _ in m[1:]:
                    t.append(t[-1] * ratio)
                    ratio *= growth
                out[:, p, b] = (complex(mpmath.fsum(t)), complex(two_pi_i * mpmath.fdot(n, t)),
                                complex(pi_i * mpmath.fdot(e, t)))
    return out


def kernel(where, k, path):
    """The kernel's (3, k, FEW_POINTS) outputs on ``arguments(where)``, as
    one batch or one argument at a time."""
    w, tau = arguments(where)
    if path == "batch":
        return th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, ORDERS)
    return np.concatenate([th_mod._degree_basis_batch(k, w[b:b + 1], tau[b:b + 1],
                                                      DEFAULT_POLICY, ORDERS)
                           for b in range(len(w))], axis=-1)


def row_errors(where, k, path):
    """(3, FEW_POINTS): per output order, each point's largest error over
    its residues relative to that row's largest entry, as a multiple of
    the row's allowance for its conditioning (``allowance``)."""
    want = reference(where, k)
    got = kernel(where, k, path)
    assert got.shape == want.shape and np.isfinite(want).all()
    scale = np.abs(want).max(axis=1)
    return np.abs(got - want).max(axis=1) / scale / allowance(scale)


def allowance(scale):
    """1, or for a row whose entries reach e^X, 4*X*u / 1e-13: each term's
    exponent, up to X, is rounded to float64, which leaves a relative error
    of about X*u however exactly the terms are summed (the exponent's
    condition number), 1.3e-13 at the corner k = 16, Im(w) = 2,
    Im(tau) = 0.3, where the values reach e^573."""
    return np.maximum(1.0, 4.0 * np.finfo(float).eps / 2 * np.log(scale) / 1e-13)


PATHS = ["batch", "single"]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("k", DEGREES)
@pytest.mark.parametrize("where", ["general", "unit"])
def test_values_match_mpmath(where, k, path):
    assert row_errors(where, k, path)[0].max() <= 1e-13


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("k", DEGREES)
def test_unit_tau_derivatives_match_mpmath(k, path):
    # an order with a tau factor passes through the moment step
    # c0*M_j + c1*M_{j+1} + k*M_{j+2}, whose cancellation magnifies term
    # roundoff: 1e-11 there, as in test_theta.py's batch against single points
    _, dw, dtau = row_errors("unit", k, path).max(axis=1)
    assert dw <= 1e-13 and dtau <= 1e-11


@pytest.mark.xfail(strict=True, reason=(
    "at general tau the moment steps magnify term roundoff in the derivative rows: "
    "d/dw up to 4.4e-13 and d/dtau up to 8.2e-9 of a row here (CHANGES.md, FOUND on "
    "the moment step c0*M_j + c1*M_{j+1} + k*M_{j+2})"))
@pytest.mark.parametrize("path", PATHS)
def test_general_tau_derivatives_match_mpmath(path):
    worst = max(row_errors("general", k, path)[1:].max() for k in DEGREES)
    assert worst <= 1e-13
