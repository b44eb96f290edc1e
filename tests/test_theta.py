"""Theta series core: oracles are independent brute-force summations."""

import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ktheta.checks as checks_mod
import ktheta.sections as sections_mod
import ktheta.theta as th_mod
from ktheta import (
    GroupWord,
    InvalidModulus,
    KThetaError,
    KTPoint,
    TailNotConverged,
    fundamental_domain_samples,
    theta_batch,
)
from ktheta.theta import DEFAULT_POLICY, TruncationPolicy, theta_degree_k_batch

from ktheta.manifold import act

INVALID = "theta arguments must be finite with Im(tau) > 0"


def brute_theta(z, tau, n=80, z_order=0, tau_order=0):
    """Independent oracle: direct summation with fixed wide window."""
    idx = np.arange(-n, n + 1)
    quad = idx * (idx - 1)
    terms = np.exp(2j * np.pi * z * idx + 1j * np.pi * tau * quad)
    w = (2j * np.pi * idx) ** z_order * (1j * np.pi * quad) ** tau_order
    return (terms * w).sum()


def brute_degree_k(k, p, z, tau, n=60):
    """Direct m-sum for the degree-k basis from the coefficient recursion."""
    m = np.arange(-n, n + 1)
    expo = (
        2j * np.pi * tau * (m * p + k * m * (m - 1) / 2.0)
        + 2j * np.pi * (p + m * k) * z
    )
    return np.exp(expo).sum()


SAMPLE_ARGS = [
    (0.0, 1j),
    (0.3 + 0.2j, 0.1 + 0.9j),
    (-0.7 + 0.45j, -0.4 + 1.7j),
    (1.2 - 0.3j, 0.5j),
]


class TestThetaValues:
    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    def test_against_brute_force(self, z, tau):
        val = theta_batch(z, tau)[0]
        assert abs(val - brute_theta(z, tau)) < 1e-12 * max(1.0, abs(val))

    def test_reference_value_at_origin(self):
        # sum over n of exp(pi i n(n-1) i) = 1 + 2*(e^-2pi + e^-6pi + ...)... direct
        assert abs(theta_batch(0.0, 1j)[0] - brute_theta(0.0, 1j)) < 1e-14

    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    @pytest.mark.parametrize("zo,to", [(1, 0), (2, 0), (0, 1), (1, 1)])
    def test_derivatives_against_brute_force(self, z, tau, zo, to):
        val = theta_batch(z, tau, [(zo, to)])[0]
        ref = brute_theta(z, tau, z_order=zo, tau_order=to)
        assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))

    def test_derivative_against_finite_difference(self):
        z, tau = 0.27 + 0.11j, 0.2 + 1.1j
        h = 1e-5
        fd = (theta_batch(z + h, tau)[0] - theta_batch(z - h, tau)[0]) / (2 * h)
        an = theta_batch(z, tau, [(1, 0)])[0]
        assert abs(fd - an) / abs(an) < 1e-6

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulus):
            theta_batch(0.0, 1.0 - 0.5j)
        with pytest.raises(InvalidModulus):
            theta_batch(0.0, 2.0)

    @pytest.mark.parametrize("z, tau", [(np.nan, 1j), (0.0, complex(0.0, np.inf))])
    def test_non_finite_argument(self, z, tau):
        with pytest.raises(InvalidModulus, match=f"^{re.escape(INVALID)}$"):
            theta_batch(z, tau)


class TestQuasiPeriodicity:
    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    def test_period_one(self, z, tau):
        a = theta_batch(z + 1, tau)[0]
        b = theta_batch(z, tau)[0]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    def test_tau_period_one(self, z, tau):
        # this series and every theta_k^p are invariant under tau -> tau + 1
        a = theta_batch(z, tau + 1)[0]
        b = theta_batch(z, tau)[0]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        (a,), (b,) = theta_degree_k_batch(3, z, tau + 1), theta_degree_k_batch(3, z, tau)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))

    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    def test_tau_quasi_period(self, z, tau):
        a = theta_batch(z + tau, tau)[0]
        b = np.exp(-2j * np.pi * z) * theta_batch(z, tau)[0]
        assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


class TestHeatEquation:
    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    def test_pde(self, z, tau):
        dt = theta_batch(z, tau, [(0, 1)])[0]
        dzz = theta_batch(z, tau, [(2, 0)])[0]
        dz = theta_batch(z, tau, [(1, 0)])[0]
        assert abs(dt - dzz / (4j * math.pi) + dz / 2.0) < 1e-9


class TestZeroLocus:
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, -0.4 + 1.7j])
    def test_zero_and_translates(self, tau):
        # the zero the separating-section search places
        z0 = sections_mod.THETA_ZERO
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                assert abs(theta_batch(z0 + m + n * tau, tau)[0]) < 1e-10


def tail_bound(z, tau, n, z_order=0, tau_order=0):
    """Certified bound on the terms of theta(z, tau) outside the window [-n, n]."""
    y = complex(z).imag
    return th_mod._tail_bound_arrays([y, y], complex(tau).imag, n, [(z_order, tau_order)]).sum()


class TestTailBound:
    def test_bound_dominates_actual_tail(self):
        for z, tau in SAMPLE_ARGS:
            for n in (4, 8, 16):
                idx_all = np.arange(-200, 201)
                inside = np.abs(idx_all) <= n
                quad = idx_all * (idx_all - 1)
                terms = np.exp(2j * np.pi * z * idx_all + 1j * np.pi * tau * quad)
                actual = np.abs(terms[~inside]).sum()
                # 1-ulp slack: both sides are float evaluations of exact sums
                assert tail_bound(z, tau, n) >= actual * (1 - 1e-12)

    def test_bound_for_derivatives(self):
        z, tau = 0.3 + 0.4j, 1j
        idx_all = np.arange(-200, 201)
        quad = idx_all * (idx_all - 1)
        terms = np.exp(2j * np.pi * z * idx_all + 1j * np.pi * tau * quad)
        w = np.abs(2j * np.pi * idx_all) ** 2
        actual = (np.abs(terms) * w)[np.abs(idx_all) > 8].sum()
        assert tail_bound(z, tau, 8, z_order=2) >= actual * (1 - 1e-12)

    @pytest.mark.parametrize("z, tau", [(0.5 + 600j, 1j), (0.5, 1e-5j)])
    def test_not_converged(self, z, tau):
        # the peak term at m = -600, or a Gaussian of width ~300, puts the
        # window past the fixed cap th_mod.MAX_TERMS = 512
        with pytest.raises(TailNotConverged):
            theta_batch(z, tau)

    @pytest.mark.parametrize("orders, named", [
        ([(2, -1)], "(2, -1)"), ([(-1, 0)], "(-1, 0)"), ([(-1, 1)], "(-1, 1)"),
        ([], "at least one"), ([(0.5, 0)], "(0.5, 0)"),
    ])
    def test_malformed_orders_rejected(self, orders, named):
        # unchecked, (2, -1) sums a wrong series silently and the others fail
        # with errors that do not name the order
        with pytest.raises(ValueError, match=re.escape(named)):
            theta_batch(0.1 + 0.2j, 1j, orders)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(-1e-10)
        with pytest.raises(ValueError):
            theta_batch(0.1, 1j, [(-1, 0)])


class TestDegreeK:
    # k = 16 and 64 make the running product of unit phases over the residues
    # long; the points add the domain's edges, a large Im(tau) and Im(w) < 0
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 16, 64])
    def test_against_direct_m_sum(self, k):
        for z, tau in [(0.21 + 0.13j, 0.3 + 1.2j), (0.4 + 0.9j, 0.7 + 1j), (0.1, 1j),
                       (0.33 + 2.5j, 0.2 + 40j), (0.6 - 1.7j, -0.4 + 3j)]:
            (vals,) = theta_degree_k_batch(k, z, tau)
            for p, val in enumerate(vals):
                ref = brute_degree_k(k, p, z, tau)
                assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))

    def test_degree_one_reduces_to_theta(self):
        z, tau = 0.37 - 0.21j, 0.8j
        a = theta_degree_k_batch(1, z, tau)[0, 0]
        assert abs(a - theta_batch(z, tau)[0]) < 1e-13

    @pytest.mark.parametrize("k", [2, 3])
    def test_degree_k_quasi_periodicity(self, k):
        z, tau = 0.14 + 0.2j, 0.1 + 1.3j
        (same,), (base,), (shifted,) = (theta_degree_k_batch(k, w, tau)
                                        for w in (z + 1, z, z + tau))
        assert np.all(np.abs(same - base) < 1e-11 * np.maximum(1.0, np.abs(base)))
        expected = np.exp(-2j * np.pi * k * z) * base
        assert np.all(np.abs(shifted - expected) < 1e-10 * np.maximum(1.0, np.abs(expected)))

    def test_basis_rank_is_k(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 4, 5):
            zs = rng.random(8 * k) + 1j * 0.3 * (rng.random(8 * k) - 0.5)
            mat = np.array([theta_degree_k_batch(k, z, 1j)[0] for z in zs]).T
            sv = np.linalg.svd(mat, compute_uv=False)
            assert (sv > 1e-8 * sv[0]).sum() == k

    def test_deriv_triple_consistent(self):
        z, tau = 0.22 + 0.1j, 0.1 + 1.1j

        def theta_3_1(w, t, orders=((0, 0),)):
            return theta_degree_k_batch(3, w, t, orders)[:, 1]

        val, dz, dtau = theta_3_1(z, tau, ((0, 0), (1, 0), (0, 1)))
        assert abs(val - theta_3_1(z, tau)[0]) < 1e-12 * max(1.0, abs(val))
        h = 1e-5
        fd_z = (theta_3_1(z + h, tau)[0] - theta_3_1(z - h, tau)[0]) / (2 * h)
        fd_t = (theta_3_1(z, tau + h)[0] - theta_3_1(z, tau - h)[0]) / (2 * h)
        assert abs(fd_z - dz) / max(1.0, abs(dz)) < 1e-6
        assert abs(fd_t - dtau) / max(1.0, abs(dtau)) < 1e-6


def classical_products(shifts, zs, tau):
    """prod_i theta(z + a_i, tau) at each z in ``zs``, from one ``theta_batch`` call."""
    return theta_batch(np.asarray(zs)[..., None] + np.asarray(shifts), tau)[0].prod(axis=-1)


def degree_k_fit_residual(shifts, zs, tau):
    """Relative residual of the classical product against the degree-k span, k = len(shifts)."""
    k = len(shifts)
    vals = classical_products(shifts, zs, tau)
    design = np.array([theta_degree_k_batch(k, z, tau)[0] for z in zs])
    coeff, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return np.linalg.norm(design @ coeff - vals) / np.linalg.norm(vals)


class TestClassicalProduct:
    def test_zero_sum_product_fits_degree_k_span(self):
        rng = np.random.default_rng(11)
        tau = 0.2 + 1.1j
        for k in (2, 3):
            a = rng.random(k - 1) + 1j * 0.3 * (rng.random(k - 1) - 0.5)
            shifts = list(a) + [-a.sum()]
            zs = rng.random(32) + 1j * 0.3 * (rng.random(32) - 0.5)
            assert degree_k_fit_residual(shifts, zs, tau) < 1e-8

    def test_nonzero_sum_rejected(self):
        # the negative control of the zero-sum law: shifts summing to 1/2
        # leave the degree-2 span
        rng = np.random.default_rng(11)
        zs = rng.random(32) + 1j * 0.3 * (rng.random(32) - 0.5)
        assert degree_k_fit_residual([0.25, 0.25], zs, 1j) > 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sections_mod.shift_product([], KTPoint(0.1, 0.2, 0.3, 0.4).as_array())

    def test_single_zero_shift_is_theta(self):
        z, tau = 0.31 + 0.07j, 0.9j
        assert abs(classical_products([0.0], z, tau) - theta_batch(z, tau)[0]) < 1e-13


class TestBatchedEvaluator:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        zs = rng.random(50) + 1j * (rng.random(50) - 0.5)
        taus = (rng.random(50) - 0.5) + 1j * (0.5 + rng.random(50))
        batch = th_mod._eval_series(zs, taus, DEFAULT_POLICY, [(0, 0)])[0]
        for i in range(0, 50, 7):
            scalar = theta_batch(zs[i], taus[i])[0]
            assert abs(batch[i] - scalar) < 1e-12 * max(1.0, abs(scalar))


# The symmetric-window series the one engine replaced: a window [-N, N]
# searched until its certified tail is <= epsilon, shared by the batch, and
# one weighted sum per requested order.
_tail_bound_arrays = th_mod._tail_bound_arrays


def _pick_window(im_z, im_tau, policy, z_order=0, tau_order=0):
    """Smallest window index N whose certified tail is <= policy.epsilon."""
    im_z = np.asarray(im_z, dtype=float)
    im_tau = np.asarray(im_tau, dtype=float)
    crossover = np.max(np.abs(im_z) / im_tau)
    n = max(1, int(math.ceil(crossover)))
    z = np.stack([im_z, im_z])
    while n <= th_mod.MAX_TERMS:
        bound = np.max(_tail_bound_arrays(z, im_tau, n, [(z_order, tau_order)]).sum(axis=0))
        if bound <= policy.epsilon:
            return n
        # far from the target the bound drops by ~exp(-2*pi*n*im_tau) per step
        n = n + 1 if bound < policy.epsilon * 1e8 else max(n + 2, int(n * 1.25))
    raise TailNotConverged(f"tail bound did not reach {policy.epsilon} within the cap")


def _eval_series(zs, taus, policy, orders, log_phase=0.0):
    """Evaluate termwise derivatives of the theta series on arrays, each
    times exp(log_phase).

    ``orders`` is a sequence of (z_order, tau_order) pairs; one array per
    pair is returned, all sharing a single certified window and a fixed
    summation order.  Each term's whole exponent, ``log_phase`` included,
    goes through one exp, so no term overflows before the phase scales it.
    """
    zs = np.asarray(zs, dtype=complex)
    taus = np.asarray(taus, dtype=complex)
    zs, taus, log_phase = np.broadcast_arrays(zs, taus, np.asarray(log_phase, dtype=complex))
    zo_max = max(o[0] for o in orders)
    to_max = max(o[1] for o in orders)
    n = _pick_window(zs.imag, taus.imag, policy, zo_max, to_max)

    idx = np.arange(-n, n + 1)
    quad = idx * (idx - 1)
    expo = (log_phase[..., None] + (2j * math.pi) * zs[..., None] * idx
            + (1j * math.pi) * taus[..., None] * quad)
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


def loop_degree_basis(k, ws, taus, policy, want_tau=False):
    """Oracle: the per-residue loop the one-pass kernel replaced.

    Each residue p sums exp(2*pi*i*p*w) * theta(k*w + p*tau, k*tau) through
    the symmetric ``_eval_series`` above on its own window, the phase inside
    each term's exponent.
    """
    ws = np.asarray(ws, dtype=complex)
    taus = np.asarray(taus, dtype=complex)
    ws, taus = np.broadcast_arrays(ws, taus)
    shape = (k,) + ws.shape
    vals = np.empty(shape, dtype=complex)
    dws = np.empty(shape, dtype=complex)
    dtaus = np.empty(shape, dtype=complex) if want_tau else None
    orders = [(0, 0), (1, 0), (0, 1)] if want_tau else [(0, 0), (1, 0)]
    for p in range(k):
        big_z = k * ws + p * taus
        big_t = k * taus
        parts = _eval_series(big_z, big_t, policy, orders, 2j * math.pi * p * ws)
        vals[p], th_z = parts[0], parts[1]
        dws[p] = 2j * math.pi * p * vals[p] + k * th_z
        if want_tau:
            dtaus[p] = p * th_z + k * parts[2]
    if want_tau:
        return vals, dws, dtaus
    return vals, dws


def moved_points(n, seed):
    """act(w, u0) with u0 uniform in [0, 1)^4 and exponents of w in [-2, 2]."""
    rng = np.random.default_rng(seed)
    return np.array([
        act(GroupWord(*(int(e) for e in rng.integers(-2, 3, 4))),
            KTPoint(*(float(c) for c in rng.random(4)))).as_array()
        for _ in range(n)
    ])


def unit_points(n, seed):
    """act(w, u0) as ``moved_points`` with exponents of w in [-1, 1]: every
    Im(w) of both factors lies in [-1, 2), inside UNITS and the reach of
    ``loop_degree_basis`` at 1e-13 (see ``test_units_batch_matches_residue_loop``)."""
    rng = np.random.default_rng(seed)
    return np.array([
        act(GroupWord(*(int(e) for e in rng.integers(-1, 2, 4))),
            KTPoint(*(float(c) for c in rng.random(4)))).as_array()
        for _ in range(n)
    ])


def factor_arguments(pts):
    """(w, tau) of the fiber factor and of the base factor, concatenated."""
    w = np.concatenate([pts[:, 2] + 1j * pts[:, 0], pts[:, 1] + 1j * pts[:, 3]])
    tau = np.concatenate([pts[:, 1] + 1j, np.full(len(pts), 1j)])
    return w, tau


def argument_shapes(pts):
    """``factor_arguments`` concatenated (2B,) and stacked (2, B), the shape
    of a stacked ``sections.factor`` call."""
    w, tau = factor_arguments(pts)
    return (w, tau), (w.reshape(2, -1), tau.reshape(2, -1))


# The kernel's point sets, all at Im(tau) = 1, so every batch reads its
# units' cell tables: the domain unit alone, moves by generator exponents in
# [-2, 2] (Im(w) in [-2, 3)), and those in [-1, 1] (``unit_points``).
POINT_SETS = {
    "fundamental": lambda: fundamental_domain_samples(64, 17),
    "moved": lambda: moved_points(64, 18),
    "units": lambda: unit_points(64, 22),
}
# The units [j, j + 1) of Im(w) of ``unit_points``, inside the reach of
# ``loop_degree_basis`` at 1e-13.
UNITS = range(-1, 3)


VALUE_W_TAU = ((0, 0), (1, 0), (0, 1))


# POINT_SETS and the same kinds of point in a batch below th_mod.FEW_POINTS.
KERNEL_POINT_SETS = {
    **POINT_SETS,
    "fundamental-few": lambda: fundamental_domain_samples(5, 19),
    "moved-few": lambda: moved_points(5, 20),
    "units-few": lambda: unit_points(5, 23),
}


def window_path(k, w, tau, orders=VALUE_W_TAU, policy=DEFAULT_POLICY):
    """The kernel's window route for a batch once its tables are built:
    "table" if it reads its units' cell tables, "search" if it searches per
    point."""
    th_mod._degree_basis_batch(k, w, tau, policy, orders)  # builds the tables
    taken = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_cell_windows", "_basis_window"):
            original = getattr(th_mod, name)
            patch.setattr(th_mod, name,
                          lambda *args, _name=name, _original=original:
                          taken.append(_name) or _original(*args))
        th_mod._degree_basis_batch(k, w, tau, policy, orders)
    if taken == ["_basis_window"]:
        return "search"
    assert taken and set(taken) == {"_cell_windows"}
    return "table"


class TestDegreeBasisKernel:
    @pytest.mark.parametrize("where", sorted(KERNEL_POINT_SETS))
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
    def test_matches_residue_loop(self, k, where):
        w, tau = factor_arguments(KERNEL_POINT_SETS[where]())
        assert (len(w) < th_mod.FEW_POINTS) == where.endswith("-few")
        got = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        want = loop_degree_basis(k, w, tau, DEFAULT_POLICY, want_tau=True)
        for g, r in zip(got, want):
            assert g.shape == r.shape == (k, len(w))
            assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()

    @pytest.mark.parametrize("where", sorted(KERNEL_POINT_SETS))
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_point_sets_read_tables_and_other_moduli_search(self, k, where):
        # one modulus off Im(tau) = 1 sends the whole batch to the search
        w, tau = factor_arguments(KERNEL_POINT_SETS[where]())
        assert window_path(k, w, tau) == "table"
        tau[-1] += 1e-9j
        assert window_path(k, w, tau) == "search"

    @pytest.mark.parametrize("where", sorted(POINT_SETS))
    @pytest.mark.parametrize("k", [2, 3, 5, 16])
    def test_batch_matches_single_points(self, k, where, monkeypatch):
        # A batch of FEW_POINTS or more doubles its residue powers over slabs
        # and a single point takes the running product.  On the same window
        # the two agree to roundoff: 1e-13 of each row's largest entry for the
        # value and w orders.  An order with a tau factor passes through the
        # step c0*M_j + c1*M_{j+1} + k*M_{j+2}, whose cancellation magnifies
        # term roundoff (up to 3e-12 here), so those get 1e-11.  Each single
        # point is given the batch's window, whichever path chose it.
        w, tau = factor_arguments(POINT_SETS[where]())
        assert len(w) >= th_mod.FEW_POINTS
        lo, length = th_mod._kernel_window(k, w.imag, tau.imag, DEFAULT_POLICY, ALL_ORDERS)
        batch = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, ALL_ORDERS)
        for b in range(len(w)):
            monkeypatch.setattr(th_mod, "_kernel_window", lambda *args: (lo[b:b + 1], length))
            single = th_mod._degree_basis_batch(k, w[b:b + 1], tau[b:b + 1], DEFAULT_POLICY,
                                                ALL_ORDERS)
            for (_, to), got, want in zip(ALL_ORDERS, batch, single):
                bound = 1e-11 if to else 1e-13
                assert np.abs(got[:, b] - want[:, 0]).max() <= bound * np.abs(want).max()

    def test_values_only_call_matches(self):
        w, tau = factor_arguments(moved_points(16, 4))
        full = th_mod._degree_basis_batch(5, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        for orders in (VALUE_W_TAU[:1], VALUE_W_TAU[:2], VALUE_W_TAU[::-1]):
            got = th_mod._degree_basis_batch(5, w, tau, DEFAULT_POLICY, orders)
            assert len(got) == len(orders)
            for g, order in zip(got, orders):
                want = full[VALUE_W_TAU.index(order)]
                assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("where", sorted(POINT_SETS))
    @pytest.mark.parametrize("k", [1, 3, 8, 16])
    def test_widened_window_differs_by_at_most_epsilon(self, k, where, monkeypatch):
        # The certificate bounds the discarded tail of each residue's inner
        # series theta(k*w + p*tau, k*tau) and of its termwise d/dz, d/dtau
        # by epsilon.  theta_k^p is that series times exp(2 pi i p w), and
        # d/dw, d/dtau are (2 pi i p) theta_k^p + k e^{..} theta_z and
        # e^{..} (p theta_z + k theta_tau), so the truncation error of the
        # three outputs is at most |e^{..}| (1, 2 pi p + k, p + k) epsilon.
        # Roundoff allowance: 1e-14 of the point's largest |entry|.
        # Both argument shapes: concatenated and stacked as ``factor`` stacks.
        # The kernel's window is widened, whichever route chose it.
        eps = DEFAULT_POLICY.epsilon
        window = th_mod._kernel_window

        def widened(*args):
            lo, length = window(*args)
            return lo - 3, length + 6

        for w, tau in argument_shapes(POINT_SETS[where]()):
            got = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
            with monkeypatch.context() as patch:
                patch.setattr(th_mod, "_kernel_window", widened)
                ref = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
            p = np.arange(k).reshape((k,) + (1,) * w.ndim)
            phase = np.exp(-2.0 * math.pi * p * w.imag)
            for g, r, factor in zip(got, ref, (1.0, 2.0 * math.pi * p + k, p + k)):
                roundoff = 1e-14 * np.abs(r).max(axis=0)
                assert np.all(np.abs(g - r) <= factor * phase * eps + roundoff)

    @pytest.mark.parametrize("where", sorted(POINT_SETS))
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_window_certified_for_every_residue(self, k, where, monkeypatch):
        # The window the kernel takes, on every path, for the arguments both
        # concatenated and stacked as ``factor`` stacks them.
        flat, stacked = argument_shapes(POINT_SETS[where]())
        window = th_mod._kernel_window
        taken = []

        def recording(*args):
            taken.append((args, window(*args)))
            return taken[-1][1]

        monkeypatch.setattr(th_mod, "_kernel_window", recording)
        for w, tau in (flat, stacked):
            th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        assert len(taken) == 2
        for (_, im_w, im_tau, _, _), (lo, length) in taken:
            assert im_w.shape == lo.shape == (flat[0].size,)
            for p in range(k):
                y = k * im_w + p * im_tau
                bounds = th_mod._tail_bound_arrays([y, y], k * im_tau, [-lo, lo + length - 1],
                                                   VALUE_W_TAU)
                assert np.all(bounds <= 0.5 * DEFAULT_POLICY.epsilon)

    @pytest.mark.parametrize("orders", [((0, 0),), VALUE_W_TAU, ((2, 0), (1, 1))])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
    def test_cell_windows_certified_over_their_cells(self, k, orders):
        # Sampled points of every cell of every unit of Im(w), edges
        # included, at Im(tau) = 1: for every residue the cell's window
        # leaves at most epsilon / 2 on each side, for the requested orders
        # and those every cell carries.
        key = tuple(sorted(th_mod._CELL_ORDERS.union(orders)))
        rng = np.random.default_rng(k)
        cells = np.arange(th_mod.CELLS)[:, None]
        for unit in UNITS:
            lo, length = th_mod._cell_windows(k, DEFAULT_POLICY, key, unit)
            assert lo.shape == (th_mod.CELLS,)
            im_w = unit + (cells + np.c_[np.zeros(th_mod.CELLS), rng.random((th_mod.CELLS, 30)),
                                         np.ones(th_mod.CELLS)]) / th_mod.CELLS
            outward = np.array([-lo, lo + length - 1])[:, :, None]
            for p in range(k):
                y = k * im_w + p
                bounds = th_mod._tail_bound_arrays([y, y], float(k), outward, key)
                assert np.all(bounds <= 0.5 * DEFAULT_POLICY.epsilon)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
    def test_domain_unit_is_one_direct_window_call(self, k):
        # bit for bit the table of the cells [j, j + 1] / CELLS of [0, 1]
        key = tuple(sorted(th_mod._CELL_ORDERS))
        edges = np.arange(th_mod.CELLS + 1) / th_mod.CELLS
        lo, length = th_mod._basis_window(k, np.stack([edges[:-1], edges[1:]]), 1.0,
                                          DEFAULT_POLICY, key)
        table_lo, table_length = th_mod._cell_windows(k, DEFAULT_POLICY, key, 0)
        assert np.array_equal(table_lo, lo) and table_length == length

    def test_tables_built_on_first_use_one_window_call_per_unit(self, monkeypatch):
        # A policy no other test uses, so that its tables start unbuilt.  A
        # batch builds only the tables of the units it touches: the domain
        # unit, unit 1, unit -1, then unit 2.
        policy = TruncationPolicy(3e-14)
        calls = count_calls(monkeypatch, "_basis_window")
        w, tau = factor_arguments(unit_points(16, 9))
        assert set(np.floor(w.imag).astype(int).tolist()) == {-1, 0, 1}
        for batch, built in (((w.real + 0.5j, tau), 1), ((w.real + 1.5j, tau), 1),
                             ((w, tau), 1), ((w, tau), 0), ((w.real + 0.25j, tau), 0),
                             ((w + 1j, tau), 1), ((w + 1j, tau), 0)):
            calls["_basis_window"] = 0
            th_mod._degree_basis_batch(5, *batch, policy, VALUE_W_TAU)
            assert calls == {"_basis_window": built}

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
    def test_units_batch_matches_residue_loop(self, k, monkeypatch):
        # Every cell edge of the units, the last float below their top, and
        # random points: one batch, off the domain, on the units' tables.
        # Every point matches the per-point search's windows to 1e-13 of the
        # largest |entry|, and the points with Im(w) < 2 match the residue
        # loop to 1e-13.  Above, the loop's own error reaches 1.5e-13 at
        # k = 16 against a 40-digit sum, which puts the kernel within
        # 2.0e-14: each of the loop's exponents, up to ~600, is rounded in
        # several steps before its one exp.
        edges = np.arange(UNITS.start * th_mod.CELLS,
                          UNITS.stop * th_mod.CELLS) / th_mod.CELLS
        rng = np.random.default_rng(30 + k)
        im_w = np.r_[edges, np.nextafter(UNITS.stop, 0.0),
                     rng.uniform(UNITS.start, UNITS.stop, 40)]
        w = rng.uniform(-1.0, 1.0, im_w.size) + 1j * im_w
        tau = rng.uniform(-1.0, 1.0, im_w.size) + 1j
        assert window_path(k, w, tau) == "table"
        got = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        monkeypatch.setattr(th_mod, "_kernel_window", th_mod._basis_window)
        searched = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        near = im_w < 2.0
        loop = loop_degree_basis(k, w[near], tau[near], DEFAULT_POLICY, want_tau=True)
        for g, s, r in zip(got, searched, loop):
            assert np.abs(g - s).max() <= 1e-13 * np.abs(s).max()
            assert np.abs(g[:, near] - r).max() <= 1e-13 * np.abs(r).max()

    @pytest.mark.parametrize("height", [2.9, 3.2, 3.5])
    def test_far_points_match_residue_loop(self, height):
        # k = 16 at Im(tau) = 1 near and past the top of UNITS, each height
        # one unit's table as it is, where the values reach e^450: five
        # seeded points per height, less the first at 3.2,
        # (-0.6304096770263028 + 3.2j, 0.9699699754998954 + 1j), where the
        # loop is 1.03e-13 from a 40-digit sum (the kernel 1.8e-14) and
        # 1.08e-13 from the kernel
        rng = np.random.default_rng(16)
        draws = dict(zip((2.9, 3.2, 3.5), rng.uniform(-1.0, 1.0, (3, 2, 5))))
        re_w, re_tau = draws[height][:, 1:] if height == 3.2 else draws[height]
        w, tau = re_w + 1j * height, re_tau + 1j
        assert window_path(16, w, tau) == "table"
        got = th_mod._degree_basis_batch(16, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        want = loop_degree_basis(16, w, tau, DEFAULT_POLICY, want_tau=True)
        for g, r in zip(got, want):
            assert np.isfinite(r).all() and np.abs(r).max() > 1e100
            assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()

    @pytest.mark.parametrize("epsilon", [1e-14, 1e-300])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
    def test_unit_windows_stay_far_below_the_cap(self, k, epsilon):
        # every table of UNITS, and the padded windows of a batch over all
        # their cells, keep |m| <= MAX_TERMS / 16 up to orders (4, 4)
        policy = TruncationPolicy(epsilon)
        im_w = np.r_[np.arange(UNITS.start * th_mod.CELLS,
                               UNITS.stop * th_mod.CELLS) / th_mod.CELLS,
                     np.nextafter(UNITS.stop, 0.0)]
        for order in [(0, 0), (2, 0), (0, 2), (4, 4)]:
            key = tuple(sorted(th_mod._CELL_ORDERS.union([order])))
            windows = [th_mod._cell_windows(k, policy, key, unit) for unit in UNITS]
            windows.append(th_mod._unit_windows(k, im_w, policy, key))
            for lo, length in windows:
                assert max(-lo.min(), lo.max() + length - 1) <= th_mod.MAX_TERMS // 16

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_units_windows_hold_their_cell_windows(self, k):
        # a batch of one point per cell of the units takes the longest unit
        # length, made odd, and each point's window holds its cell's
        # certified one
        key = tuple(sorted(th_mod._CELL_ORDERS))
        im_w = (np.arange(UNITS.start * th_mod.CELLS, UNITS.stop * th_mod.CELLS)
                + 0.5) / th_mod.CELLS
        lo, length = th_mod._kernel_window(k, im_w, np.ones_like(im_w), DEFAULT_POLICY, key)
        units = [th_mod._cell_windows(k, DEFAULT_POLICY, key, u) for u in UNITS]
        assert length == max(unit_length for _, unit_length in units) | 1
        cell_lo = np.concatenate([unit_lo for unit_lo, _ in units])
        cell_length = np.repeat([unit_length for _, unit_length in units], th_mod.CELLS)
        assert np.all(lo <= cell_lo) and np.all(lo + length >= cell_lo + cell_length)

    @pytest.mark.parametrize("name", ["product_closure", "tensor_power_law", "well_definedness",
                                      "separating_sections"])
    def test_suites_search_no_window_once_warm(self, name, monkeypatch):
        # every argument they evaluate has Im(tau) = 1
        suite = checks_mod.REGISTRY[name]
        suite(checks_mod.RunConfig())
        calls = count_calls(monkeypatch, "_basis_window")
        assert suite(checks_mod.RunConfig()).passed
        assert calls == {"_basis_window": 0}

    def test_cells_put_edge_points_in_the_cell_above(self):
        # floor(CELLS * Im(w)) against a search of the cells' interior edges,
        # at every edge of the units, its neighbouring floats and -0.0, for
        # the whole set and for its points at or above 0, which truncate
        start, stop = UNITS.start * th_mod.CELLS, UNITS.stop * th_mod.CELLS
        edges = np.arange(start, stop + 1) / th_mod.CELLS
        im_w = np.r_[edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), -0.0]
        im_w = im_w[(im_w >= UNITS.start) & (im_w < UNITS.stop)]
        want = edges[1:-1].searchsorted(im_w, side="right") + start
        assert im_w.min() < 0.0
        assert np.array_equal(th_mod._cells(im_w, im_w.min()), want)
        up = im_w >= 0.0
        assert np.array_equal(th_mod._cells(im_w[up], im_w[up].min()), want[up])

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_cell_edges_match_residue_loop(self, k):
        im_w = np.r_[np.arange(th_mod.CELLS + 1) / th_mod.CELLS, np.nextafter(0.5, 0.0)]
        w = 0.3 + 1j * im_w
        tau = np.full_like(w, 0.6 + 1j)
        got = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        want = loop_degree_basis(k, w, tau, DEFAULT_POLICY, want_tau=True)
        for g, r in zip(got, want):
            assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()

    @pytest.mark.parametrize("k", [8, 16])
    def test_terms_per_point_not_above_residue_loop(self, k, monkeypatch):
        pts = fundamental_domain_samples(500, 21)
        pick = _pick_window
        windows = []

        def recording(*args):
            windows.append(pick(*args))
            return windows[-1]

        monkeypatch.setitem(globals(), "_pick_window", recording)
        for w, tau in ((pts[:, 2] + 1j * pts[:, 0], pts[:, 1] + 1j),
                       (pts[:, 1] + 1j * pts[:, 3], np.full(500, 1j))):
            windows.clear()
            loop_degree_basis(k, w, tau, DEFAULT_POLICY, want_tau=True)
            loop_terms = sum(2 * n + 1 for n in windows)
            _, length = th_mod._basis_window(k, w.imag, tau.imag, DEFAULT_POLICY, VALUE_W_TAU)
            assert k * length <= loop_terms

    def test_no_series_calls_and_one_kernel_call_per_factors(self, monkeypatch):
        calls = count_calls(monkeypatch, "_eval_series", "_degree_basis_batch")
        pts = moved_points(10, 6)
        for axes in (None, sections_mod.AXES):
            sections_mod.factor(("fiber", "base"), 16, pts, axes=axes)
        assert calls == {"_eval_series": 0, "_degree_basis_batch": 2}

    @pytest.mark.parametrize("where", sorted(POINT_SETS))
    @pytest.mark.parametrize("k", [1, 3, 8, 16])
    def test_stacked_factors_match_single_factor_calls(self, k, where):
        # The stacked call shares one window length between the factors, so
        # it may sum more terms than a single call: equal up to roundoff, 1e-14
        # of the point's largest entry.
        pts = POINT_SETS[where]()
        # The partials compared are the rows through each factor's chain table.
        vals, rows, tables = sections_mod.factor(("fiber", "base"), k, pts, axes=sections_mod.AXES)
        assert vals.shape == (2, len(pts), k) and rows.shape == (2, len(pts), 2, k)
        for f, which in enumerate(("fiber", "base")):
            one_vals, one_rows, table = sections_mod.factor(which, k, pts, axes=sections_mod.AXES)
            for got, want in ((vals[f], one_vals),
                              (np.einsum("mr,brn->bmn", tables[f], rows[f]),
                               np.einsum("mr,brn->bmn", table, one_rows))):
                scale = np.abs(want).reshape(len(pts), -1).max(axis=1)
                diff = np.abs(got - want).reshape(len(pts), -1).max(axis=1)
                assert np.isfinite(scale).all() and np.all(diff <= 1e-14 * scale)

    def test_certified_windows_are_padded_without_recertifying(self, monkeypatch):
        # fiber and base windows of one point differ in width; the stacked
        # call pads the narrower one, and evaluates the tail bound once per
        # step outward, as often as the slower of the two alone
        calls = count_calls(monkeypatch, "_tail_bound_arrays")
        w, tau = factor_arguments(moved_points(1, 6))
        widths, steps = [], []
        for i in range(2):
            calls["_tail_bound_arrays"] = 0
            widths.append(th_mod._basis_window(16, w.imag[i:i + 1], tau.imag[i:i + 1],
                                               DEFAULT_POLICY, VALUE_W_TAU)[1])
            steps.append(calls["_tail_bound_arrays"])
        calls["_tail_bound_arrays"] = 0
        lo, length = th_mod._basis_window(16, w.imag, tau.imag, DEFAULT_POLICY, VALUE_W_TAU)
        assert calls == {"_tail_bound_arrays": max(steps)}
        assert min(widths) < max(widths) == length

    def test_theta_degree_k_batch_is_the_kernel(self):
        w, tau = 0.37 - 1.6j, -0.8 + 1j
        vals = th_mod._degree_basis_batch(4, w, tau, DEFAULT_POLICY, ((0, 0),))
        assert vals.shape == (1, 4)
        assert np.array_equal(theta_degree_k_batch(4, w, tau), vals)

    @pytest.mark.parametrize("w, tau", [(0.1 + 600j, 1j), (0.1 + 600j, 1.5j),
                                        (0.1 + 0.5j, 1e-5j)])
    def test_window_beyond_max_terms(self, w, tau):
        # at Im(tau) = 1 the batch raises before any table, elsewhere the
        # per-point search meets the cap
        with pytest.raises(TailNotConverged):
            th_mod._degree_basis_batch(3, np.array([w]), np.array([tau]), DEFAULT_POLICY,
                                       ((0, 0),))

    @pytest.mark.parametrize("w,tau", [(np.nan, 1j), (0.1, np.inf + 1j), (0.1, 0.3 - 0.2j)])
    def test_invalid_arguments(self, w, tau):
        with pytest.raises(InvalidModulus):
            th_mod._degree_basis_batch(3, w, tau, DEFAULT_POLICY, ((0, 0),))


def three_candidate_window(k, im_w, im_tau, policy, orders):
    """Oracle: the per-point search as first written.  Each side is certified
    at its guess and one step either way at once and set to the innermost
    certified of the three; a side none certified is retried one step
    further out until it certifies.  Padding as in ``_basis_window``."""
    im_t = k * im_tau
    z = k * im_w + np.array([0.0, k - 1.0])[:, None] * im_tau
    half_eps = 0.5 * policy.epsilon
    centre = 0.5 - z / im_t
    reach = np.sqrt(centre * centre + (math.log(2.0) - math.log(half_eps)) / (math.pi * im_t))
    guess = np.ceil((reach + np.array([-1.0, 1.0])[:, None, None] * centre).max(axis=1))
    guess = guess.astype(int) - 1
    candidates = guess[:, None] + np.array([-1, 0, 1])[:, None]
    ok = th_mod._tail_bound_arrays(z[:, None], im_t, candidates, orders) <= half_eps
    certified = ok.any(axis=1)
    outward = guess - 1 + np.where(certified, ok.argmax(axis=1), 3)
    while not certified.all():
        certified |= th_mod._tail_bound_arrays(z, im_t, outward, orders) <= half_eps
        outward += ~certified
    width = outward.sum(axis=0) + 1
    length = max(int(width.max()), 1)
    outward[0] += (length - width) // 2
    return -outward[0], length


# Order sets up to (2, 1), with and without the value.
WINDOW_ORDERS = [((0, 0),), VALUE_W_TAU, ((2, 0),), ((1, 1),), ((2, 1),),
                 ((0, 0), (2, 1)), ((2, 0), (1, 1), (0, 1))]


class TestWindowRules:
    """An Im(tau) = 1 batch reads its units' cell tables; every other batch
    searches per point."""

    @pytest.mark.parametrize("k", range(1, 17))
    def test_search_matches_three_candidate_rule(self, k):
        # seeded batches, stacked intervals and single points at Im(tau) in
        # [0.3, 3], for every order set and three epsilons: the same windows
        rng = np.random.default_rng(3400 + k)
        for orders in WINDOW_ORDERS:
            policy = TruncationPolicy(float(rng.choice([1e-8, 1e-14, 1e-300])))
            im_tau = rng.uniform(0.3, 3.0, 24)
            im_w = rng.uniform(-3.0, 4.0, 24)
            intervals = np.sort(rng.uniform(-3.0, 4.0, (2, 24)), axis=0)
            batches = [(im_w, im_tau), (intervals, im_tau), (im_w, np.ones(24))]
            batches += [(im_w[b:b + 1], im_tau[b:b + 1]) for b in range(24)]
            for args in batches:
                lo, length = th_mod._basis_window(k, *args, policy, orders)
                want_lo, want_length = three_candidate_window(k, *args, policy, orders)
                assert np.array_equal(lo, want_lo) and length == want_length

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 5, 8, 16]),
           im_w=st.lists(st.one_of(st.floats(-8.0, 8.0, exclude_max=True),
                                   st.integers(-8 * th_mod.CELLS, 8 * th_mod.CELLS - 1)
                                   .map(lambda i: i / th_mod.CELLS)), max_size=40),
           orders=st.sampled_from(WINDOW_ORDERS))
    def test_unit_batches_read_certified_tables(self, k, im_w, orders):
        # any Im(tau) = 1 batch over the units [-8, 8): no per-point search
        # once its tables are built, and every residue certified
        im_w = np.array(im_w, dtype=float)
        ones = np.ones_like(im_w)
        th_mod._kernel_window(k, im_w, ones, DEFAULT_POLICY, orders)  # builds the tables
        with pytest.MonkeyPatch.context() as patch:
            calls = count_calls(patch, "_basis_window")
            lo, length = th_mod._kernel_window(k, im_w, ones, DEFAULT_POLICY, orders)
        assert calls == {"_basis_window": 0} and lo.shape == im_w.shape
        for p in range(k):
            y = k * im_w + p
            bounds = th_mod._tail_bound_arrays([y, y], float(k), [-lo, lo + length - 1], orders)
            assert np.all(bounds <= 0.5 * DEFAULT_POLICY.epsilon)

    def test_warm_unit_batches_search_no_window(self, monkeypatch):
        # Im(w) in [-4, 6), one kernel batch and one unit of it per degree
        rng = np.random.default_rng(34)
        w = rng.uniform(-1.0, 1.0, 2000) + 1j * rng.uniform(-4.0, 6.0, 2000)
        tau = rng.uniform(-1.0, 1.0, 2000) + 1j
        batches = [(w, tau), (w.real + 1j * (w.imag % 1.0 - 3.0), tau)]
        for k in (3, 16):
            for batch in batches:
                theta_degree_k_batch(k, *batch, VALUE_W_TAU)
        calls = count_calls(monkeypatch, "_basis_window")
        for k in (3, 16):
            for batch in batches:
                theta_degree_k_batch(k, *batch, VALUE_W_TAU)
        assert calls == {"_basis_window": 0}

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
    def test_one_unit_batches_take_their_cell_windows(self, k):
        # each point its cell's window as it is, the batch the unit's length:
        # on [0, 1) the domain table read at the truncated CELLS * Im(w)
        rng = np.random.default_rng(k)
        cells = np.arange(th_mod.CELLS)
        frac = np.r_[cells, np.nextafter(cells + 1, 0.0), rng.random(200) * th_mod.CELLS]
        frac /= th_mod.CELLS
        for unit in (0, -5, -1, 1, 4):
            im_w = unit + frac
            im_w = im_w[np.floor(im_w) == unit]
            table_lo, table_length = th_mod._cell_windows(k, DEFAULT_POLICY, VALUE_W_TAU, unit)
            lo, length = th_mod._kernel_window(k, im_w, np.ones_like(im_w), DEFAULT_POLICY,
                                               VALUE_W_TAU)
            index = np.floor(im_w * th_mod.CELLS).astype(int) - unit * th_mod.CELLS
            if unit == 0:
                assert np.array_equal(index, (im_w * th_mod.CELLS).astype(int))
            assert length == table_length and np.array_equal(lo, table_lo[index])

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_empty_batch_reads_the_domain_table(self, k):
        lo, length = th_mod._kernel_window(k, np.empty(0), np.empty(0), DEFAULT_POLICY,
                                           VALUE_W_TAU)
        assert lo.shape == (0,)
        assert length == th_mod._cell_windows(k, DEFAULT_POLICY, VALUE_W_TAU, 0)[1]
        assert theta_degree_k_batch(k, [], [], VALUE_W_TAU).shape == (3, k, 0)

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_im_w_one_is_unit_one_first_cell(self, k):
        # alone it reads unit 1's first cell; beside domain points the batch
        # spans two units and pads each cell's window to an odd length
        (lo0, len0), (lo1, len1) = (th_mod._cell_windows(k, DEFAULT_POLICY, VALUE_W_TAU, u)
                                    for u in (0, 1))
        lo, length = th_mod._kernel_window(k, np.ones(1), np.ones(1), DEFAULT_POLICY,
                                           VALUE_W_TAU)
        assert lo.tolist() == [lo1[0]] and length == len1
        im_w = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0])
        lo, length = th_mod._kernel_window(k, im_w, np.ones(4), DEFAULT_POLICY, VALUE_W_TAU)
        cell_lo = np.array([lo0[0], lo0[4], lo0[-1], lo1[0]])
        cell_length = np.array([len0, len0, len0, len1])
        assert length == max(len0, len1) | 1
        assert np.all(lo <= cell_lo) and np.all(lo + length >= cell_lo + cell_length)

    @pytest.mark.parametrize("im_w", [th_mod.MAX_TERMS + 0.5, -th_mod.MAX_TERMS - 0.5,
                                      1e300, -1e300])
    def test_beyond_max_terms_raises_before_any_table(self, im_w, monkeypatch):
        calls = count_calls(monkeypatch, "_cell_windows", "_basis_window")
        with pytest.raises(TailNotConverged, match="MAX_TERMS"):
            th_mod._kernel_window(3, np.array([0.5, im_w]), np.ones(2), DEFAULT_POLICY,
                                  VALUE_W_TAU)
        assert calls == {"_cell_windows": 0, "_basis_window": 0}

    @pytest.mark.parametrize("im_w", [th_mod.MAX_TERMS - 0.5, -th_mod.MAX_TERMS + 0.5])
    def test_table_at_the_cap_raises_from_its_search(self, im_w):
        with pytest.raises(TailNotConverged, match="MAX_TERMS"):
            th_mod._kernel_window(3, np.array([im_w]), np.ones(1), DEFAULT_POLICY, VALUE_W_TAU)


ALL_ORDERS = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))


# Every (w_order, tau_order) up to (2, 1): five moments in the contraction.
ORDERS_TO_2_1 = ALL_ORDERS + ((2, 1),)


def blocked_arguments(where, n):
    """n kernel arguments inside the domain unit, across the units -1 to 1,
    or at general tau, where every point searches its window."""
    if where == "general":
        rng = np.random.default_rng(33)
        w = rng.random(n) + 1j * (rng.random(n) - 0.5)
        return w, (rng.random(n) - 0.5) + 1j * (0.5 + 1.5 * rng.random(n))
    pts = fundamental_domain_samples(n, 31) if where == "domain" else unit_points(n, 32)
    return tuple(x[:n] for x in factor_arguments(pts))


def unblocked(monkeypatch, k, w, tau, orders):
    """The kernel on the batch as one block."""
    with monkeypatch.context() as patch:
        patch.setattr(th_mod, "BLOCK", len(w))
        return th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, orders)


class TestBlockedKernel:
    """The kernel's term arrays are built BLOCK arguments at a time."""

    @pytest.mark.parametrize("orders", [((0, 0),), ORDERS_TO_2_1], ids=["value", "to_2_1"])
    @pytest.mark.parametrize("where", ["domain", "units", "general"])
    @pytest.mark.parametrize("k", [2, 3, 5, 16])
    @pytest.mark.parametrize("n", [th_mod.BLOCK + 1, 2 * th_mod.BLOCK + 3])
    def test_blocks_match_one_block_bit_for_bit(self, n, k, where, orders, monkeypatch):
        # BLOCK + 1 arguments make blocks of 512 and 513, where fixed blocks
        # would leave a 1-argument block on another BLAS path; 2 BLOCK + 3
        # make 680, 688 and 683, where equal thirds would cut at 683 and 1367.
        # Block edges at multiples of ALIGN points leave the moment
        # contraction no column tail inside the batch.
        w, tau = blocked_arguments(where, n)
        got = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, orders)
        want = unblocked(monkeypatch, k, w, tau, orders)
        assert got.shape == want.shape == (len(orders), k, n)
        assert np.array_equal(got.view(float), want.view(float))

    @pytest.mark.parametrize("where", ["domain", "units", "general"])
    def test_k1_blocks_match_to_roundoff(self, where, monkeypatch):
        # k = 1's value moment is a one-row contraction, a BLAS matrix-vector
        # product whose summation order per column may follow the block's
        # width; held to 1e-15 of each output's largest entry, not to bits
        w, tau = blocked_arguments(where, 2 * th_mod.BLOCK + 3)
        for orders in ((0, 0),), ORDERS_TO_2_1:
            got = th_mod._degree_basis_batch(1, w, tau, DEFAULT_POLICY, orders)
            want = unblocked(monkeypatch, 1, w, tau, orders)
            for g, r in zip(got, want):
                assert np.abs(g - r).max() <= 1e-15 * np.abs(r).max()

    @pytest.mark.parametrize("n", [th_mod.BLOCK, th_mod.BLOCK + 1, 3 * th_mod.BLOCK - 5])
    def test_blocks_are_near_equal_and_aligned(self, n, monkeypatch):
        sizes, block = [], th_mod._series_block
        monkeypatch.setattr(th_mod, "_series_block",
                            lambda k, w, *args: sizes.append(len(w)) or block(k, w, *args))
        th_mod._degree_basis_batch(3, *blocked_arguments("domain", n), DEFAULT_POLICY, ((0, 0),))
        assert sum(sizes) == n and len(sizes) == -(-n // th_mod.BLOCK)
        assert max(sizes) <= th_mod.BLOCK and max(sizes) - min(sizes) <= th_mod.ALIGN + 1
        assert all(size % th_mod.ALIGN == 0 for size in sizes[:-1])
        assert len(sizes) == 1 or min(sizes) >= th_mod.BLOCK // 2 - th_mod.ALIGN

    def test_every_block_holds_enough_points_for_the_batch_path(self):
        # each block picks its phase and residue paths from its own size; a
        # blocked batch cuts no block below BLOCK / 2 - ALIGN points, so
        # every block takes the path of the whole batch
        assert th_mod.BLOCK % th_mod.ALIGN == 0
        assert th_mod.BLOCK // 2 - th_mod.ALIGN >= th_mod.FEW_POINTS

    @pytest.mark.parametrize("n", [20, 100])
    def test_residue_path_follows_the_whole_batch(self, n, monkeypatch):
        # at the smallest BLOCK the invariant above allows (80 points), the
        # 100-point batch's blocks of 48 and 52 still double their residue
        # powers over slabs and the 20-point one still takes the running
        # product, so both match their one-block outputs bit for bit
        smallest = next(b for b in itertools.count(th_mod.ALIGN, th_mod.ALIGN)
                        if b // 2 - th_mod.ALIGN >= th_mod.FEW_POINTS)
        w, tau = blocked_arguments("units", n)
        want = unblocked(monkeypatch, 5, w, tau, ORDERS_TO_2_1)
        sizes, block = [], th_mod._series_block
        monkeypatch.setattr(th_mod, "BLOCK", smallest)
        monkeypatch.setattr(th_mod, "_series_block",
                            lambda k, w, *args: sizes.append(len(w)) or block(k, w, *args))
        got = th_mod._degree_basis_batch(5, w, tau, DEFAULT_POLICY, ORDERS_TO_2_1)
        assert len(sizes) == -(-n // smallest)
        assert min(sizes) >= th_mod.FEW_POINTS or sizes == [n]
        assert np.array_equal(got.view(float), want.view(float))


class TestChainedPhases:
    """A batch of FEW_POINTS or more chains its unit phase factors along
    each window from per-point seeds; a smaller one takes one complex
    exponential per term."""

    @pytest.mark.parametrize("widen", [0, 4])
    @pytest.mark.parametrize("k, re_tau, seeds", [(1, 0.0, 2), (1, 0.3, 3), (3, 0.0, 3),
                                                  (3, 0.3, 5), (16, -0.4, 5)])
    def test_unit_exponentials_per_point_do_not_grow_with_the_window(
            self, k, re_tau, seeds, widen, monkeypatch):
        # the phase, its step and growth, the residue factor and its step;
        # where Re(tau) = 0 there is no growth and the residue factor is the
        # same at every m.  A window widened by 2*widen offsets changes the
        # count of the smaller batch only.
        entries = []

        class CountingNumpy:
            """numpy, whose exp counts the entries of its complex arguments:
            the kernel's complex exponentials"""

            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *args, **kwargs):
                if np.iscomplexobj(x):
                    entries.append(np.size(x))
                return np.exp(x, *args, **kwargs)

        window = th_mod._kernel_window
        monkeypatch.setattr(th_mod, "np", CountingNumpy())
        monkeypatch.setattr(th_mod, "_kernel_window",
                            lambda *args: (lambda lo, length: (lo - widen, length + 2 * widen))(
                                *window(*args)))
        rng = np.random.default_rng(k)
        n = th_mod.FEW_POINTS
        w = rng.uniform(-1.0, 1.0, n) + 1j * rng.random(n)
        tau = np.full(n, re_tau + 1j)
        for size, per_point in ((n, seeds), (n - 1, None)):
            entries.clear()
            th_mod._degree_basis_batch(k, w[:size], tau[:size], DEFAULT_POLICY, VALUE_W_TAU)
            if per_point is None:
                _, length = th_mod._kernel_window(k, w.imag[:size], tau.imag[:size],
                                                  DEFAULT_POLICY, VALUE_W_TAU)
                per_point = k * length
            assert sum(entries) == per_point * size

    @pytest.mark.parametrize("length", [1, 2, 5, 8])
    def test_progression_fills_outward_from_the_centre(self, length):
        # phi(a) = phi0 + s*(a - c) + g*(a - c)*(a - c - 1)/2 steps by
        # s + g*(a - c) from a to a + 1, c = length // 2
        rng = np.random.default_rng(length)
        phi0, s, g = rng.uniform(-20.0, 20.0, (3, 6))
        c = length // 2
        a = np.arange(length)[:, None] - c
        want = np.exp(1j * (phi0 + s * a + g * a * (a - 1) / 2))
        got = th_mod._progression(np.empty((length, 6), dtype=complex), np.exp(1j * phi0),
                                  np.exp(1j * s), np.exp(1j * g))
        assert np.abs(got - want).max() <= 1e-13
        linear = th_mod._progression(np.empty((length, 6), dtype=complex), np.exp(1j * phi0),
                                     np.exp(1j * s))
        assert np.abs(linear - np.exp(1j * (phi0 + s * a))).max() <= 1e-13


class TestBlockConstants:
    """What a block takes from its windows alone comes from one function,
    and a single-point block reads it from a per-cell cache."""

    @staticmethod
    def arrays(consts):
        """m, the exponent tables n and E, the first orders' weights and the
        step coefficients nc, c0 and c1 of ``_block_constants`` output, None
        where absent."""
        _, m, tables, weights, coefs = consts
        return [m, *(tables or (None,) * 2), weights, *(coefs or (None,) * 3)]

    @pytest.mark.parametrize("orders", [((0, 0),), VALUE_W_TAU])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 64])
    def test_cached_constants_are_the_block_constants(self, k, orders):
        # every cell of the domain unit, alone and beside every other (a
        # fiber-and-base block): bit for bit, and read-only in the cache
        lo, length = th_mod._cell_windows(k, DEFAULT_POLICY, orders, 0)
        cells = range(th_mod.CELLS)
        for block in [(c,) for c in cells] + list(itertools.product(cells, repeat=2)):
            cached = th_mod._cell_constants(k, DEFAULT_POLICY, orders, block)
            built = th_mod._block_constants(k, lo[list(block)], length, orders)
            assert cached[0] == built[0] == length
            for got, want in zip(self.arrays(cached), self.arrays(built), strict=True):
                if want is None:
                    assert got is None
                    continue
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            # few-point first orders take exact weights, never moment steps
            assert built[3].shape == (len(orders), length, k, len(block))
            assert built[4] is None

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 64])
    def test_exponent_tables_are_exact(self, k):
        # n = k*m + p and E = (n + p - k)*m as integers, out to MAX_TERMS
        lo = np.array([-th_mod.MAX_TERMS, -3, 0, th_mod.MAX_TERMS - 9])
        _, m, (n, e), _, _ = th_mod._block_constants(k, lo, 10, ((0, 0),))
        m_int = lo + np.arange(10)[:, None, None]
        p = np.arange(k)[:, None]
        n_int = k * m_int + p
        assert np.array_equal(m, m_int[:, 0]) and np.array_equal(n, n_int)
        assert np.array_equal(e, (n_int + p - k) * m_int)

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_first_orders_take_exact_weights(self, k):
        # a few-point block of first orders contracts its terms with 1,
        # 2*pi*i*n and pi*i*E, stored conjugated for np.vecdot, and takes no
        # moment steps; a second order or a chained block keeps the moments
        lo = np.array([-3, 0, 2])
        _, _, (n, e), weights, coefs = th_mod._block_constants(k, lo, 6, VALUE_W_TAU)
        assert coefs is None
        assert np.array_equal(weights.conj(), [np.ones(n.shape), 2j * math.pi * n, 1j * math.pi * e])
        second = th_mod._block_constants(k, lo, 6, ((0, 0), (1, 0), (2, 0)))
        chained = th_mod._block_constants(k, np.zeros(th_mod.FEW_POINTS, dtype=int), 6, VALUE_W_TAU)
        for consts in (second, chained):
            assert consts[3] is None and consts[4] is not None

    def test_chained_blocks_take_no_tables(self):
        lo = np.zeros(th_mod.FEW_POINTS, dtype=int)
        assert th_mod._block_constants(3, lo, 5, ((0, 0),))[2] is None
        assert th_mod._block_constants(3, lo[1:], 5, ((0, 0),))[2] is not None


def classical_arguments():
    """Theta arguments with Re z up to +-3.7 and Re tau up to +-2.6."""
    rng = np.random.default_rng(8)
    z = rng.uniform(-3.7, 3.7, 40) + 1j * rng.uniform(-0.6, 0.6, 40)
    tau = rng.uniform(-2.6, 2.6, 40) + 1j * rng.uniform(0.4, 2.0, 40)
    z[:4] = [3.7 + 0.3j, -3.7 - 0.2j, 3.7 - 0.5j, -3.7 + 0.45j]
    tau[:4] = [2.6 + 1j, -2.6 + 0.7j, -2.6 + 1.5j, 2.6 + 0.5j]
    return z, tau


def absolute_series(z, tau, z_order, tau_order, n=40):
    """sum_n |term_n| |2 pi n|^z_order |pi n (n-1)|^tau_order, the roundoff scale."""
    idx = np.arange(-n, n + 1)
    quad = idx * (idx - 1)
    mag = np.exp(-2 * np.pi * idx * z.imag[:, None] - np.pi * quad * tau.imag[:, None])
    return (mag * np.abs(2 * np.pi * idx) ** z_order * np.abs(np.pi * quad) ** tau_order).sum(1)


def count_calls(monkeypatch, *names):
    """Counters of the calls made to the named ``ktheta.theta`` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(th_mod, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(th_mod, name, counting)
    return calls


class TestOneEngine:
    """The classical series is the k = 1 view of the degree-k kernel."""

    def test_matches_symmetric_oracle(self):
        # unreduced symmetric sums against the kernel's reduced ones
        z, tau = classical_arguments()
        got = th_mod._eval_series(z, tau, DEFAULT_POLICY, ALL_ORDERS)
        want = _eval_series(z, tau, DEFAULT_POLICY, ALL_ORDERS)
        assert len(got) == len(ALL_ORDERS)
        for g, r in zip(got, want):
            assert g.shape == r.shape == z.shape
            assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()
        # the public batched theta is this view, with the policy last
        for g, b in zip(theta_batch(z, tau, ALL_ORDERS, DEFAULT_POLICY), got):
            assert np.array_equal(g, b)

    def test_widened_window_differs_by_at_most_epsilon(self, monkeypatch):
        # For k = 1 every requested order's discarded tail is certified to at
        # most epsilon.  Roundoff allowance: 1e-14 of the point's absolute
        # series sum_n |term_n * weight_n|.
        z, tau = classical_arguments()
        got = th_mod._eval_series(z, tau, DEFAULT_POLICY, ALL_ORDERS)
        window = th_mod._basis_window

        def widened(*args):
            lo, length = window(*args)
            return lo - 3, length + 6

        monkeypatch.setattr(th_mod, "_basis_window", widened)
        ref = th_mod._eval_series(z, tau, DEFAULT_POLICY, ALL_ORDERS)
        for g, r, (zo, to) in zip(got, ref, ALL_ORDERS):
            roundoff = 1e-14 * absolute_series(z, tau, zo, to)
            assert np.all(np.abs(g - r) <= DEFAULT_POLICY.epsilon + roundoff)

    @pytest.mark.parametrize("evaluate", [
        lambda: theta_batch(0.3 + 0.1j, 0.2 + 1j),
        lambda: theta_batch(0.3 + 0.1j, 0.2 + 1j, [(1, 1)]),
        lambda: theta_degree_k_batch(3, 0.3 + 0.1j, 0.2 + 1j, [(0, 0), (1, 0)]),
        lambda: sections_mod.shift_product([(0.1, 0.0), (0.2j, 0.0), (-0.1 - 0.2j, 0.0)],
                                           KTPoint(0.0, 0.0, 0.3, 0.0).as_array()),
    ], ids=["theta", "theta_deriv", "theta_degree_k", "classical_product"])
    def test_one_kernel_call_per_scalar(self, evaluate, monkeypatch):
        calls = count_calls(monkeypatch, "_degree_basis_batch")
        evaluate()
        assert calls == {"_degree_basis_batch": 1}

    @pytest.mark.parametrize("evaluate", [
        lambda: sections_mod.shift_product([(0.1, 0.2), (-0.1, -0.2)],
                                           fundamental_domain_samples(5, 1)),
        lambda: checks_mod.check_zero_locus(checks_mod.RunConfig()),
        lambda: checks_mod.check_quasi_periodicity(checks_mod.RunConfig()),
    ], ids=["shift_product", "zero_locus", "quasi_periodicity"])
    def test_one_series_call_per_batch(self, evaluate, monkeypatch):
        calls = count_calls(monkeypatch, "_eval_series", "_degree_basis_batch")
        evaluate()
        assert calls == {"_eval_series": 1, "_degree_basis_batch": 1}


class TestDegreeKBatch:
    """The public degree-k entry: the kernel behind the argument checks."""

    @pytest.mark.parametrize("k, named", [
        (0, "got 0"), (2.0, "got 2.0"), (-1, "got -1"), (np.float64(3), "got np.float64(3.0)"),
    ])
    def test_bad_degree_rejected(self, k, named):
        with pytest.raises(ValueError, match=re.escape(
                f"degree k must be an int of at least 1, {named}")):
            theta_degree_k_batch(k, 0.1 + 0.2j, 1j)

    @pytest.mark.parametrize("orders, named", [
        ([(2, -1)], "derivative order (2, -1) is not a pair of nonnegative ints"),
        ([(0.5, 0)], "derivative order (0.5, 0) is not a pair of nonnegative ints"),
        ([(1, 0, 0)], "derivative order (1, 0, 0) is not a pair of nonnegative ints"),
        ([1], "derivative order 1 is not a pair of nonnegative ints"),
        ([], "orders must hold at least one (z_order, tau_order) pair"),
    ])
    def test_malformed_orders_rejected(self, orders, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            theta_degree_k_batch(3, 0.1 + 0.2j, 1j, orders)

    @pytest.mark.parametrize("w, tau", [
        (0.1, 0.3 - 0.2j), (0.1, 2.0), (np.array([0.1, 0.2]), np.array([1j, -1j])),
        (np.nan, 1j), (0.1, np.inf + 1j), (complex(0.1, np.inf), 1j),
    ])
    def test_invalid_arguments_rejected(self, w, tau):
        with pytest.raises(InvalidModulus, match=f"^{re.escape(INVALID)}$"):
            theta_degree_k_batch(3, w, tau)

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("orders", [((0, 0),), VALUE_W_TAU])
    def test_output_shape(self, k, orders):
        rng = np.random.default_rng(8)
        w = rng.random(5) + 1j * (rng.random(5) - 0.5)
        tau = (rng.random(3) - 0.5) + 1j * (0.5 + rng.random(3))
        lead = (len(orders), k)
        assert theta_degree_k_batch(k, w[0], tau[0], orders).shape == lead
        assert theta_degree_k_batch(k, w, 1j, orders).shape == lead + (5,)
        grid = theta_degree_k_batch(k, w[:, None], tau, orders)
        assert grid.shape == lead + (5, 3)
        for i, j in ((0, 0), (4, 2), (2, 1)):
            one = theta_degree_k_batch(k, w[i], tau[j], orders)
            # to roundoff of each row's largest entry: the batch shares one
            # window length, and the d/dtau moment step leaks 1.3e-13 here
            scale = np.abs(one).max(axis=-1, keepdims=True)
            assert np.all(np.abs(grid[..., i, j] - one) <= 1e-12 * scale)

    @pytest.mark.parametrize("where", sorted(KERNEL_POINT_SETS))
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_matches_factor_bit_for_bit(self, k, where):
        pts = KERNEL_POINT_SETS[where]()
        args = {"fiber": (pts[:, 2] + 1j * pts[:, 0], pts[:, 1] + 1j),
                "base": (pts[:, 1] + 1j * pts[:, 3], sections_mod.BASE_TAU)}
        for name, (w, tau) in args.items():
            assert np.array_equal(sections_mod.factor(name, k, pts),
                                  theta_degree_k_batch(k, w, tau)[0].T)
        # the fiber's value and derivative rows, as the partials take them
        vals, rows, _ = sections_mod.factor("fiber", k, pts, axes=sections_mod.AXES)
        want = theta_degree_k_batch(k, *args["fiber"], VALUE_W_TAU)
        assert np.array_equal(vals, want[0].T)
        assert np.array_equal(rows, want[1:].transpose(2, 0, 1))

    def test_theta_batch_is_its_degree_one_view(self):
        z, tau = classical_arguments()
        for orders in (((0, 0),), ALL_ORDERS, ORDERS_TO_2_1):
            got = theta_batch(z, tau, orders)
            want = theta_degree_k_batch(1, z, tau, orders)[:, 0]
            assert len(got) == len(want) == len(orders)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


@pytest.mark.xfail(reason=(
    "ROADMAP item 6: far off the domain the kernel's values overflow to NaN with no "
    "warning and no typed error; theta at Im z = 20 is NaN and at Im z = 15 6e286"))
def test_far_argument_is_finite_or_typed():
    # the public entries at Im z = 20, Im tau = 1: a finite value or a typed
    # error, with numpy's warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: theta_batch(0.1 + 20j, 1j)[0],
                     lambda: theta_degree_k_batch(3, 0.1 + 20j, 1j)[0]):
            try:
                value = call()
            except KThetaError:
                continue
            assert np.isfinite(value).all()


class TestAsymmetricTailBound:
    @pytest.mark.parametrize("y_lo,y_hi,im_tau,lo,hi", [
        (-1.3, 0.4, 0.9, -3, 5),
        (-1.3, 0.4, 0.9, 2, 7),
        (-1.3, 0.4, 0.9, -1, 0),
        (10.0, 11.5, 0.9, -16, -4),  # window and peak below zero
        (-11.5, -10.0, 0.9, 4, 16),  # and above
    ])
    @pytest.mark.parametrize("orders", [((0, 0),), ((1, 0),), ((0, 1),), ((1, 0), (0, 1)),
                                        ((2, 0),), ((1, 1),), ((0, 2),)])
    def test_bounds_dominate_actual_tails(self, y_lo, y_hi, im_tau, lo, hi, orders):
        m = np.arange(-300, 301)
        quad = m * (m - 1)
        bounds = th_mod._tail_bound_arrays([y_lo, y_hi], im_tau, [-lo, hi], orders)
        for y in np.linspace(y_lo, y_hi, 7):
            mag = np.exp(-2.0 * math.pi * m * y - math.pi * quad * im_tau)
            for zo, to in orders:
                terms = mag * np.abs(2 * math.pi * m) ** zo * np.abs(math.pi * quad) ** to
                assert bounds[0] >= terms[m < lo].sum() * (1 - 1e-12)
                assert bounds[1] >= terms[m > hi].sum() * (1 - 1e-12)


class TestPackageSurface:
    def test_theta_is_the_submodule(self):
        import sys

        import ktheta
        from ktheta import theta as theta_attr

        assert theta_attr is sys.modules["ktheta.theta"] is ktheta.theta is th_mod
        assert ktheta.theta.theta_batch is ktheta.theta_batch is theta_batch

    def test_root_exports_the_documented_surface(self):
        import types

        import ktheta
        import ktheta.errors as errors

        error_classes = {name for name, c in vars(errors).items()
                         if isinstance(c, type) and issubclass(c, errors.KThetaError)}
        readme = {"KTPoint", "SectionIndex", "ZetaShift", "section", "shift_product",
                  "fit_in_span", "fundamental_domain_samples", "phi", "psi_prime",
                  "psi_double_prime", "chordal_distances", "fs_pullback",
                  "chern_via_multiplicators", "theta_batch"}
        perfbench = {"BasisTorus", "GroupWord", "KTPoint", "KThetaError", "RunConfig", "act",
                     "fs_pullback", "injectivity_scan", "integrate_over_torus", "phi",
                     "phi_batch", "projective_rank", "reduce_point"}
        exported = {name for name, v in vars(ktheta).items()
                    if not name.startswith("_") and not isinstance(v, types.ModuleType)}
        assert exported == readme | perfbench | error_classes
        assert len(exported) == 31

    # removed single-point wrappers, the errors only they raised, an empty
    # subclass, and settings only tests turned; a dotted name is an attribute
    # of a class
    @pytest.mark.parametrize("module, name", [
        ("ktheta.theta", "tail_bound"), ("ktheta.theta", "classical_product"),
        ("ktheta.sections", "theta_kt"), ("ktheta.sections", "zeta_action"),
        ("ktheta.sections", "product_of_shifts"), ("ktheta.sections", "separating_value"),
        ("ktheta.sections", "section_gradient"), ("ktheta.embedding", "JacobianMatrix"),
        ("ktheta.embedding", "jacobian"), ("ktheta.embedding", "generator_invariance_residual"),
        ("ktheta.symplectic", "exterior_derivative_residual"),
        ("ktheta.symplectic", "decompose_left_invariant"),
        ("ktheta.symplectic", "LeftInvariantDecomposition"), ("ktheta.manifold", "two_form"),
        ("ktheta.manifold", "omega_kt"), ("ktheta.errors", "ShiftSumNonzero"),
        ("ktheta", "ShiftSumNonzero"), ("ktheta.symplectic", "PullbackForm"),
        ("ktheta.sections", "factors"), ("ktheta.sections", "chain"),
        ("ktheta.theta", "TruncationPolicy.max_terms"), ("ktheta.checks", "RunConfig.max_terms"),
        ("ktheta.symplectic", "BasisTorus.basepoint"),
        ("ktheta.symplectic", "BasisTorus.validate_closure"),
        ("ktheta.errors", "TorusNotClosed"), ("ktheta", "TorusNotClosed"),
        ("ktheta.symplectic", "chern_for_generator_pair"),
        ("ktheta.errors", "NonCommutingPair"), ("ktheta", "NonCommutingPair"),
        ("ktheta.cli", "injectivity"), ("ktheta.theta", "theta"), ("ktheta.theta", "theta_deriv"),
        ("ktheta.theta", "theta_zero"), ("ktheta.theta", "theta_degree_k"),
        ("ktheta.theta", "theta_degree_k_deriv"), ("ktheta.theta", "ThetaArgument"),
        ("ktheta.theta", "ThetaBasisIndex"), ("ktheta.embedding", "segre"),
        ("ktheta.manifold", "multiplicator"), ("ktheta.manifold", "quotient_distance"),
        ("ktheta.sections", "separating_section"), ("ktheta.sections", "SeparationResult.zetas"),
        ("ktheta.errors", "SearchFailed"), ("ktheta", "SearchFailed"),
    ])
    def test_removed_name_is_absent(self, module, name):
        import importlib

        owner = importlib.import_module(module)
        *path, attr = name.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert not hasattr(owner, attr)

    @pytest.mark.parametrize("module", sorted(
        p.stem for p in Path(th_mod.__file__).parent.glob("*.py") if p.stem != "__init__"))
    def test_every_import_is_used(self, module):
        import ast

        tree = ast.parse((Path(th_mod.__file__).parent / f"{module}.py").read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and
                    getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used == set()

    @pytest.mark.parametrize("module", sorted(
        p.stem for p in Path(th_mod.__file__).parent.glob("*.py") if p.stem != "__init__"))
    def test_every_function_has_a_caller(self, module):
        # Each top-level function or class is named outside its own definition:
        # elsewhere in the package (the root imports included), in perfbench or
        # in a README python block.  Suites and commands are reached through
        # their registries.  Names in strings do not count.
        import ast

        registrars = {"suite", "main.command", "click.group"}
        package = Path(th_mod.__file__).parent
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text()

        def identifiers(tree, skip=None):
            found, stack = set(), [tree]
            while stack:
                node = stack.pop()
                if node is skip:
                    continue
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.alias):
                    found.add(node.name.rsplit(".", 1)[-1])
                stack.extend(ast.iter_child_nodes(node))
            return found

        def registered(node):
            return any(ast.unparse(getattr(d, "func", d)) in registrars
                       for d in node.decorator_list)

        others = [p.read_text() for p in package.glob("*.py") if p.stem != module]
        others += [p.read_text() for p in (root / "perfbench").glob("*.py")]
        others += re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
        elsewhere = set().union(*(identifiers(ast.parse(src)) for src in others))
        tree = ast.parse((package / f"{module}.py").read_text())
        uncalled = {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not registered(node)
                    and node.name not in elsewhere | identifiers(tree, skip=node)}
        assert uncalled == set()
