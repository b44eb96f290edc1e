"""Theta series core: oracles are independent brute-force summations."""

import math
from pathlib import Path

import numpy as np
import pytest

import ktheta.checks as checks_mod
import ktheta.sections as sections_mod
import ktheta.theta as th_mod
from ktheta import (
    GroupWord,
    InvalidModulus,
    KTPoint,
    TailNotConverged,
    fundamental_domain_samples,
    theta_batch,
)
from ktheta.theta import (
    DEFAULT_POLICY,
    ThetaArgument,
    ThetaBasisIndex,
    TruncationPolicy,
    theta,
    theta_degree_k,
    theta_degree_k_deriv,
    theta_deriv,
    theta_zero,
)

from ktheta.manifold import act


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
        val = theta(ThetaArgument(z, tau))
        assert abs(val - brute_theta(z, tau)) < 1e-12 * max(1.0, abs(val))

    def test_reference_value_at_origin(self):
        # sum over n of exp(pi i n(n-1) i) = 1 + 2*(e^-2pi + e^-6pi + ...)... direct
        assert abs(theta(ThetaArgument(0.0, 1j)) - brute_theta(0.0, 1j)) < 1e-14

    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    @pytest.mark.parametrize("zo,to", [(1, 0), (2, 0), (0, 1), (1, 1)])
    def test_derivatives_against_brute_force(self, z, tau, zo, to):
        val = theta_deriv(ThetaArgument(z, tau), zo, to)
        ref = brute_theta(z, tau, z_order=zo, tau_order=to)
        assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))

    def test_derivative_against_finite_difference(self):
        z, tau = 0.27 + 0.11j, 0.2 + 1.1j
        h = 1e-5
        fd = (theta(ThetaArgument(z + h, tau)) - theta(ThetaArgument(z - h, tau))) / (2 * h)
        an = theta_deriv(ThetaArgument(z, tau), 1, 0)
        assert abs(fd - an) / abs(an) < 1e-6

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulus):
            ThetaArgument(0.0, 1.0 - 0.5j)
        with pytest.raises(InvalidModulus):
            ThetaArgument(0.0, 2.0)


class TestQuasiPeriodicity:
    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    def test_period_one(self, z, tau):
        a = theta(ThetaArgument(z + 1, tau))
        b = theta(ThetaArgument(z, tau))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    def test_tau_quasi_period(self, z, tau):
        a = theta(ThetaArgument(z + tau, tau))
        b = np.exp(-2j * np.pi * z) * theta(ThetaArgument(z, tau))
        assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


class TestHeatEquation:
    @pytest.mark.parametrize("z,tau", SAMPLE_ARGS)
    def test_pde(self, z, tau):
        arg = ThetaArgument(z, tau)
        dt = theta_deriv(arg, 0, 1)
        dzz = theta_deriv(arg, 2, 0)
        dz = theta_deriv(arg, 1, 0)
        assert abs(dt - dzz / (4j * math.pi) + dz / 2.0) < 1e-9


class TestZeroLocus:
    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.8j, -0.4 + 1.7j])
    def test_zero_and_translates(self, tau):
        z0 = theta_zero(tau)
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                assert abs(theta(ThetaArgument(z0 + m + n * tau, tau))) < 1e-10

    def test_theta_zero_requires_valid_modulus(self):
        with pytest.raises(InvalidModulus):
            theta_zero(1.0)


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

    def test_not_converged(self):
        # enormous Im z forces a window beyond the cap
        policy = TruncationPolicy(1e-14, max_terms=8)
        with pytest.raises(TailNotConverged):
            theta(ThetaArgument(0.5 + 40j, 0.2j), policy)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(-1e-10)
        with pytest.raises(ValueError):
            theta_deriv(ThetaArgument(0.1, 1j), -1, 0)
        with pytest.raises(ValueError):  # a window of no terms
            TruncationPolicy(1e-14, max_terms=0)


class TestDegreeK:
    # k = 16 and 64 make the running product of unit phases over the residues
    # long; the points add the domain's edges, a large Im(tau) and Im(w) < 0
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 16, 64])
    def test_against_direct_m_sum(self, k):
        for z, tau in [(0.21 + 0.13j, 0.3 + 1.2j), (0.4 + 0.9j, 0.7 + 1j), (0.1, 1j),
                       (0.33 + 2.5j, 0.2 + 40j), (0.6 - 1.7j, -0.4 + 3j)]:
            for p in range(k):
                val = theta_degree_k(ThetaBasisIndex(k, p), ThetaArgument(z, tau))
                ref = brute_degree_k(k, p, z, tau)
                assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))

    def test_degree_one_reduces_to_theta(self):
        z, tau = 0.37 - 0.21j, 0.8j
        a = theta_degree_k(ThetaBasisIndex(1, 0), ThetaArgument(z, tau))
        assert abs(a - theta(ThetaArgument(z, tau))) < 1e-13

    @pytest.mark.parametrize("k", [2, 3])
    def test_degree_k_quasi_periodicity(self, k):
        z, tau = 0.14 + 0.2j, 0.1 + 1.3j
        for p in range(k):
            idx = ThetaBasisIndex(k, p)
            same = theta_degree_k(idx, ThetaArgument(z + 1, tau))
            base = theta_degree_k(idx, ThetaArgument(z, tau))
            assert abs(same - base) < 1e-11 * max(1.0, abs(base))
            shifted = theta_degree_k(idx, ThetaArgument(z + tau, tau))
            expected = np.exp(-2j * np.pi * k * z) * base
            assert abs(shifted - expected) < 1e-10 * max(1.0, abs(expected))

    def test_basis_rank_is_k(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 4, 5):
            zs = rng.random(8 * k) + 1j * 0.3 * (rng.random(8 * k) - 0.5)
            mat = np.array(
                [
                    [theta_degree_k(ThetaBasisIndex(k, p), ThetaArgument(z, 1j)) for z in zs]
                    for p in range(k)
                ]
            )
            sv = np.linalg.svd(mat, compute_uv=False)
            assert (sv > 1e-8 * sv[0]).sum() == k

    def test_deriv_triple_consistent(self):
        idx = ThetaBasisIndex(3, 1)
        arg = ThetaArgument(0.22 + 0.1j, 0.1 + 1.1j)
        val, dz, dtau = theta_degree_k_deriv(idx, arg)
        assert abs(val - theta_degree_k(idx, arg)) < 1e-12 * max(1.0, abs(val))
        h = 1e-5
        fd_z = (
            theta_degree_k(idx, ThetaArgument(arg.z + h, arg.tau))
            - theta_degree_k(idx, ThetaArgument(arg.z - h, arg.tau))
        ) / (2 * h)
        fd_t = (
            theta_degree_k(idx, ThetaArgument(arg.z, arg.tau + h))
            - theta_degree_k(idx, ThetaArgument(arg.z, arg.tau - h))
        ) / (2 * h)
        assert abs(fd_z - dz) / max(1.0, abs(dz)) < 1e-6
        assert abs(fd_t - dtau) / max(1.0, abs(dtau)) < 1e-6

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ThetaBasisIndex(0, 0)
        with pytest.raises(ValueError):
            ThetaBasisIndex(2, 2)
        with pytest.raises(ValueError):
            ThetaBasisIndex(2, -1)


def classical_products(shifts, zs, tau):
    """prod_i theta(z + a_i, tau) at each z in ``zs``, from one ``theta_batch`` call."""
    return theta_batch(np.asarray(zs)[..., None] + np.asarray(shifts), tau)[0].prod(axis=-1)


def degree_k_fit_residual(shifts, zs, tau):
    """Relative residual of the classical product against the degree-k span, k = len(shifts)."""
    k = len(shifts)
    vals = classical_products(shifts, zs, tau)
    design = np.array(
        [[theta_degree_k(ThetaBasisIndex(k, p), ThetaArgument(z, tau)) for p in range(k)]
         for z in zs]
    )
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
        arg = ThetaArgument(0.31 + 0.07j, 0.9j)
        assert abs(classical_products([0.0], arg.z, arg.tau) - theta(arg)) < 1e-13


class TestBatchedEvaluator:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        zs = rng.random(50) + 1j * (rng.random(50) - 0.5)
        taus = (rng.random(50) - 0.5) + 1j * (0.5 + rng.random(50))
        batch = th_mod._eval_series(zs, taus, DEFAULT_POLICY, [(0, 0)])[0]
        for i in range(0, 50, 7):
            scalar = theta(ThetaArgument(zs[i], taus[i]))
            assert abs(batch[i] - scalar) < 1e-12 * max(1.0, abs(scalar))


# The symmetric-window series the one engine replaced, verbatim: a window
# [-N, N] searched until its certified tail is <= epsilon, shared by the batch,
# and one weighted sum per requested order.
_tail_bound_arrays = th_mod._tail_bound_arrays


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


def loop_degree_basis(k, ws, taus, policy, want_tau=False):
    """Oracle: the per-residue loop the one-pass kernel replaced, verbatim.

    Each residue p sums theta(k*w + p*tau, k*tau) through the symmetric
    ``_eval_series`` above on its own window and multiplies by its phase.
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
        parts = _eval_series(big_z, big_t, policy, orders)
        th, th_z = parts[0], parts[1]
        phase = np.exp(2j * math.pi * p * ws)
        vals[p] = phase * th
        dws[p] = 2j * math.pi * p * vals[p] + k * phase * th_z
        if want_tau:
            dtaus[p] = phase * (p * th_z + k * parts[2])
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


POINT_SETS = {
    "fundamental": lambda: fundamental_domain_samples(64, 17),
    "moved": lambda: moved_points(64, 18),
}


VALUE_W_TAU = ((0, 0), (1, 0), (0, 1))


class TestDegreeBasisKernel:
    @pytest.mark.parametrize("where", sorted(POINT_SETS))
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_matches_residue_loop(self, k, where):
        w, tau = factor_arguments(POINT_SETS[where]())
        got = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        want = loop_degree_basis(k, w, tau, DEFAULT_POLICY, want_tau=True)
        for g, r in zip(got, want):
            assert g.shape == r.shape == (k, len(w))
            assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()

    def test_values_only_call_matches(self):
        w, tau = factor_arguments(moved_points(16, 4))
        full = th_mod._degree_basis_batch(5, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
        for orders in (VALUE_W_TAU[:1], VALUE_W_TAU[:2], VALUE_W_TAU[::-1]):
            got = th_mod._degree_basis_batch(5, w, tau, DEFAULT_POLICY, orders)
            assert len(got) == len(orders)
            for g, order in zip(got, orders):
                want = full[VALUE_W_TAU.index(order)]
                assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("k", [1, 3, 8, 16])
    def test_widened_window_differs_by_at_most_epsilon(self, k, monkeypatch):
        # The certificate bounds the discarded tail of each residue's inner
        # series theta(k*w + p*tau, k*tau) and of its termwise d/dz, d/dtau
        # by epsilon.  theta_k^p is that series times exp(2 pi i p w), and
        # d/dw, d/dtau are (2 pi i p) theta_k^p + k e^{..} theta_z and
        # e^{..} (p theta_z + k theta_tau), so the truncation error of the
        # three outputs is at most |e^{..}| (1, 2 pi p + k, p + k) epsilon.
        # Roundoff allowance: 1e-14 of the point's largest |entry|.
        # Both argument shapes: concatenated and stacked as ``factor`` stacks.
        eps = DEFAULT_POLICY.epsilon
        window = th_mod._basis_window

        def widened(*args):
            lo, length = window(*args)
            return lo - 3, length + 6

        for w, tau in argument_shapes(np.vstack([fundamental_domain_samples(32, 3),
                                                 moved_points(32, 5)])):
            got = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
            with monkeypatch.context() as patch:
                patch.setattr(th_mod, "_basis_window", widened)
                ref = th_mod._degree_basis_batch(k, w, tau, DEFAULT_POLICY, VALUE_W_TAU)
            p = np.arange(k).reshape((k,) + (1,) * w.ndim)
            phase = np.exp(-2.0 * math.pi * p * w.imag)
            for g, r, factor in zip(got, ref, (1.0, 2.0 * math.pi * p + k, p + k)):
                roundoff = 1e-14 * np.abs(r).max(axis=0)
                assert np.all(np.abs(g - r) <= factor * phase * eps + roundoff)

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_window_certified_for_every_residue(self, k, monkeypatch):
        # Both argument shapes: the concatenated arguments directly, and the
        # window the kernel takes for them stacked as ``factor`` stacks them.
        flat, stacked = argument_shapes(np.vstack([fundamental_domain_samples(32, 3),
                                                   moved_points(32, 5)]))
        window = th_mod._basis_window
        taken = []

        def recording(*args):
            taken.append((args, window(*args)))
            return taken[-1][1]

        monkeypatch.setattr(th_mod, "_basis_window", recording)
        recording(k, flat[0].imag, flat[1].imag, DEFAULT_POLICY, VALUE_W_TAU)
        th_mod._degree_basis_batch(k, *stacked, DEFAULT_POLICY, VALUE_W_TAU)
        assert len(taken) == 2
        for (_, im_w, im_tau, _, _), (lo, length) in taken:
            assert im_w.shape == lo.shape == (flat[0].size,)
            for p in range(k):
                y = k * im_w + p * im_tau
                bounds = th_mod._tail_bound_arrays([y, y], k * im_tau, [-lo, lo + length - 1],
                                                   VALUE_W_TAU)
                assert np.all(bounds <= 0.5 * DEFAULT_POLICY.epsilon)

    @pytest.mark.parametrize("orders", [((0, 0),), VALUE_W_TAU, ((2, 0), (1, 1))])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_cell_windows_certified_over_their_cells(self, k, orders):
        # Sampled points of each cell of Im(w), edges included, at Im(tau) = 1:
        # for every residue the cell's window leaves at most epsilon / 2 on
        # each side, for the requested orders and those every cell carries.
        key = tuple(sorted(th_mod._CELL_ORDERS.union(orders)))
        lo, length = th_mod._cell_windows(k, DEFAULT_POLICY, key)
        assert lo.shape == (th_mod.CELLS,)
        rng = np.random.default_rng(k)
        for cell in range(th_mod.CELLS):
            im_w = (cell + np.r_[0.0, rng.random(30), 1.0]) / th_mod.CELLS
            outward = np.array([-lo[cell], lo[cell] + length - 1])[:, None]
            for p in range(k):
                y = k * im_w + p
                bounds = th_mod._tail_bound_arrays([y, y], float(k), outward, key)
                assert np.all(bounds <= 0.5 * DEFAULT_POLICY.epsilon)

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
        for gradients in (False, True):
            sections_mod.factors(16, pts, gradients=gradients)
        assert calls == {"_eval_series": 0, "_degree_basis_batch": 2}

    @pytest.mark.parametrize("where", sorted(POINT_SETS))
    @pytest.mark.parametrize("k", [1, 3, 8, 16])
    def test_stacked_factors_match_single_factor_calls(self, k, where):
        # The stacked call shares one window length between the factors, so
        # it may sum more terms than a single call: equal up to roundoff, 1e-14
        # of the point's largest entry.
        pts = POINT_SETS[where]()
        vals, partials = sections_mod.factor(("fiber", "base"), k, pts, gradients=True)
        assert vals.shape == (2, len(pts), k) and partials.shape == (2, len(pts), 4, k)
        for f, which in enumerate(("fiber", "base")):
            for got, want in zip((vals[f], partials[f]),
                                 sections_mod.factor(which, k, pts, gradients=True)):
                scale = np.abs(want).reshape(len(pts), -1).max(axis=1)
                diff = np.abs(got - want).reshape(len(pts), -1).max(axis=1)
                assert np.isfinite(scale).all() and np.all(diff <= 1e-14 * scale)

    def test_certified_windows_are_padded_without_recertifying(self, monkeypatch):
        # fiber and base windows of one point differ in width; the stacked
        # call pads the narrower one and evaluates the tail bound only once
        calls = count_calls(monkeypatch, "_tail_bound_arrays")
        w, tau = factor_arguments(moved_points(1, 6))
        lo, length = th_mod._basis_window(16, w.imag, tau.imag, DEFAULT_POLICY, VALUE_W_TAU)
        assert calls == {"_tail_bound_arrays": 1}
        widths = [th_mod._basis_window(16, w.imag[i:i + 1], tau.imag[i:i + 1], DEFAULT_POLICY,
                                       VALUE_W_TAU)[1] for i in range(2)]
        assert min(widths) < max(widths) == length

    def test_theta_degree_k_wraps_the_kernel(self):
        w, tau = 0.37 - 1.6j, -0.8 + 1j
        (vals,) = th_mod._degree_basis_batch(4, w, tau, DEFAULT_POLICY, ((0, 0),))
        assert vals.shape == (4,)
        for p in range(4):
            assert theta_degree_k(ThetaBasisIndex(4, p), ThetaArgument(w, tau)) == vals[p]

    def test_window_beyond_max_terms(self):
        policy = TruncationPolicy(1e-14, max_terms=8)
        with pytest.raises(TailNotConverged):
            th_mod._degree_basis_batch(3, np.array([0.1 + 40j]), np.array([1j]), policy,
                                       ((0, 0),))

    @pytest.mark.parametrize("w,tau", [(np.nan, 1j), (0.1, np.inf + 1j), (0.1, 0.3 - 0.2j)])
    def test_invalid_arguments(self, w, tau):
        with pytest.raises(InvalidModulus):
            th_mod._degree_basis_batch(3, w, tau, DEFAULT_POLICY, ((0, 0),))


ALL_ORDERS = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))


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
        lambda: theta(ThetaArgument(0.3 + 0.1j, 0.2 + 1j)),
        lambda: theta_deriv(ThetaArgument(0.3 + 0.1j, 0.2 + 1j), 1, 1),
        lambda: sections_mod.shift_product([(0.1, 0.0), (0.2j, 0.0), (-0.1 - 0.2j, 0.0)],
                                           KTPoint(0.0, 0.0, 0.3, 0.0).as_array()),
    ], ids=["theta", "theta_deriv", "classical_product"])
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
        assert ktheta.theta.theta is theta

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
        assert len(exported) == 34

    # removed single-point wrappers, and the error only they raised
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
        ("ktheta", "ShiftSumNonzero"),
    ])
    def test_removed_name_is_absent(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)

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
