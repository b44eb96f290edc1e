"""Fubini-Study pullbacks, Pfaffians, torus integrals, Chern numbers."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import ktheta
import ktheta.embedding as embedding_module
import ktheta.sections as sections_module
import ktheta.symplectic as symplectic_module
import ktheta.theta as theta_module

from ktheta import (
    BasisTorus,
    GroupWord,
    KTPoint,
    LiftOverflow,
    RunConfig,
    chern_via_multiplicators,
    fs_pullback,
    fundamental_domain_samples,
    integrate_over_torus,
    projective_rank,
)
from ktheta.checks import check_structure_decomposition, check_torus_integrals
from ktheta.manifold import (
    GENERATORS,
    IDENTITY,
    TwoFormAtPoint,
    act,
    act_on_array,
    cocycle_residual,
    inverse,
    multiplicator_batch,
    omega_kt_matrix,
    reduce_point,
)
from ktheta.sections import AXES, factor, section_matrix, section_matrix_with_gradients
from ktheta.symplectic import (
    FS_MAP_IDS,
    MAP_FACTORS,
    MAP_IDS,
    TORUS_AXES,
    balance_weights,
    chern_cocycle,
    decompose_left_invariant_batch,
    exterior_derivative_residuals,
    fs_hermitian,
    fs_normalization,
    fs_pullback_batch,
    hermitian_pullback_batch,
    hermitian_ranks,
    pfaffian,
    pfaffian_batch,
    torus_grid,
    torus_nodes,
    transition_function,
)

U0 = KTPoint(0.31, 0.57, 0.12, 0.83)


class TestFubiniStudyOracle:
    def test_cp1_normalization(self):
        # chart lift (1, w): integral of the FS form over C must be 1
        assert abs(fs_normalization() - 1.0) < 1e-6

    def test_truncated_chart_integral_smaller(self):
        assert fs_normalization(max_radius=1.0) < 1.0

    @pytest.mark.parametrize("radius", [0.0, 0.5, 1.0, 2.0, 10.0])
    def test_truncated_chart_integral_closed_form(self, radius):
        # the chart form is dA / (pi (1 + r^2)^2), so the disc holds r^2 / (1 + r^2)
        assert abs(fs_normalization(max_radius=radius) - radius**2 / (1.0 + radius**2)) < 1e-12

    # these returned 0.5, 1.0 and nan
    @pytest.mark.parametrize("radius, named", [(-1.0, "-1.0"), (-math.inf, "-inf"),
                                               (math.nan, "nan")])
    def test_radius_below_zero_or_nan_rejected(self, radius, named):
        with pytest.raises(ValueError, match=f"^max_radius must be at least 0, got {named}$"):
            fs_normalization(max_radius=radius)

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(ktheta.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, ktheta; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


# The k^2-lift pullback and SVD rank that the factored Hermitian form replaced,
# verbatim.
def _fs_from_lift(vals: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Batched pullback matrices (B, 4, 4) from lifts and their partials.

    The form does not change when a point's lift and partials are scaled
    together, so both are divided by the point's largest |lift entry|
    first: |F|^2 and |F|^4 then stay finite wherever the lift is.
    """
    inv_scale = 1.0 / np.abs(vals).max(axis=1)
    vals = vals * inv_scale[:, None]
    grads = grads * inv_scale[:, None, None]
    n2 = np.einsum("bn,bn->b", vals.conj(), vals).real
    c = np.einsum("bn,bmn->bm", vals.conj(), grads)
    m = np.einsum("bmn,bln->bml", grads, grads.conj())
    b = m / n2[:, None, None] - (c[:, :, None] * c.conj()[:, None, :]) / (n2 * n2)[:, None, None]
    omega = -(1.0 / math.pi) * b.imag
    return 0.5 * (omega - omega.transpose(0, 2, 1))


def _differential_ranks(vals, grads, tol):
    """Rank of the projectivized differential for batched lifts.

    ``vals`` has shape (B, n) and ``grads`` (B, 4, n).  Each lift and its
    partials are divided by the largest |lift entry|, so that the norm
    cannot overflow; the lift is then unit normalized and the partials are
    projected orthogonally to it before the singular values are thresholded
    at tol * sigma_max.  The rank is taken over the reals: the map is real
    4-dimensional while the lift is holomorphic in z + ix, so the partials
    in x and z are complex multiples of each other and a complex SVD would
    report at most 3.  Splitting real
    and imaginary parts gives the rank of the underlying real differential.
    Raises ``LiftOverflow`` naming the rows whose lift or partials are not
    finite.
    """
    inv_scale = 1.0 / np.abs(vals).max(axis=1, keepdims=True)
    vals, grads = vals * inv_scale, grads * inv_scale[:, :, None]
    norms = np.linalg.norm(vals, axis=1, keepdims=True)
    f = vals / norms
    d = grads / norms[:, :, None]
    overlap = np.einsum("bn,bmn->bm", f.conj(), d)
    # A non-finite lift entry makes its row of f NaN, and a non-finite
    # partial its row of overlap, which meets every partial (0 * inf is NaN);
    # scaled partials are far too small to overflow it.  So this finds the
    # non-finite rows without another pass over the partials.
    bad = ~np.isfinite(overlap).all(axis=1)
    if bad.any():
        raise LiftOverflow(f"the lift or its partials are not finite in rows "
                           f"{np.flatnonzero(bad).tolist()}")
    proj = d - overlap[:, :, None] * f[:, None, :]
    proj = np.concatenate([proj.real, proj.imag], axis=2)
    sv = np.linalg.svd(proj, compute_uv=False)
    top = sv[:, :1]
    # absolute floor against the unprojected gradient scale: for a constant
    # map the projection leaves only roundoff, which must count as rank 0
    # rather than be thresholded against itself
    gscale = np.linalg.norm(d, axis=(1, 2))[:, None]
    floor = 1e-10 * np.maximum(gscale, 1.0)
    ranks = (sv > np.maximum(tol * top, floor)).sum(axis=1)
    return ranks


def _factor_partials(k, pts):
    """Stacked fiber and base lifts (2, B, k) and their (d/dx, d/dy, d/dz, d/dt)
    partials (2, B, 4, k), the kernel rows through the chain tables, with the
    point axis innermost in memory, as ``factor`` lays out its arrays."""
    vals, rows, tables = factor(("fiber", "base"), k, pts, axes=AXES)
    grads = np.einsum("fmr,rnfb->mnfb", tables, rows.transpose(2, 3, 0, 1), order="C")
    return vals, grads.transpose(2, 3, 0, 1)


def _oracle_lift(map_id, k, pts):
    """The k^2 lift of phi_k, or the factor lift of psi' or psi''."""
    if map_id == "phi_k":
        return section_matrix_with_gradients(k, pts)
    vals, grads = _factor_partials(k, pts)
    f = 0 if map_id == "psi_prime" else 1
    return vals[f], grads[f]


def _fs_vdot_reference(vals, grads):
    """``fs_hermitian`` point by point from np.vdot, which conjugates its first
    argument: b_{mu nu} = <dF_nu, dF_mu>/|F|^2 - <F, dF_mu><dF_nu, F>/|F|^4,
    over the partials that ``grads`` (B, m, n) holds."""
    rows = grads.shape[1]
    b = np.empty((len(vals), rows, rows), dtype=complex)
    scale = np.empty(len(vals))
    for p, (f, df) in enumerate(zip(vals, grads)):
        n2 = np.vdot(f, f).real
        for mu in range(rows):
            for nu in range(rows):
                b[p, mu, nu] = (np.vdot(df[nu], df[mu]) / n2
                                - np.vdot(f, df[mu]) * np.vdot(df[nu], f) / n2**2)
        scale[p] = sum(np.vdot(d, d).real for d in df) / n2
    return b, scale


def _lift_block(vals, grads):
    """``fs_hermitian``'s block (5, n, 1, B) of lifts (B, n) with their partials
    (B, 4, n) as the rows, which the chain table np.eye(4)[None] passes through."""
    return np.concatenate([vals[:, None], grads], axis=1).transpose(1, 2, 0)[:, :, None]


def _lift_rows(layout, n, pts):
    """Lifts (B, n) and partials (B, 4, n): the stacked factor rows as
    ``factor`` lays them out (point axis innermost), or C-ordered arrays,
    the k^2 lifts where n is a square."""
    if layout == "factor" or math.isqrt(n) ** 2 != n:
        vals, grads = _factor_partials(n, pts)
        vals, grads = vals.reshape(-1, n), grads.reshape(-1, 4, n)
        if layout == "c":
            vals, grads = np.ascontiguousarray(vals), np.ascontiguousarray(grads)
    else:
        vals, grads = section_matrix_with_gradients(math.isqrt(n), pts)
    assert grads.flags.c_contiguous == (layout == "c")
    return vals, grads


class TestFubiniStudyForm:
    @pytest.mark.parametrize("layout", ["factor", "c"])
    @pytest.mark.parametrize("n", [3, 16, 256])
    def test_matches_vdot_reference(self, layout, n):
        vals, grads = _lift_rows(layout, n, fundamental_domain_samples(12, 70 + n))
        b, scale = fs_hermitian(_lift_block(vals, grads), np.eye(4)[None])
        want_b, want_scale = _fs_vdot_reference(vals, grads)
        assert np.all(np.abs(b - want_b) <= 1e-13 * want_scale[:, None, None])
        assert np.all(np.abs(scale - want_scale) <= 1e-13 * want_scale)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanishing_lift_row_is_nan_without_warning(self):
        vals = np.array([[0.0, 0.0, 0.0], [1.0, 2.0j, 0.5]])
        b, scale = fs_hermitian(_lift_block(vals, np.ones((2, 4, 3), dtype=complex)), np.eye(4)[None])
        assert np.isnan(b[0]).all() and np.isnan(scale[0])
        assert np.isfinite(b[1]).all() and np.isfinite(scale[1])


class TestFactoredHermitianForm:
    PTS = fundamental_domain_samples(400, 61)

    @pytest.mark.parametrize("map_id", FS_MAP_IDS)
    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_pullback_matches_lift_oracle(self, map_id, k):
        got = fs_pullback_batch(map_id, k, self.PTS)
        want = _fs_from_lift(*_oracle_lift(map_id, k, self.PTS))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_phi_form_is_sum_of_factor_forms(self, k):
        # the Segre additivity that structure_decomposition used to gate,
        # here against the k^2 lift
        want = _fs_from_lift(*section_matrix_with_gradients(k, self.PTS))
        summed = fs_pullback_batch("psi_prime", k, self.PTS) + fs_pullback_batch(
            "psi_double_prime", k, self.PTS)
        assert np.abs(summed - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("k", [3, 16])
    def test_pfaffian_on_moved_points(self, k):
        rng = np.random.default_rng(7 + k)
        base = fundamental_domain_samples(60, 62 + k)
        moved = np.array([act(GroupWord(*(int(e) for e in rng.integers(-2, 3, 4))),
                              KTPoint.from_array(p)).as_array() for p in base])
        reduced = np.array([reduce_point(KTPoint.from_array(p))[0].as_array() for p in moved])
        pf = pfaffian_batch(fs_pullback_batch("phi_k", k, moved))
        pf0 = pfaffian_batch(fs_pullback_batch("phi_k", k, reduced))
        assert np.abs(pf / pf0 - 1.0).max() <= 1e-8

    @pytest.mark.parametrize("map_id,want", [("phi_k", 4), ("psi_prime", 3),
                                             ("psi_double_prime", 2)])
    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    def test_ranks_match_svd_oracle(self, map_id, want, k):
        ranks = hermitian_ranks(*hermitian_pullback_batch(map_id, k, self.PTS), 1e-6)
        assert np.array_equal(ranks, _differential_ranks(*_oracle_lift(map_id, k, self.PTS), 1e-6))
        if map_id == "psi_prime" and k == 2:
            want = 2
        assert (ranks == want).all()

    def test_ranks_on_k2_lifts_match_svd_oracle(self):
        for k in (3, 16):
            vals, grads = section_matrix_with_gradients(k, self.PTS)
            assert np.array_equal(embedding_module._differential_ranks(vals, grads, 1e-6),
                                  _differential_ranks(vals, grads, 1e-6))

    @pytest.mark.parametrize("map_id", FS_MAP_IDS)
    def test_constant_map_has_rank_zero(self, map_id):
        ranks = hermitian_ranks(*hermitian_pullback_batch(map_id, 1, self.PTS), 1e-6)
        assert not ranks.any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [0.0, 1e-9])
    def test_k1_forms_are_exactly_zero(self, x):
        # phi_1 and psi' map to CP^0, so their form is exactly 0; beside the
        # lift's zero (x = 0, z = 1/2) the projected formula divides roundoff
        # by |F|^2 (dy^dz = 10.19 at x = 0, 40.7 at x = 1e-9).  Both kernel
        # paths: one row, and the point among FEW_POINTS or more
        u = KTPoint(x, 0.3, 0.5, 0.4)
        many = np.tile(u.as_array(), (theta_module.FEW_POINTS + 8, 1))
        for map_id in FS_MAP_IDS:
            assert not fs_pullback(map_id, 1, u).matrix.any()
            for pts in (u.as_array(), many):
                assert not fs_pullback_batch(map_id, 1, pts).any()
                assert not hermitian_ranks(*hermitian_pullback_batch(map_id, 1, pts), 1e-6).any()
        assert projective_rank(1, u) == 0

    @pytest.mark.parametrize("map_id", FS_MAP_IDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 64])
    def test_few_point_gram_matches_the_batch_contractions(self, k, map_id):
        # each factor's form is one Gram of its kernel block: here of 8
        # points' few-point kernel block against the same points inside a
        # 40-point batch, whose kernel block chains its phases
        pts = fundamental_domain_samples(40, 80 + k)
        b, scale = hermitian_pullback_batch(map_id, k, pts[::5])
        want_b, want_scale = (x[::5] for x in hermitian_pullback_batch(map_id, k, pts))
        assert np.all(np.abs(b - want_b) <= 1e-13 * want_scale[:, None, None])
        assert np.all(np.abs(scale - want_scale) <= 1e-13 * want_scale)
        assert np.array_equal(hermitian_ranks(b, scale, 1e-6),
                              hermitian_ranks(want_b, want_scale, 1e-6))

    def test_tol_below_metric_resolution_rejected(self):
        with pytest.raises(ValueError, match="at least 1e-07"):
            projective_rank(3, U0, tol=5e-8)

    def test_tol_rejected_before_any_kernel_call(self, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel block ran before the tol check")

        monkeypatch.setattr(theta_module, "_series_block", no_kernel)
        with pytest.raises(ValueError, match="at least 1e-07: the metric squares the singular"):
            projective_rank(3, U0, tol=5e-8)

    @pytest.mark.parametrize("n", [3, 40])  # either side of FEW_POINTS
    @pytest.mark.parametrize("map_id", FS_MAP_IDS)
    def test_stacked_point_arrays_rejected_before_any_kernel_call(self, monkeypatch, map_id, n):
        # (2, n, 4) points: a ValueError naming the shape, not numpy's
        # "axes don't match array" from the hermitian assembly
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel block ran on a stacked point array")

        monkeypatch.setattr(theta_module, "_series_block", no_kernel)
        pts = np.full((2, n, 4), 0.25)
        for call in (hermitian_pullback_batch, fs_pullback_batch):
            with pytest.raises(ValueError, match=re.escape(
                    f"points must have shape (B, 4), got (2, {n}, 4)")):
                call(map_id, 3, pts)

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3), (7,), (2, 3, 4)])
    @pytest.mark.parametrize("map_id", MAP_IDS)
    def test_bad_point_shapes_rejected_for_every_map(self, map_id, shape):
        # omega_kt too: it used to build forms from (2, 5), (2, 3) and (7,)
        # points and a (2, 3, 4, 4) stack from (2, 3, 4)
        with pytest.raises(ValueError, match=re.escape("points must have shape (") + r".*"
                           + re.escape(f", 4), got {shape}")):
            fs_pullback_batch(map_id, 3, np.ones(shape))

    @pytest.mark.parametrize("n", [1, 500])
    @pytest.mark.parametrize("axes", [(0, 1, 2, 3), (0, 2), (1, 3), (1, 2)])
    @pytest.mark.parametrize("map_id", FS_MAP_IDS)
    @pytest.mark.parametrize("k", [3, 16])
    def test_holomorphic_rows_match_four_row_vdot_reference(self, k, map_id, axes, n):
        # the form from the kernel's rows and the chain table against the
        # per-point vdot form of each factor's four coordinate partials
        pts = fundamental_domain_samples(n, 90 + k)
        b, scale = fs_hermitian(*sections_module._factor_block(MAP_FACTORS[map_id], k, pts, axes=axes))
        vals, grads = _factor_partials(k, pts)
        refs = [_fs_vdot_reference(vals[f], grads[f][:, list(axes)])
                for f, name in enumerate(("fiber", "base")) if name in MAP_FACTORS[map_id]]
        want_b, want_scale = sum(r[0] for r in refs), sum(r[1] for r in refs)
        assert b.shape == (n, len(axes), len(axes)) and scale.shape == (n,)
        assert np.all(np.abs(b - want_b) <= 1e-13 * want_scale[:, None, None])
        assert np.all(np.abs(scale - want_scale) <= 1e-13 * want_scale)

    @pytest.mark.parametrize("axes", [(0, 4), (), (-1,), (0.5,), (1, 1), [0, 1], (True,)])
    def test_invalid_axes_rejected(self, axes):
        with pytest.raises(ValueError, match=re.escape(f"got {axes!r}")):
            factor(("fiber", "base"), 3, self.PTS[:2], axes=axes)

    def test_kernel_orders_follow_axes(self, monkeypatch):
        # T_ca and T_bd need only d/dw rows; T_cb's fiber needs d/dtau for y
        requested = []
        kernel = theta_module._degree_basis_batch

        def recording(k, ws, taus, policy, orders):
            requested.append(tuple(orders))
            return kernel(k, ws, taus, policy, orders)

        monkeypatch.setattr(theta_module, "_degree_basis_batch", recording)
        for tid, want in (("T_ca", ((0, 0), (1, 0))), ("T_bd", ((0, 0), (1, 0))),
                          ("T_cb", ((0, 0), (1, 0), (0, 1)))):
            requested.clear()
            integrate_over_torus("phi_k", 3, BasisTorus(tid), 8)
            assert requested == [want]
        requested.clear()
        hermitian_pullback_batch("psi_double_prime", 3, self.PTS[:5])
        assert requested == [((0, 0), (1, 0))]

    def test_metric_paths_build_no_k2_lift(self, monkeypatch):
        # one kernel block per metric path below (none on T_ad)
        kernel_calls = []
        kernel = theta_module._series_block

        def counting_kernel(*args, **kwargs):
            kernel_calls.append(args[0])
            return kernel(*args, **kwargs)

        def no_lift(*args, **kwargs):
            raise AssertionError("k^2 lift built on a metric path")

        monkeypatch.setattr(theta_module, "_series_block", counting_kernel)
        # sections is the only module that binds it
        monkeypatch.setattr(sections_module, "section_matrix_with_gradients", no_lift)
        for run, want in ((lambda: fs_pullback_batch("phi_k", 16, self.PTS[:5]), 1),
                          (lambda: projective_rank(16, U0), 1),
                          (lambda: integrate_over_torus("phi_k", 3, BasisTorus("T_bd"), 8), 1),
                          (lambda: integrate_over_torus("phi_k", 3, BasisTorus("T_ad"), 8), 0)):
            kernel_calls.clear()
            run()
            assert len(kernel_calls) == want


class TestLiftScaling:
    # off the fundamental domain the k=16 lift reaches |F| ~ 5e91, so |F|^4
    # overflows unless the pullback divides the lift by its largest entry
    U_FAR = act(GroupWord(1, -2, 1, 2), KTPoint(0.3, 0.2, 0.1, 0.4))

    def test_pullback_finite_where_lift_is_large(self):
        form = fs_pullback("phi_k", 16, self.U_FAR)
        assert np.all(np.isfinite(form.matrix))
        reduced = fs_pullback("phi_k", 16, reduce_point(self.U_FAR)[0])
        assert abs(pfaffian(form) / pfaffian(reduced) - 1.0) <= 1e-8
        # the raw point's batched pullback, which fs_pullback does not take
        raw = fs_pullback_batch("phi_k", 16, self.U_FAR.as_array())[0]
        assert np.abs(raw - form.matrix).max() <= 1e-8 * np.abs(raw).max()

    def test_non_finite_lift_raises_typed_error(self):
        far = KTPoint(8.0, 0.2, 0.1, 0.4)  # the raw k=16 lift overflows here
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LiftOverflow):
                hermitian_ranks(*hermitian_pullback_batch("phi_k", 16, far.as_array()), 1e-6)
            assert np.isnan(fs_pullback_batch("phi_k", 16, far.as_array())).all()
        assert np.isfinite(fs_pullback("phi_k", 16, far).matrix).all()  # at reduce_point(far)


class TestPullbackBasics:
    def test_antisymmetric(self):
        form = fs_pullback("phi_k", 3, U0)
        assert np.array_equal(form.matrix, -form.matrix.T)

    def test_omega_kt_map_id(self):
        form = fs_pullback("omega_kt", 3, U0)
        assert np.allclose(form.matrix, omega_kt_matrix(U0.as_array()))
        pts = 4.0 * (fundamental_domain_samples(6, 8) - 0.5)
        mats = fs_pullback_batch("omega_kt", 3, pts)
        assert mats.shape == (6, 4, 4)
        for p, mat in zip(pts, mats):
            assert np.array_equal(mat, omega_kt_matrix(p))

    def test_non_finite_lift_raises(self, monkeypatch):
        # no finite point overflows at the reduced point fs_pullback
        # evaluates, so the kernel block's values are made non-finite by hand
        original = theta_module._series_block

        def non_finite(*args):
            basis = original(*args)
            basis[0] *= np.nan
            return basis

        monkeypatch.setattr(theta_module, "_series_block", non_finite)
        with pytest.raises(LiftOverflow, match=re.escape(
                f"the phi_k lift or its partials are not finite at {U0}")):
            fs_pullback("phi_k", 3, U0)

    def test_unknown_map_rejected(self):
        with pytest.raises(ValueError):
            fs_pullback("nope", 3, U0)

    def test_batch_matches_scalar(self):
        pts = fundamental_domain_samples(4, 31)
        mats = fs_pullback_batch("phi_k", 3, pts)
        for i in range(4):
            single = fs_pullback("phi_k", 3, KTPoint.from_array(pts[i]))
            assert np.allclose(mats[i], single.matrix, rtol=1e-10, atol=1e-12)

    def test_invariant_on_quotient(self):
        # the FS pullback descends: same matrix entries at u and at g.u for
        # translations that do not change x (entries are coordinate forms)
        g = GENERATORS["c"]
        a = fs_pullback("phi_k", 3, U0).matrix
        b = fs_pullback("phi_k", 3, act(g, U0)).matrix
        assert np.allclose(a, b, atol=1e-10)


class TestPfaffian:
    def test_omega_kt_pfaffian_is_one(self):
        pf = pfaffian_batch(omega_kt_matrix(fundamental_domain_samples(10, 3)))
        assert np.all(np.abs(pf - 1.0) < 1e-12)

    def test_matches_determinant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            m = a - a.T
            assert abs(pfaffian_batch(m[None])[0] ** 2 - np.linalg.det(m)) < 1e-10

    def test_phi3_pullback_nondegenerate(self):
        pts = fundamental_domain_samples(200, 77)
        pf = pfaffian_batch(fs_pullback_batch("phi_k", 3, pts))
        assert np.abs(pf).min() > 1e-8
        assert np.all(np.sign(pf) == np.sign(pf[0]))


def decompose(form):
    """``decompose_left_invariant_batch`` of a form at its base point."""
    return decompose_left_invariant_batch(form.point.as_array(), form.matrix)


def wedge(a, b):
    return np.outer(a, b) - np.outer(b, a)


class TestLeftInvariantDecomposition:
    def test_omega_kt_coefficients(self):
        dec = decompose(fs_pullback("omega_kt", 1, U0))
        assert abs(dec["zx"] - 1.0) < 1e-14
        assert abs(dec["yt"] - 1.0) < 1e-14
        for name in ("zy", "xy", "xt", "zt"):
            assert abs(dec[name]) < 1e-14

    def test_roundtrip(self):
        # reassemble the form from the coefficients over the coframe
        # dz - x dy, dx, dy, dt
        form = fs_pullback("phi_k", 3, U0)
        dec = decompose(form)
        theta1, dx, dy, dt = np.array([0.0, -U0.x, 1.0, 0.0]), *np.eye(4)[[0, 1, 3]]
        basis = {"zx": (theta1, dx), "zy": (theta1, dy), "xy": (dx, dy),
                 "yt": (dy, dt), "xt": (dx, dt), "zt": (theta1, dt)}
        assert set(dec) == set(basis)
        reassembled = sum(dec[name] * wedge(*pair) for name, pair in basis.items())
        assert np.allclose(reassembled, form.matrix, atol=1e-12)

    def test_psi_double_prime_is_pure_base(self):
        dec = decompose(fs_pullback("psi_double_prime", 3, U0))
        assert dec["yt"] > 0
        for name in ("zx", "zy", "xy", "xt", "zt"):
            assert abs(dec[name]) < 1e-10

    def test_psi_prime_has_no_dt(self):
        dec = decompose(fs_pullback("psi_prime", 3, U0))
        assert dec["zx"] > 0
        for name in ("yt", "xt", "zt"):
            assert abs(dec[name]) < 1e-10

    def test_top_power_identity(self):
        form = fs_pullback("phi_k", 3, U0)
        dec = decompose(form)
        # omega^2 = 2 Pf(omega) vol; the structural form gives 2 alpha beta
        assert abs(2.0 * pfaffian(form) - 2.0 * dec["zx"] * dec["yt"]) < 1e-8


class TestClosedness:
    def test_exterior_derivative_small_phi3(self):
        assert exterior_derivative_residuals("phi_k", 3, U0.as_array())[0] < 1e-6

    def test_exterior_derivative_omega_kt(self):
        assert exterior_derivative_residuals("omega_kt", 3, U0.as_array())[0] < 1e-10

    def test_batched_residuals(self):
        pts = fundamental_domain_samples(10, 12)
        phi3 = exterior_derivative_residuals("phi_k", 3, pts)
        assert phi3.shape == (10,)
        assert phi3.max() < 1e-6
        assert exterior_derivative_residuals("omega_kt", 3, pts).max() < 1e-10
        single = exterior_derivative_residuals("phi_k", 3, pts[4])[0]
        assert single == exterior_derivative_residuals("phi_k", 3, pts[4:5])[0]


class TestTori:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            BasisTorus("T_xy")

    def test_omega_kt_integrals(self):
        vals = {
            tid: integrate_over_torus("omega_kt", 1, BasisTorus(tid), grid=16)
            for tid in TORUS_AXES
        }
        # omega_KT = -dx^dz + x dx^dy + dy^dt on the coordinate axes, and
        # T_ca is oriented by dz^dx
        assert abs(vals["T_ca"] - 1.0) < 1e-12   # integrand Omega_zx = +1
        assert abs(vals["T_bd"] - 1.0) < 1e-12
        assert abs(vals["T_cb"]) < 1e-12
        assert abs(vals["T_ad"]) < 1e-12

    def test_phi3_integral_magnitudes(self):
        for tid, want in (("T_ca", 3.0), ("T_bd", 3.0), ("T_cb", 0.0), ("T_ad", 0.0)):
            got = integrate_over_torus("phi_k", 3, BasisTorus(tid), grid=32)
            assert abs(abs(got) - want) < 1e-3

    def test_torus_grid_rule(self):
        # 12 nodes per cell side at every k: a multiple of k, never rounded up
        got = {k: torus_grid(k) for k in (1, 2, 3, 4, 5, 6, 7, 8, 16, 32)}
        assert got == {1: 12, 2: 24, 3: 36, 4: 48, 5: 60, 6: 72, 7: 84, 8: 96, 16: 192, 32: 384}
        for k in range(1, 65):
            assert torus_grid(k) == 12 * k
            assert len(torus_nodes("phi_k", k, BasisTorus("T_ca"))) == 144

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 16, 32])
    def test_default_grid_converged(self, k):
        # the default grid against k * c1 and against its double, to roundoff
        for torus in map(BasisTorus, ("T_ca", "T_bd", "T_cb")):
            coarse = integrate_over_torus("phi_k", k, torus)
            assert coarse == integrate_over_torus("phi_k", k, torus, torus_grid(k))
            assert abs(coarse - k * chern_via_multiplicators(torus.id)) <= 1e-12 * k
            fine = integrate_over_torus("phi_k", k, torus, 2 * torus_grid(k))
            assert abs(coarse - fine) <= 1e-12 * k

    def test_suite_passes_at_k8(self):
        # at the former fixed grid of 64 the drift was 3.5e-6 against the 1e-8 gate
        report = check_torus_integrals(RunConfig(k=8))
        assert report.passed and report.params == {"k": 8, "grid": 96}
        # a 12 x 12 cell on T_ca and T_bd, a 12 x 96 strip on T_cb
        assert report.witness["points"] == {"T_ca": 144, "T_bd": 144, "T_cb": 1152, "T_ad": 0}

    def test_nodes_cover_one_cell(self):
        # grid 16 rounds up to 18 at k = 3, and the cell is [0, 1/3) a side
        cell = torus_nodes("phi_k", 3, BasisTorus("T_ca"), 16)
        assert cell.shape == (36, 4) and cell[:, [0, 2]].max() == pytest.approx(5 / 18)
        assert not cell[:, [1, 3]].any()
        # the fiber's modulus y is not periodic: T_cb's strip spans it
        strip = torus_nodes("psi_prime", 3, BasisTorus("T_cb"), 16)
        assert strip.shape == (6 * 18, 4) and strip[:, 1].max() == pytest.approx(17 / 18)
        assert torus_nodes("phi_k", 3, BasisTorus("T_ad"), 16).shape == (0, 4)
        assert torus_nodes("psi_double_prime", 3, BasisTorus("T_ca"), 16).shape == (0, 4)
        # omega_kt ignores k and keeps the full grid
        assert torus_nodes("omega_kt", 3, BasisTorus("T_ca"), 16).shape == (256, 4)

    @pytest.mark.parametrize("k", [3, 8])
    def test_balanced_density_is_cell_periodic(self, k):
        rng = np.random.default_rng(5)
        for tid, name in (("T_ca", "fiber"), ("T_bd", "base"), ("T_cb", "fiber")):
            i, j = TORUS_AXES[tid]
            pts = np.zeros((40, 4))
            pts[:, [i, j]] = rng.random((40, 2))

            def coefficient(at, weights):
                block, tables = sections_module._factor_block((name,), k, at, axes=(i, j))
                b, _ = fs_hermitian(block * weights[:, None, None], tables)
                return symplectic_module._form(b)[:, 0, 1]

            for balanced, weights in ((True, balance_weights(k)), (False, np.ones(k))):
                here = coefficient(pts, weights)
                for a in (i, j):
                    moved = pts.copy()
                    moved[:, a] += 1.0 / k
                    shift = np.abs(coefficient(moved, weights) - here).max()
                    if not sections_module.CHAIN[name][a, 0]:
                        assert shift > 1e-6  # the modulus y moves tau, not w
                    elif balanced:
                        assert shift <= 1e-12 * k
                    elif a in (0, 3):
                        assert shift > 1.0  # the unweighted x and t rows: not periodic

    def test_unbalanced_cell_fails_the_suite(self, monkeypatch):
        # the raw lift's density is not (1/k)-periodic along x and t, so its
        # cell mean misses k by about 1.9 at k = 3
        monkeypatch.setattr(symplectic_module, "balance_weights", lambda k: np.ones(k))
        report = check_torus_integrals(RunConfig())
        assert not report.passed
        assert abs(report.witness["integrals"]["T_ca"] - 3.0) > 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            integrate_over_torus("omega_kt", 1, BasisTorus("T_bd"), grid=4)

    @pytest.mark.parametrize("k", [0, -1, 2.0])
    @pytest.mark.parametrize("map_id", MAP_IDS)
    def test_degree_checked_for_every_map(self, map_id, k):
        # omega_kt does not depend on k, but a bad k is named as one, not as
        # the default grid 12k it would make
        for call in (torus_nodes, integrate_over_torus):
            with pytest.raises(ValueError, match=re.escape(f"degree k must be an int of at least 1, "
                                                           f"got {k!r}")):
                call(map_id, k, BasisTorus("T_ca"))

    def test_orientation_follows_torus_words(self):
        assert TORUS_AXES == {"T_ca": (2, 0), "T_bd": (1, 3), "T_cb": (2, 1), "T_ad": (0, 3)}

    @pytest.mark.parametrize("k", [2, 8])
    def test_phi_integrals_are_k_times_chern(self, k):
        for tid in TORUS_AXES:
            got = integrate_over_torus("phi_k", k, BasisTorus(tid), grid=64)
            assert abs(got - k * chern_via_multiplicators(tid)) < 1e-4

    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    @pytest.mark.parametrize("map_id", FS_MAP_IDS)
    def test_matches_all_factor_oracle(self, map_id, k):
        # every factor, every partial, every node of the full grid (16 rounded
        # up to a multiple of k), each factor balanced: the cell or strip mean
        # is this full-grid mean to roundoff
        grid, weights = -(-16 // k) * k, balance_weights(k)
        for torus in map(BasisTorus, TORUS_AXES):
            i, j = TORUS_AXES[torus.id]
            block, tables = sections_module._factor_block(
                MAP_FACTORS[map_id], k, torus.grid_points(grid), axes=AXES)
            b, _ = fs_hermitian(block * weights[:, None, None], tables)
            want = float(np.mean(symplectic_module._form(b)[:, i, j]))
            assert abs(integrate_over_torus(map_id, k, torus, 16) - want) <= 1e-13 * k

    @pytest.mark.parametrize("k, tol", [(2, 2e-9), (3, 2e-9), (5, 1e-8), (8, 2e-9)])
    def test_matches_raw_full_grid(self, k, tol):
        # the raw lift's form differs by an exact form, whose trapezoid mean
        # on a full grid is small but not exactly 0: the raw rule misses k by
        # 1.6e-12, 1.3e-11, 6.8e-9 and 6.3e-10 at k = 2, 3, 5 and 8 on the
        # grids here, the least multiples of k >= max(64, 12k), where the
        # balanced one on the default 12k is within 3e-14; the raw rule
        # needs these grids (on 12k it misses 5 by 4.9e-8)
        grid = {2: 64, 3: 66, 5: 65, 8: 96}[k]
        for torus in map(BasisTorus, TORUS_AXES):
            i, j = TORUS_AXES[torus.id]
            raw = float(np.mean(fs_pullback_batch("phi_k", k, torus.grid_points(grid))[:, i, j]))
            assert abs(integrate_over_torus("phi_k", k, torus) - raw) <= tol

    def test_checks_run_before_the_structural_zero(self):
        t_ad = BasisTorus("T_ad")
        assert integrate_over_torus("phi_k", 3, t_ad, 8) == 0.0
        with pytest.raises(ValueError, match="grid"):
            integrate_over_torus("phi_k", 3, t_ad, 4)
        with pytest.raises(ValueError, match="unknown map_id"):
            integrate_over_torus("psi", 3, t_ad, 8)

    @pytest.mark.parametrize("map_id", ["phi_k", "omega_kt"])
    def test_grid_is_an_int_of_at_least_eight(self, map_id):
        # a grid of 10.5 would space the nodes 1/10.5 apart, which is no
        # periodic rule; an integral float is rejected as well
        t_ca = BasisTorus("T_ca")
        for grid in (10.5, 64.0):
            with pytest.raises(ValueError, match=re.escape(
                    f"grid must be an int of at least 8, got {grid!r}")):
                integrate_over_torus(map_id, 3, t_ca, grid)
        assert integrate_over_torus(map_id, 3, t_ca, np.int64(64)) == integrate_over_torus(
            map_id, 3, t_ca, 64)

    def test_sign_flipped_pullback_fails_the_suite(self, monkeypatch):
        form = symplectic_module._form
        assert check_torus_integrals(RunConfig()).passed
        monkeypatch.setattr(symplectic_module, "_form", lambda b: -form(b))
        report = check_torus_integrals(RunConfig())
        assert not report.passed
        assert report.witness["integrals"]["T_ca"] < 0 < report.witness["expected"]["T_ca"]


class TestChern:
    def test_transition_function_cocycle_consistency(self):
        w1 = GroupWord(1, 0, 2, -1)
        w2 = GroupWord(0, 1, -1, 2)
        g = transition_function(w1, w2, U0.as_array())
        # g_{12}(u) = e_{w1}(u) / e_{w2}(u) evaluated compatibly
        direct = multiplicator_batch(w1, U0.as_array()) * multiplicator_batch(
            inverse(w2), act(w2, U0).as_array()
        )
        assert abs(g - direct) < 1e-12 * abs(direct)

    def test_cocycle_integer_valued(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            words = [GroupWord(*(int(v) for v in rng.integers(-2, 3, 4))) for _ in range(3)]
            u = KTPoint(*(float(v) for v in rng.random(4)))
            val = chern_cocycle(*words, u.as_array())
            assert abs(val - round(val)) < 1e-10

    def test_word_arrays_match_per_row_words(self):
        rng = np.random.default_rng(6)
        exponents = rng.integers(-2, 3, (3, 4, 64))
        pts = rng.random((64, 4))
        batch = chern_cocycle(*(GroupWord(*e) for e in exponents), pts)
        assert batch.shape == (64,)
        for i in range(64):
            words = [GroupWord(*map(int, e[:, i])) for e in exponents]
            assert abs(batch[i] - chern_cocycle(*words, pts[i])) <= 1e-15

    def test_cocycle_identity_words(self):
        assert abs(chern_cocycle(IDENTITY, IDENTITY, IDENTITY, U0.as_array())) < 1e-14

    def test_chern_values(self):
        assert chern_via_multiplicators("T_ca") == 1
        assert chern_via_multiplicators("T_bd") == 1
        assert chern_via_multiplicators("T_cb") == 0
        assert chern_via_multiplicators("T_ad") == 0

    def test_independent_of_point(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = KTPoint(*(float(v) for v in 4 * (rng.random(4) - 0.5)))
            assert chern_via_multiplicators("T_ca", u) == 1

    def test_unknown_torus_rejected(self):
        with pytest.raises(ValueError, match="^unknown torus id 'T_xy'$"):
            chern_via_multiplicators("T_xy")

    def test_non_integer_branch_sum_raises(self, monkeypatch):
        # an exponent off by 0.1 x moves the combination by -0.1: mu = a
        # moves x by one and lam = c leaves it
        original = symplectic_module.multiplicator_exponent
        monkeypatch.setattr(symplectic_module, "multiplicator_exponent",
                            lambda w, pts: original(w, pts) + 0.1 * pts[..., 0])
        with pytest.raises(ArithmeticError, match=r"^branch combination .* is not an integer$"):
            chern_via_multiplicators("T_ca")


class TestTwoFormHelpers:
    def test_two_form_antisymmetry_validation(self):
        with pytest.raises(ValueError):
            TwoFormAtPoint(U0, np.ones((4, 4)))

    def test_two_form_builder(self):
        # omega_kt_matrix mirrors its upper-triangle coefficients
        m = omega_kt_matrix(U0.as_array())
        assert m[0, 1] == U0.x and m[1, 0] == -U0.x
        assert m[1, 3] == 1.0 and m[3, 1] == -1.0


class TestStructureDecomposition:
    def test_check_matches_pointwise_decomposition(self):
        cfg = RunConfig(samples=25)
        report = check_structure_decomposition(cfg)
        pts = fundamental_domain_samples(25, cfg.seed + 24)
        mats = fs_pullback_batch("phi_k", cfg.k, pts)
        beta, top = [], []
        for p, mat in zip(pts, mats):
            dec = decompose_left_invariant_batch(p, mat)
            beta.append(dec["zx"])
            top.append(abs(2.0 * pfaffian_batch(mat) - 2.0 * dec["zx"] * dec["yt"]))
        assert report.witness["beta_min"] == min(beta)
        assert report.witness["top_power_residual"] == max(top)


EMPTY = np.zeros((0, 4))
EMPTY_WORDS = GroupWord(*np.zeros((4, 0), dtype=int))

# Every batched public function on an empty batch, and its output shapes.
EMPTY_BATCH_CALLS = {
    "theta_batch": (lambda: ktheta.theta_batch(np.zeros(0), 1j, ((0, 0), (1, 1))), [(0,), (0,)]),
    "section_matrix": (lambda: section_matrix(3, EMPTY), (0, 9)),
    "section_matrix_with_gradients": (lambda: section_matrix_with_gradients(3, EMPTY),
                                      [(0, 9), (0, 4, 9)]),
    "factor": (lambda: factor(("fiber", "base"), 3, EMPTY, axes=AXES),
               [(2, 0, 3), (2, 0, 2, 3), (2, 4, 2)]),
    "shift_product": (lambda: ktheta.shift_product([(0.1, 0.2), (-0.1, -0.2)], EMPTY), (0,)),
    "phi_batch": (lambda: ktheta.phi_batch(3, EMPTY), (0, 9)),
    "chordal_distances": (lambda: ktheta.chordal_distances(np.zeros((0, 9)), np.zeros((0, 9))),
                          (0,)),
    "unit_rows": (lambda: embedding_module.unit_rows(np.zeros((0, 9))), (0, 9)),
    "generator_invariance_residuals": (
        lambda: embedding_module.generator_invariance_residuals(3, EMPTY), (0,)),
    "separating_sections": (lambda: sections_module.separating_sections(EMPTY, EMPTY, []), (0,)),
    **{f"fs_pullback_batch-{m}": (lambda m=m: fs_pullback_batch(m, 3, EMPTY), (0, 4, 4))
       for m in symplectic_module.MAP_IDS},
    **{f"hermitian_pullback_batch-{m}": (lambda m=m: hermitian_pullback_batch(m, 3, EMPTY),
                                         [(0, 4, 4), (0,)])
       for m in FS_MAP_IDS},
    "hermitian_ranks": (lambda: hermitian_ranks(*hermitian_pullback_batch("phi_k", 3, EMPTY), 1e-6),
                        (0,)),
    "exterior_derivative_residuals": (lambda: exterior_derivative_residuals("phi_k", 3, EMPTY),
                                      (0,)),
    "decompose_left_invariant_batch": (
        lambda: decompose_left_invariant_batch(EMPTY, np.zeros((0, 4, 4)))["zx"], (0,)),
    "pfaffian_batch": (lambda: pfaffian_batch(np.zeros((0, 4, 4))), (0,)),
    "chern_cocycle": (lambda: chern_cocycle(EMPTY_WORDS, EMPTY_WORDS, EMPTY_WORDS, EMPTY), (0,)),
    "transition_function": (lambda: transition_function(EMPTY_WORDS, EMPTY_WORDS, EMPTY), (0,)),
    "cocycle_residual": (lambda: cocycle_residual(EMPTY_WORDS, EMPTY_WORDS, EMPTY), (0,)),
    "multiplicator_batch": (lambda: multiplicator_batch(EMPTY_WORDS, EMPTY), (0,)),
    "act_on_array": (lambda: act_on_array(EMPTY_WORDS, EMPTY), (0, 4)),
    "omega_kt_matrix": (lambda: omega_kt_matrix(EMPTY), (0, 4, 4)),
}


@pytest.mark.parametrize("name", list(EMPTY_BATCH_CALLS))
def test_batched_functions_take_an_empty_batch(name):
    call, shape = EMPTY_BATCH_CALLS[name]
    out = call()
    assert (np.shape(out) if isinstance(shape, tuple) else [np.shape(x) for x in out]) == shape
