"""Fubini-Study pullbacks, Pfaffians, torus integrals, Chern numbers."""

import numpy as np
import pytest

from ktheta import (
    BasisTorus,
    GENERATORS,
    GroupWord,
    KTPoint,
    LiftOverflow,
    NonCommutingPair,
    PullbackForm,
    RunConfig,
    TorusNotClosed,
    chern_cocycle,
    chern_for_generator_pair,
    chern_via_multiplicators,
    decompose_left_invariant,
    exterior_derivative_residual,
    fs_normalization,
    fs_pullback,
    fundamental_domain_samples,
    integrate_over_torus,
    multiplicator,
    omega_kt,
    pfaffian,
    transition_function,
    two_form,
)
from ktheta.checks import check_structure_decomposition
from ktheta.manifold import IDENTITY, act, compose, inverse, reduce_point
from ktheta.symplectic import (
    TORUS_AXES,
    exterior_derivative_residuals,
    fs_pullback_batch,
    pfaffian_batch,
)

U0 = KTPoint(0.31, 0.57, 0.12, 0.83)


class TestFubiniStudyOracle:
    def test_cp1_normalization(self):
        # chart lift (1, w): integral of the FS form over C must be 1
        assert abs(fs_normalization() - 1.0) < 1e-6

    def test_truncated_chart_integral_smaller(self):
        assert fs_normalization(max_radius=1.0) < 1.0


class TestLiftScaling:
    # off the fundamental domain the k=16 lift reaches |F| ~ 5e91, so |F|^4
    # overflows unless the pullback divides the lift by its largest entry
    U_FAR = act(GroupWord(1, -2, 1, 2), KTPoint(0.3, 0.2, 0.1, 0.4))

    def test_pullback_finite_where_lift_is_large(self):
        form = fs_pullback("phi_k", 16, self.U_FAR)
        assert np.all(np.isfinite(form.matrix))
        reduced = fs_pullback("phi_k", 16, reduce_point(self.U_FAR)[0])
        assert abs(pfaffian(form) / pfaffian(reduced) - 1.0) <= 1e-8

    def test_non_finite_lift_raises_typed_error(self):
        far = KTPoint(8.0, 0.2, 0.1, 0.4)  # the k=16 lift overflows here
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LiftOverflow):
                fs_pullback("phi_k", 16, far)
            assert np.isnan(fs_pullback_batch("phi_k", 16, far.as_array())).all()


class TestPullbackBasics:
    def test_antisymmetric(self):
        form = fs_pullback("phi_k", 3, U0)
        assert np.array_equal(form.matrix, -form.matrix.T)

    def test_omega_kt_map_id(self):
        form = fs_pullback("omega_kt", 3, U0)
        assert np.allclose(form.matrix, omega_kt(U0).matrix)
        pts = 4.0 * (fundamental_domain_samples(6, 8) - 0.5)
        mats = fs_pullback_batch("omega_kt", 3, pts)
        assert mats.shape == (6, 4, 4)
        for p, mat in zip(pts, mats):
            assert np.array_equal(mat, omega_kt(KTPoint.from_array(p)).matrix)

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
        for p in fundamental_domain_samples(10, 3):
            assert abs(pfaffian(omega_kt(KTPoint.from_array(p))) - 1.0) < 1e-12

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


class TestLeftInvariantDecomposition:
    def test_omega_kt_coefficients(self):
        dec = decompose_left_invariant(fs_pullback("omega_kt", 1, U0))
        assert abs(dec.zx - 1.0) < 1e-14
        assert abs(dec.yt - 1.0) < 1e-14
        for name in ("zy", "xy", "xt", "zt"):
            assert abs(getattr(dec, name)) < 1e-14

    def test_roundtrip(self):
        form = fs_pullback("phi_k", 3, U0)
        dec = decompose_left_invariant(form)
        assert np.allclose(dec.reassemble().matrix, form.matrix, atol=1e-12)

    def test_psi_double_prime_is_pure_base(self):
        form = fs_pullback("psi_double_prime", 3, U0)
        dec = decompose_left_invariant(form)
        assert dec.yt > 0
        for name in ("zx", "zy", "xy", "xt", "zt"):
            assert abs(getattr(dec, name)) < 1e-10

    def test_psi_prime_has_no_dt(self):
        form = fs_pullback("psi_prime", 3, U0)
        dec = decompose_left_invariant(form)
        assert dec.zx > 0
        for name in ("yt", "xt", "zt"):
            assert abs(getattr(dec, name)) < 1e-10

    def test_top_power_identity(self):
        form = fs_pullback("phi_k", 3, U0)
        dec = decompose_left_invariant(form)
        # omega^2 = 2 Pf(omega) vol; the structural form gives 2 alpha beta
        assert abs(2.0 * pfaffian(form) - 2.0 * dec.zx * dec.yt) < 1e-8


class TestClosedness:
    def test_exterior_derivative_small_phi3(self):
        assert exterior_derivative_residual("phi_k", 3, U0) < 1e-6

    def test_exterior_derivative_omega_kt(self):
        assert exterior_derivative_residual("omega_kt", 3, U0) < 1e-10

    def test_step_validation(self):
        with pytest.raises(ValueError):
            exterior_derivative_residual("phi_k", 3, U0, h=0.0)

    def test_batched_residuals(self):
        pts = fundamental_domain_samples(10, 12)
        phi3 = exterior_derivative_residuals("phi_k", 3, pts)
        assert phi3.shape == (10,)
        assert phi3.max() < 1e-6
        assert exterior_derivative_residuals("omega_kt", 3, pts).max() < 1e-10
        single = exterior_derivative_residual("phi_k", 3, KTPoint.from_array(pts[4]))
        assert single == exterior_derivative_residuals("phi_k", 3, pts[4:5])[0]


class TestTori:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            BasisTorus("T_xy")

    def test_closure_violation(self):
        t = BasisTorus("T_ca", basepoint=KTPoint(0.0, 0.25, 0.0, 0.0))
        with pytest.raises(TorusNotClosed):
            t.validate_closure()
        with pytest.raises(TorusNotClosed):
            integrate_over_torus("omega_kt", 1, t)

    def test_base_torus_any_basepoint(self):
        t = BasisTorus("T_bd", basepoint=KTPoint(0.3, 0.25, 0.1, 0.7))
        t.validate_closure()

    def test_omega_kt_integrals(self):
        vals = {
            tid: integrate_over_torus("omega_kt", 1, BasisTorus(tid), grid=16)
            for tid in TORUS_AXES
        }
        # omega_KT = -dx^dz + x dx^dy + dy^dt on the coordinate axes
        assert abs(vals["T_ca"] + 1.0) < 1e-12   # integrand Omega_xz = -1
        assert abs(vals["T_bd"] - 1.0) < 1e-12
        assert abs(vals["T_cb"]) < 1e-12
        assert abs(vals["T_ad"]) < 1e-12

    def test_phi3_integral_magnitudes(self):
        for tid, want in (("T_ca", 3.0), ("T_bd", 3.0), ("T_cb", 0.0), ("T_ad", 0.0)):
            got = integrate_over_torus("phi_k", 3, BasisTorus(tid), grid=32)
            assert abs(abs(got) - want) < 1e-3

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            integrate_over_torus("omega_kt", 1, BasisTorus("T_bd"), grid=4)


class TestChern:
    def test_transition_function_cocycle_consistency(self):
        w1 = GroupWord(1, 0, 2, -1)
        w2 = GroupWord(0, 1, -1, 2)
        g = transition_function(w1, w2, U0)
        # g_{12}(u) = e_{w1}(u) / e_{w2}(u) evaluated compatibly
        direct = multiplicator(w1, U0) * multiplicator(
            inverse(w2), act(w2, U0)
        )
        assert abs(g - direct) < 1e-12 * abs(direct)

    def test_cocycle_integer_valued(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            words = [GroupWord(*(int(v) for v in rng.integers(-2, 3, 4))) for _ in range(3)]
            u = KTPoint(*(float(v) for v in rng.random(4)))
            val = chern_cocycle(*words, u)
            assert abs(val - round(val)) < 1e-10

    def test_cocycle_identity_words(self):
        assert abs(chern_cocycle(IDENTITY, IDENTITY, IDENTITY, U0)) < 1e-14

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

    def test_noncommuting_pair_rejected(self):
        with pytest.raises(NonCommutingPair):
            chern_for_generator_pair(GENERATORS["a"], GENERATORS["b"])

    def test_commuting_pair_matches_torus(self):
        got = chern_for_generator_pair(GENERATORS["c"], GENERATORS["a"], U0)
        assert got == chern_via_multiplicators("T_ca", U0)


class TestTwoFormHelpers:
    def test_two_form_antisymmetry_validation(self):
        with pytest.raises(ValueError):
            type(omega_kt(U0))(U0, np.ones((4, 4)))

    def test_two_form_builder(self):
        f = two_form(U0, {(0, 1): 2.0, (2, 3): -1.5})
        assert f.matrix[0, 1] == 2.0 and f.matrix[1, 0] == -2.0
        assert f.matrix[2, 3] == -1.5 and f.matrix[3, 2] == 1.5


class TestStructureDecomposition:
    def test_check_matches_pointwise_decomposition(self):
        cfg = RunConfig(samples=25)
        report = check_structure_decomposition(cfg)
        pts = fundamental_domain_samples(25, cfg.seed + 24)
        mats = fs_pullback_batch("phi_k", cfg.k, pts)
        beta, top = [], []
        for p, mat in zip(pts, mats):
            dec = decompose_left_invariant(PullbackForm(KTPoint.from_array(p), mat))
            beta.append(dec.zx)
            top.append(abs(2.0 * pfaffian_batch(mat) - 2.0 * dec.zx * dec.yt))
        assert report.witness["beta_min"] == min(beta)
        assert report.witness["top_power_residual"] == max(top)
