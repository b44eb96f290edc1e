"""Projective maps: factorization, ranks, injectivity, invariance."""

import math

import numpy as np
import pytest

import ktheta.embedding as embedding_module
from ktheta import (
    AllSectionsVanish,
    DimensionMismatch,
    GroupWord,
    KTPoint,
    LiftOverflow,
    act,
    chordal_distances,
    fundamental_domain_samples,
    injectivity_scan,
    phi,
    phi_batch,
    projective_rank,
    psi_double_prime,
    psi_prime,
    reduce_point,
)
from ktheta.embedding import (
    SCAN_ROWS,
    ProjectivePoint,
    chordal_distance,
    generator_invariance_residuals,
    segre,
    unit_rows,
)
from ktheta.sections import factor, section_matrix_with_gradients
from ktheta.manifold import GENERATORS, act_on_array, quotient_distance
from ktheta.symplectic import hermitian_pullback_batch, hermitian_ranks

U0 = KTPoint(0.31, 0.57, 0.12, 0.83)


def jacobian_rows(k, u):
    """Rows (s, d/dx s, d/dy s, d/dz s, d/dt s) over the k^2 sections at ``u``."""
    vals, grads = section_matrix_with_gradients(k, u.as_array())
    return np.vstack([vals, grads[0]])


def raw_ranks(k, pts, tol=1e-6):
    """phi_k's differential ranks at the raw points, unreduced."""
    return hermitian_ranks(*hermitian_pullback_batch("phi_k", k, pts), tol)


class TestProjectivePoint:
    def test_zero_vector_rejected(self):
        with pytest.raises(AllSectionsVanish):
            ProjectivePoint(np.zeros(3, dtype=complex))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint(np.array([], dtype=complex))

    def test_single_coordinate_allowed(self):
        # CP^0 appears for k = 1
        p = ProjectivePoint(np.array([2.0 + 0j]))
        assert p.coords.size == 1


class TestChordalDistance:
    def test_identical(self):
        p = ProjectivePoint(np.array([1.0, 2.0j, -0.5]))
        assert chordal_distance(p, p) < 1e-15

    def test_scale_invariance(self):
        p = ProjectivePoint(np.array([1.0, 2.0j, -0.5]))
        q = ProjectivePoint((3.0 - 1.0j) * np.array([1.0, 2.0j, -0.5]))
        assert chordal_distance(p, q) < 1e-15

    def test_orthogonal(self):
        p = ProjectivePoint(np.array([1.0, 0.0j]))
        q = ProjectivePoint(np.array([0.0j, 1.0]))
        assert abs(chordal_distance(p, q) - 1.0) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chordal_distance(
                ProjectivePoint(np.array([1.0 + 0j])),
                ProjectivePoint(np.array([1.0 + 0j, 0.0j])),
            )

    def test_resolves_tiny_distances(self):
        # the projection-residual formula resolves distances near 1e-12,
        # which the naive sqrt(1 - cos^2) cannot
        v = np.array([1.0 + 0j, 0.0j])
        w = np.array([1.0 + 0j, 1e-12 + 0j])
        d = chordal_distance(ProjectivePoint(v), ProjectivePoint(w))
        assert abs(d - 1e-12) < 1e-14

    def test_lift_above_square_root_of_overflow(self):
        # the raw k=16 lift's largest entry is ~9.5e214 here, so its squared
        # norm overflows; normalizing divides by the largest entry first
        u = KTPoint(2.6221792294411626, 1.988960147681885, 2.193228993599369,
                    -1.8397879661421555)
        p = ProjectivePoint(phi_batch(16, u.as_array())[0])
        assert np.abs(p.coords).max() > 1e200
        assert abs(np.linalg.norm(p.normalized()) - 1.0) < 1e-14
        assert chordal_distance(p, phi(16, reduce_point(u)[0])) < 1e-8

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        q = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        q[0] = (2.0 - 1.0j) * p[0]
        u = KTPoint(2.6221792294411626, 1.988960147681885, 2.193228993599369,
                    -1.8397879661421555)
        p = np.vstack([p, phi_batch(16, u.as_array())[0, :16]])  # entries up to ~9.5e214
        q = np.vstack([q, phi(16, reduce_point(u)[0]).coords[:16]])
        assert np.abs(p[-1]).max() > 1e200
        rows = chordal_distances(p, q)
        for i in range(len(p)):
            assert rows[i] == chordal_distance(ProjectivePoint(p[i]), ProjectivePoint(q[i]))
        # the naive formula is accurate only away from coincident rows
        cos2 = np.abs(np.einsum("bn,bn->b", p[:6].conj(), q[:6])) ** 2 / (
            np.linalg.norm(p[:6], axis=1) * np.linalg.norm(q[:6], axis=1)) ** 2
        assert np.allclose(rows[1:6], np.sqrt(1.0 - cos2[1:]), atol=1e-12)
        assert rows[0] < 1e-15 and rows[-1] < 1e-8

    def test_rows_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chordal_distances(np.ones((2, 3)), np.ones((2, 4)))

    def test_non_finite_coordinates_raise_lift_overflow(self):
        with pytest.raises(LiftOverflow):
            ProjectivePoint(np.array([1.0, np.nan]))
        with pytest.raises(LiftOverflow):
            ProjectivePoint(np.array([np.inf, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LiftOverflow):  # the raw lift, which phi never takes
                ProjectivePoint(phi_batch(16, [8.0, 0.2, 0.1, 0.4])[0])


class TestUnitRows:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanishing_row_is_nan_without_warning(self):
        rows = unit_rows(np.array([[0.0, 0.0, 0.0], [3.0, 4.0j, 0.0]]))
        assert np.isnan(rows[0]).all()
        assert np.allclose(rows[1], [0.6, 0.8j, 0.0], rtol=0.0, atol=1e-15)


class TestSegre:
    def test_basis_pair(self):
        p = ProjectivePoint(np.array([1.0 + 0j, 0.0j]))
        q = ProjectivePoint(np.array([1.0 + 0j, 0.0j]))
        out = segre(p, q)
        assert np.allclose(out.coords, [1.0, 0.0, 0.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.random(3) + 1j * rng.random(3)
        b = rng.random(3) + 1j * rng.random(3)
        s1 = segre(ProjectivePoint(a), ProjectivePoint(b))
        s2 = segre(ProjectivePoint(2.5j * a), ProjectivePoint(-1.7 * b))
        assert chordal_distance(s1, s2) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            segre(
                ProjectivePoint(np.array([1.0 + 0j, 0.0j])),
                ProjectivePoint(np.array([1.0 + 0j, 0.0j, 0.0j])),
            )


class TestPhi:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_segre_factorization(self, k):
        got = phi(k, U0)
        combined = segre(psi_prime(k, U0), psi_double_prime(k, U0))
        assert chordal_distance(got, combined) < 1e-12

    def test_k1_constant_map(self):
        a = phi(1, U0)
        b = phi(1, KTPoint(0.9, 0.1, 0.5, 0.3))
        assert a.coords.size == 1 and b.coords.size == 1
        assert chordal_distance(a, b) < 1e-15

    @pytest.mark.parametrize("gen", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_well_defined_on_quotient(self, gen, k):
        g = GENERATORS[gen]
        d = chordal_distance(phi(k, act(g, U0)), phi(k, U0))
        assert d < 1e-10
        # phi reduces both points to one u0; the raw lifts differ by a scalar
        raw = chordal_distances(phi_batch(k, act(g, U0).as_array()), phi_batch(k, U0.as_array()))
        assert raw[0] < 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_batched_segre_overflow_is_silent_and_typed(self):
        # both factors are finite at this raw point and only their Segre
        # product overflows: the batched lift stays raw, without a warning,
        # and the projective point types the overflow
        pt = [[4.0, 0.2, 0.1, 4.0]]
        assert np.isfinite(factor(("fiber", "base"), 16, pt)).all()
        row = phi_batch(16, pt)[0]
        assert not np.isfinite(row).all()
        with pytest.raises(LiftOverflow):
            ProjectivePoint(row)
        vals, grads = section_matrix_with_gradients(16, pt)
        assert not np.isfinite(vals).all() and not np.isfinite(grads).all()

    def test_generator_invariance_residual_helper(self):
        assert generator_invariance_residuals(3, U0.as_array())[0] < 1e-10

    def test_batch_matches_scalar(self):
        pts = fundamental_domain_samples(6, 4)
        batch = phi_batch(3, pts)
        for i in range(6):
            single = phi(3, KTPoint.from_array(pts[i]))
            assert chordal_distance(ProjectivePoint(batch[i]), single) < 1e-12


class TestPsiMaps:
    def test_psi_prime_invariant_under_c(self):
        d = chordal_distance(psi_prime(3, act(GENERATORS["c"], U0)), psi_prime(3, U0))
        assert d < 1e-10
        raw = chordal_distances(factor("fiber", 3, act(GENERATORS["c"], U0).as_array()),
                                factor("fiber", 3, U0.as_array()))
        assert raw[0] < 1e-10

    def test_psi_double_prime_depends_only_on_base(self):
        u = KTPoint(0.11, 0.52, 0.73, 0.29)
        v = KTPoint(0.94, 0.52, 0.18, 0.29)
        assert chordal_distance(psi_double_prime(3, u), psi_double_prime(3, v)) < 1e-14

    @pytest.mark.parametrize("gen", ["b", "d"])
    def test_psi_double_prime_invariance(self, gen):
        g = GENERATORS[gen]
        d = chordal_distance(psi_double_prime(3, act(g, U0)), psi_double_prime(3, U0))
        assert d < 1e-10
        raw = chordal_distances(factor("base", 3, act(g, U0).as_array()),
                                factor("base", 3, U0.as_array()))
        assert raw[0] < 1e-10


class TestJacobian:
    def test_row_zero_is_lift(self):
        J = jacobian_rows(3, U0)
        lift = phi(3, U0).coords
        assert np.allclose(J[0], lift, rtol=1e-12, atol=1e-12)

    def test_cauchy_riemann_row_combination(self):
        J = jacobian_rows(3, U0)
        # rows: (s, d_x, d_y, d_z, d_t); (d_z + i d_x) s = 0
        comb = J[3] + 1j * J[1]
        assert np.abs(comb).max() < 1e-10 * np.abs(J).max()

    def test_finite_difference_rows(self):
        h = 1e-5
        J = jacobian_rows(3, U0)
        base = U0.as_array()
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            fp = phi(3, KTPoint.from_array(base + e)).coords
            fm = phi(3, KTPoint.from_array(base - e)).coords
            fd = (fp - fm) / (2 * h)
            scale = max(1.0, np.abs(J[1 + axis]).max())
            assert np.abs(fd - J[1 + axis]).max() / scale < 1e-6

    def test_realified_rank_five(self):
        # over C the CR relation kills one row, so the rank statement
        # is about the realified matrix
        J = jacobian_rows(3, U0)
        real = np.concatenate([J.real, J.imag], axis=1)
        sv = np.linalg.svd(real, compute_uv=False)
        assert sv[4] > 1e-6 * sv[0]


class TestProjectiveRank:
    def test_rank_four_for_k3(self):
        pts = fundamental_domain_samples(25, 12)
        for p in pts:
            assert projective_rank(3, KTPoint.from_array(p), tol=1e-6) == 4

    def test_rank_four_for_k4(self):
        assert projective_rank(4, U0, tol=1e-6) == 4

    def test_rank_zero_for_k1(self):
        assert projective_rank(1, U0) == 0

    def test_invariance_under_group(self):
        w = GroupWord(1, -1, 2, 1)
        assert projective_rank(3, U0) == projective_rank(3, act(w, U0))
        pts = np.stack([U0.as_array(), act(w, U0).as_array()])
        assert raw_ranks(3, pts).tolist() == [4, 4]

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            projective_rank(3, U0, tol=0.0)

    def test_rank_four_where_lift_norm_is_large(self):
        # |F|^2 of the raw k=16 lift is ~2e183 here; the rank divides the lift
        # by its largest entry before normalizing
        u = act(GroupWord(1, -2, 1, 2), KTPoint(0.3, 0.2, 0.1, 0.4))
        assert np.linalg.norm(phi_batch(16, u.as_array())[0]) > 1e90
        assert projective_rank(16, u, tol=1e-6) == 4
        assert raw_ranks(16, u.as_array()).tolist() == [4]

    def test_non_finite_lift_raises_typed_error(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LiftOverflow):  # the raw point, which projective_rank never takes
                raw_ranks(16, [8.0, 0.2, 0.1, 0.4])

    def test_batch_names_the_non_finite_rows(self):
        with np.errstate(over="ignore", invalid="ignore"):
            vals, grads = section_matrix_with_gradients(
                16, [[0.3, 0.2, 0.1, 0.4], [8.0, 0.2, 0.1, 0.4]])
            assert np.isfinite(vals[0]).all() and not np.isfinite(vals[1]).all()
            with pytest.raises(LiftOverflow, match=r"rows \[1\]"):
                embedding_module._differential_ranks(vals, grads, 1e-6)
            # a non-finite partial alone is found too
            vals, grads = section_matrix_with_gradients(3, fundamental_domain_samples(3, 2))
            grads[2, 1, 4] = np.inf
            with pytest.raises(LiftOverflow, match=r"rows \[2\]"):
                embedding_module._differential_ranks(vals, grads, 1e-6)


class TestInjectivityScan:
    def test_passes_for_k3(self):
        report = injectivity_scan(3, 300, 42)
        assert report.passed
        assert report.min_image_distance > 1e-6
        assert report.witness_quotient_distance > 1e-3

    def test_deterministic(self):
        a = injectivity_scan(3, 200, 7)
        b = injectivity_scan(3, 200, 7)
        assert a == b

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            injectivity_scan(3, 1, 0)

    @pytest.mark.parametrize("k, n, seed", [(3, 2000, 42), (16, 2000, 1), (2, 500, 3)])
    def test_matches_full_sort_reference(self, k, n, seed):
        report = injectivity_scan(k, n, seed)
        assert report_fields(report) == full_sort_scan(k, fundamental_domain_samples(n, seed))

    @pytest.mark.parametrize("n", [2, SCAN_ROWS, SCAN_ROWS + 1, 2 * SCAN_ROWS + 3])
    def test_block_edges_match_reference(self, n):
        report = injectivity_scan(3, n, 11)
        assert report_fields(report) == full_sort_scan(3, fundamental_domain_samples(n, 11))

    @pytest.mark.parametrize("case", ["copies", "many_ties", "straddle", "all_equivalent"])
    def test_duplicated_points_match_reference(self, monkeypatch, case):
        distinct = fundamental_domain_samples(10, 5)
        near = distinct[:1] + np.array([0.0, 0.0, 0.01, 0.0])
        pts = {
            # repeated points and lattice translates: quotient distance 0
            "copies": np.vstack([np.repeat(distinct, 4, axis=0),
                                 act_on_array(GENERATORS["c"], distinct)]),
            # more tied near-zero pairs than the first candidate batch holds
            "many_ties": np.vstack([np.repeat(distinct[:1], 30, axis=0), distinct[1:]]),
            # 55 coincident pairs, then 11 equal separated distances across the 64th
            "straddle": np.vstack([near, np.repeat(distinct[:1], 11, axis=0), distinct[4:]]),
            "all_equivalent": np.repeat(distinct[:1], 6, axis=0),
        }[case]
        monkeypatch.setattr(embedding_module, "fundamental_domain_samples",
                            lambda n, seed: pts)
        report = injectivity_scan(3, len(pts), 0)
        assert report_fields(report) == full_sort_scan(3, pts)
        if case == "all_equivalent":
            assert report.witness_indices == (-1, -1) and report.passed

    def test_witness_distance_resolves_a_collision(self, monkeypatch):
        # phi_2(x, y, z, t) = phi_2(-x, y, -z, t): the Gram form reads this
        # reduced pair as 2.6e-8 apart, the chordal distance as ~1e-16
        u = KTPoint(0.81, 0.91, 0.61, 0.73)
        pts = np.array([u.as_array(), reduce_point(KTPoint(-u.x, u.y, -u.z, u.t))[0].as_array()])
        monkeypatch.setattr(embedding_module, "fundamental_domain_samples",
                            lambda n, seed: pts)
        report = injectivity_scan(2, 2, 0)
        assert report.witness_indices == (0, 1) and report.witness_quotient_distance > 0.1
        assert report.min_image_distance < 1e-12
        assert not report.passed


def report_fields(report):
    return (report.min_image_distance, report.witness_indices,
            report.witness_quotient_distance)


def full_sort_scan(k, pts, d_min=1e-3):
    """Oracle: stable-sort every pairwise Gram distance, take the first
    quotient-separated pair, and report its chordal distance."""
    lifts = unit_rows(phi_batch(k, pts))
    gram = np.abs(lifts @ lifts.conj().T) ** 2
    np.clip(gram, 0.0, 1.0, out=gram)
    iu, ju = np.triu_indices(len(pts), k=1)
    dists = np.sqrt(1.0 - gram)[iu, ju]
    for pos in np.argsort(dists, kind="stable"):
        i, j = int(iu[pos]), int(ju[pos])
        qd = quotient_distance(KTPoint.from_array(pts[i]), KTPoint.from_array(pts[j]))
        if qd > d_min:
            return float(chordal_distances(lifts[i], lifts[j])[0]), (i, j), qd
    return 1.0, (-1, -1), math.inf
