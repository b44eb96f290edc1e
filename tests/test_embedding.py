"""Projective maps: factorization, ranks, injectivity, invariance."""

import math
import re
import tracemalloc

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
    unit_rows,
)
from ktheta.checks import RunConfig, check_injectivity
from ktheta.sections import factor, section_matrix, section_matrix_with_gradients, segre_lift
from ktheta.manifold import GENERATORS, act_on_array, reduced_distance
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

    @pytest.mark.parametrize("p, q", [((2, 3, 4), (2, 3, 4)), ((3, 4), (1, 3, 4)),
                                      ((1, 1, 4), (4,))])
    def test_lifts_of_rank_above_two_rejected(self, p, q):
        with pytest.raises(ValueError, match=re.escape(
                f"lifts of shapes {p} and {q} are not (n,) or (B, n)")):
            chordal_distances(np.ones(p), np.ones(q))

    def test_rows_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chordal_distances(np.ones((2, 3)), np.ones((2, 4)))

    def test_row_counts_must_match_or_broadcast(self):
        # 3 rows against 2 neither pair up nor broadcast
        with pytest.raises(ValueError, match=re.escape(
                "row counts of shapes (3, 4) and (2, 4) do not broadcast")):
            chordal_distances(np.ones((3, 4)), np.ones((2, 4)))
        rng = np.random.default_rng(6)
        p, q = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        rows = chordal_distances(p, q)
        assert rows.shape == (3,) and rows.min() > 0.0
        # one row against many, either way round, is that row repeated
        first = np.repeat(p[:1], 3, axis=0)
        assert np.array_equal(chordal_distances(p[:1], q), chordal_distances(first, q))
        assert np.array_equal(chordal_distances(q, p[:1]), chordal_distances(q, first))

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
        out = segre_lift(np.array([1.0 + 0j, 0.0j]), np.array([1.0 + 0j, 0.0j]))
        assert np.allclose(out, [1.0, 0.0, 0.0, 0.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.random(3) + 1j * rng.random(3)
        b = rng.random(3) + 1j * rng.random(3)
        s1 = segre_lift(a, b)
        s2 = segre_lift(2.5j * a, -1.7 * b)
        assert chordal_distances(s1, s2)[0] < 1e-14

    @pytest.mark.parametrize("lead", [(), (0,), (5,), (2, 3)])
    def test_lift_is_the_flattened_outer_product(self, lead):
        # one flattening p*k + q for every Segre lift, empty batches included
        rng = np.random.default_rng(len(lead))
        fiber, base = rng.random((2,) + lead + (3, 2)) @ np.array([1.0, 1j])
        got = segre_lift(fiber, base)
        assert got.shape == lead + (9,)
        for idx in np.ndindex(lead):
            assert np.array_equal(got[idx], np.outer(fiber[idx], base[idx]).ravel())

    def test_maps_share_the_lift(self):
        # phi_batch is section_matrix, whose lift is the Segre lift of the factors
        pts = fundamental_domain_samples(4, 9)
        assert phi_batch is section_matrix
        assert np.array_equal(phi_batch(3, pts), segre_lift(*factor(("fiber", "base"), 3, pts)))
        assert np.array_equal(segre_lift(psi_prime(3, U0).coords, psi_double_prime(3, U0).coords),
                              segre_lift(*factor(("fiber", "base"), 3, U0.as_array())))


class TestPhi:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_segre_factorization(self, k):
        got = phi(k, U0)
        combined = segre_lift(psi_prime(k, U0).coords, psi_double_prime(k, U0).coords)
        assert chordal_distances(got.coords, combined)[0] < 1e-12

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

    @pytest.mark.parametrize("k", [3, 16])
    def test_batch_form_is_that_of_rows_divided_by_a_power_of_two(self, k, monkeypatch):
        # the products of the raw rows times 2^-2e equal, bit for bit, the
        # products of the rows divided by 2^e, e the exponent of the top entry
        vals, grads = section_matrix_with_gradients(k, fundamental_domain_samples(500, 3))
        seen = []
        monkeypatch.setattr(embedding_module, "hermitian_ranks",
                            lambda b, scale, tol: seen.append((b, scale)) or np.zeros(len(b)))
        embedding_module._differential_ranks(vals, grads, 1e-6)
        e = np.frexp(np.abs(vals).max(axis=1))[1]
        assert 0 < np.count_nonzero(e) < len(e)
        s = np.ldexp(1.0, -e)
        v, g = vals * s[:, None], grads * s[:, None, None]
        r = g.view(float)
        inv_n2 = 1.0 / np.vecdot(v, v).real[:, None, None]
        c = np.matmul(g, v.conj()[:, :, None])
        m = np.vecdot(r[:, None], r[:, :, None])  # Re<dF_nu, dF_mu>
        b = (m - (c * c.conj().mT).real * inv_n2) * inv_n2
        assert np.array_equal(seen[0][0], b)
        assert np.array_equal(seen[0][1], np.einsum("bmm->b", m) * inv_n2[:, 0, 0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_lifts_rank_four_up_to_overflow(self):
        # the raw k = 16 lift's largest entries here are 1, 2e87, 2e131, 3e196
        # and 1.5e262: top exponents on both sides of the 400 past which rows
        # are divided before their products
        from test_symplectic import _differential_ranks as svd_ranks

        pts = np.array([[x, 0.2, 0.1, 0.4] for x in (0.3, 2.5, 3.0, 3.5, 4.0)])
        vals, grads = section_matrix_with_gradients(16, pts)
        e = np.frexp(np.abs(vals).max(axis=1))[1]
        assert e.tolist() == [0, 291, 437, 653, 871]
        ranks = embedding_module._differential_ranks(vals, grads, 1e-6)
        assert ranks.tolist() == [4] * 5
        assert np.array_equal(ranks, svd_ranks(vals, grads, 1e-6))

    def test_batch_rank_copies_no_partials(self):
        # no scaled copy of the (500, 4, 256) partials, 8.2 MB, is made
        vals, grads = section_matrix_with_gradients(16, fundamental_domain_samples(500, 1))
        embedding_module._differential_ranks(vals, grads, 1e-6)
        tracemalloc.start()
        try:
            embedding_module._differential_ranks(vals, grads, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grads.nbytes / 2


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
        # a count that is not an int is rejected before the sampler sees it
        for n in (1, 0, 2.5, 200.0):
            with pytest.raises(ValueError, match=re.escape(
                    f"n_samples must be an int of at least 2, got {n!r}")):
                injectivity_scan(3, n, 1)
        assert injectivity_scan(3, np.int64(200), 7) == injectivity_scan(3, 200, 7)

    @pytest.mark.parametrize("k, n, seed", [(3, 2000, 42), (16, 2000, 1), (2, 500, 3),
                                            (5, 2000, 7), (16, 2000, 7)])
    def test_matches_full_sort_reference(self, k, n, seed):
        report = injectivity_scan(k, n, seed)
        assert report_fields(report) == full_sort_scan(k, fundamental_domain_samples(n, seed))

    def test_builds_no_k2_lift_beyond_the_witness_pair(self, monkeypatch):
        # the Gram comes from the factor Grams; only the witness pair's two
        # k^2 rows are formed, for its chordal distance
        k, widths = 16, []
        normalize = embedding_module.unit_rows

        def recording(lifts):
            widths.append(np.shape(lifts))
            return normalize(lifts)

        def no_lift(*args, **kwargs):
            raise AssertionError("k^2 lift built by the injectivity scan")

        monkeypatch.setattr(embedding_module, "unit_rows", recording)
        monkeypatch.setattr(embedding_module, "section_matrix", no_lift)
        monkeypatch.setattr(embedding_module, "phi_batch", no_lift)
        report = injectivity_scan(k, 300, 7)
        wide = [shape for shape in widths if shape[-1] == k * k]
        assert report.passed and wide and all(math.prod(shape[:-1]) <= 2 for shape in wide)

    @pytest.mark.parametrize("n", [2, SCAN_ROWS, SCAN_ROWS + 1, 2 * SCAN_ROWS + 3])
    def test_block_edges_match_reference(self, n):
        report = injectivity_scan(3, n, 11)
        assert report_fields(report) == full_sort_scan(3, fundamental_domain_samples(n, 11))

    @pytest.mark.parametrize("case", ["copies", "many_ties", "straddle", "all_equivalent",
                                      "400_times_5"])
    def test_duplicated_points_match_reference(self, monkeypatch, case):
        # on a dyadic grid, so that every lattice translate is exact and the
        # reference's ties between copies are real ties, not roundoff
        distinct = np.round(fundamental_domain_samples(10, 5) * 2.0**30) / 2.0**30
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
            # 4000 coincident pairs, each rejection searching only its row
            "400_times_5": np.repeat(fundamental_domain_samples(400, 5), 5, axis=0),
        }[case]
        monkeypatch.setattr(embedding_module, "fundamental_domain_samples",
                            lambda n, seed: pts)
        # each pair's quotient distance is read once: a struck pair stays
        # struck when its block is formed again
        checked, reduced = [], embedding_module.reduced_distance
        row = lambda a: (a.__array_interface__["data"][0] - pts.ctypes.data) // pts.strides[0]
        monkeypatch.setattr(embedding_module, "reduced_distance",
                            lambda a, b: checked.append((row(a), row(b))) or reduced(a, b))
        report = injectivity_scan(3, len(pts), 0)
        assert report_fields(report) == full_sort_scan(3, pts)
        assert len(set(checked)) == len(checked)
        if case == "all_equivalent":
            assert report.witness_indices == (-1, -1) and report.passed

    def test_distinct_overlaps_tied_in_distance_keep_index_order(self, monkeypatch):
        # phi_2 folds u and its image (-x, y, -z, t) together; with that image
        # moved by delta along one axis, sample 0 meets samples 1 and 2 at
        # squared overlaps within an ulp or two of 1.  Some deltas make the
        # scan's two overlaps differ, the larger at column 2, while both
        # round to one distance, as the reference's k^2 Gram entries do: the
        # scan must take column 1, the first of equal distances, as the
        # stable sort does, not the larger overlap.  (1, 2) is quotient-
        # equivalent and struck first.
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = KTPoint(*rng.random(4))
            folded = reduce_point(KTPoint(-u.x, u.y, -u.z, u.t))[0].as_array()
            delta = np.zeros(4)
            delta[rng.integers(4)] = 10.0 ** rng.uniform(-12, -8)
            pts = np.array([u.as_array(), folded, folded + delta])
            if not ((pts >= 0.0) & (pts < 1.0)).all():
                continue
            factors = [embedding_module._overlap_operands(rows)
                       for rows in map(unit_rows, factor(("fiber", "base"), 2, pts))]
            s = embedding_module._squared_overlaps(factors, 0, np.empty(9, complex), np.empty(9))[0]
            d = np.sqrt(1.0 - np.minimum(s, 1.0))
            lifts = unit_rows(phi_batch(2, pts))
            # from the full Gram, whose bits the reference ranks by
            gram = np.abs(lifts @ lifts.conj().T) ** 2
            ref = np.sqrt(1.0 - np.minimum(gram[0, 1:], 1.0))
            if s[2] > s[1] and d[1] == d[2] and ref[0] == ref[1]:
                break
        else:
            pytest.fail("no delta gives distinct overlaps tied in distance")
        monkeypatch.setattr(embedding_module, "fundamental_domain_samples",
                            lambda n, seed: pts)
        report = injectivity_scan(2, 3, 0)
        assert report.witness_indices == (0, 1)
        assert report_fields(report) == full_sort_scan(2, pts)

    @pytest.mark.parametrize("k", [2, 3, 8, 9, 16])
    def test_overlap_operands_give_squared_overlaps(self, k):
        # the real rows of f f^* up to OUTER_MAX_K = 8, the rows and their
        # conjugates above it: either way the products are |<f_i, f_j>|^2
        rows = unit_rows(factor("fiber", k, fundamental_domain_samples(50, 9)))
        left, right = embedding_module._overlap_operands(rows)
        assert (left.dtype == float) == (k <= embedding_module.OUTER_MAX_K)
        got = left @ right.T
        if got.dtype == complex:
            got = np.abs(got) ** 2
        assert np.abs(got - np.abs(rows @ rows.conj().T) ** 2).max() <= 1e-14

    def test_holds_one_block_not_the_gram(self):
        # the retained Gram rows peaked at 20 MB here; the factor lifts, their
        # conjugates and one block's two buffers take about 6.5 MB
        injectivity_scan(16, 2000, 7)  # the window tables are built once
        tracemalloc.start()
        try:
            injectivity_scan(16, 2000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

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


    def test_non_finite_lift_fails_the_scan(self, monkeypatch):
        # a NaN pair comes first in argmin order, and is reported; a sorted
        # scan would put it last and pass on the pair after it
        def nan_row(which, k, pts, *args, **kwargs):
            raw = factor(which, k, pts, *args, **kwargs)
            raw[0, 0] = math.nan  # the fiber row of sample 0
            return raw

        monkeypatch.setattr(embedding_module, "factor", nan_row)
        report = injectivity_scan(3, 200, 7)
        assert math.isnan(report.min_image_distance) and not report.passed
        assert report.witness_indices == (0, 1)
        suite = check_injectivity(RunConfig(samples=200, seed=7))
        assert math.isnan(suite.max_residual) and not suite.passed


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
        qd = reduced_distance(*(reduce_point(KTPoint.from_array(pts[x]))[0].as_array()
                                for x in (i, j)))
        if qd > d_min:
            return float(chordal_distances(lifts[i], lifts[j])[0]), (i, j), qd
    return 1.0, (-1, -1), math.inf
