"""KT sections: basis, tensor law, shift products, separating sections."""

import math
import re

import numpy as np
import pytest

import ktheta.sections as sections_module
import ktheta.theta as theta_module
from ktheta import (
    BasisTorus,
    EquivalentPoints,
    GroupWord,
    IllConditioned,
    KTPoint,
    LiftOverflow,
    SectionIndex,
    ZetaShift,
    act,
    fit_in_span,
    fs_pullback,
    fundamental_domain_samples,
    injectivity_scan,
    integrate_over_torus,
    phi,
    projective_rank,
    reduce_point,
    section,
)
from ktheta.checks import (
    RunConfig,
    check_derivative_crosscheck,
    check_product_closure,
    check_segre_factorization,
    check_separating_sections,
)
from ktheta.embedding import phi_batch, psi_double_prime, psi_prime
from ktheta.manifold import GENERATORS, multiplicator_batch
from ktheta.sections import (
    AXES,
    BASE_TAU,
    FACTOR_AXES,
    _zeta_array,
    factor,
    section_matrix,
    section_matrix_with_gradients,
    separating_sections,
    shift_product,
)
from ktheta.symplectic import fs_pullback_batch
from ktheta.theta import theta_batch, theta_degree_k_batch

U0 = KTPoint(0.31, 0.57, 0.12, 0.83)


def leaf_samples(n, seed, y):
    pts = fundamental_domain_samples(n, seed).copy()
    pts[:, 1] = y
    return pts


def product_fit_residual(zetas, k, pts):
    """``fit_in_span`` residual of the shift product sampled at (n, 4) points."""
    return fit_in_span(pts, shift_product(zetas, pts), k)[1]


def partials(rows, table):
    """A factor's (d/dx, d/dy, d/dz, d/dt) partials (..., 4, k) from its
    kernel rows, through its chain table."""
    return np.einsum("mr,...rn->...mn", table, rows)


def gradient_at(idx, u):
    """Row ``idx`` of the batched basis gradients at the single point ``u``."""
    return section_matrix_with_gradients(idx.k, u.as_array())[1][0, :, idx.flat]


class TestThetaKT:
    def test_definition(self):
        u = U0
        expected = theta_batch(u.z + 1j * u.x, u.y + 1j)[0] * theta_batch(u.y + 1j * u.t, 1j)[0]
        got = shift_product([ZetaShift(0, 0)], u.as_array())
        assert abs(got - expected) < 1e-13 * max(1.0, abs(expected))

    def test_base_tau_is_i(self):
        assert BASE_TAU == 1j

    def test_degree_one_section_is_theta_kt(self):
        val = section(SectionIndex(1, 0, 0), U0)
        assert abs(val - shift_product([ZetaShift(0, 0)], U0.as_array())) < 1e-13


class TestSectionBasis:
    def test_matches_factor_definition(self):
        k = 3
        u = U0
        (fibers,) = theta_degree_k_batch(k, u.z + 1j * u.x, u.y + 1j)
        (bases,) = theta_degree_k_batch(k, u.y + 1j * u.t, 1j)
        for p, fib in enumerate(fibers):
            for q, base in enumerate(bases):
                got = section(SectionIndex(k, p, q), u)
                assert abs(got - fib * base) < 1e-12 * max(1.0, abs(fib * base))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("u", [KTPoint(8.0, 0.2, 0.1, 0.4), KTPoint(0.3, -30.0, 0.1, 9.0)])
    def test_overflow_off_the_domain_raises_naming_the_point(self, u):
        # the raw lift at u is NaN at the first point and inf at the second
        with pytest.raises(LiftOverflow, match=re.escape(f"not finite at {u}")):
            section(SectionIndex(16, 1, 2), u)

    def test_in_domain_value_is_its_section_matrix_entry(self):
        idx = SectionIndex(16, 1, 2)
        assert section(idx, U0) == section_matrix(16, U0.as_array())[0, idx.flat]

    def test_flattening_order(self):
        k = 3
        mat = section_matrix(k, U0.as_array())
        for p in range(k):
            for q in range(k):
                direct = section(SectionIndex(k, p, q), U0)
                assert abs(mat[0, p * k + q] - direct) < 1e-12 * max(1.0, abs(direct))

    def test_rank_k_squared(self):
        for k in (2, 3):
            pts = fundamental_domain_samples(8 * k * k, 100 + k)
            mat = section_matrix(k, pts)
            sv = np.linalg.svd(mat, compute_uv=False)
            assert (sv > 1e-8 * sv[0]).sum() == k * k

    def test_index_validation(self):
        with pytest.raises(ValueError):
            SectionIndex(2, 2, 0)
        with pytest.raises(ValueError):
            SectionIndex(0, 0, 0)


_U = KTPoint(0.1, 0.3, 0.2, 0.4)
_PTS = fundamental_domain_samples(40, 5)
# every degree-k map passes sections.factor, which checks the degree once
DEGREE_ENTRY_POINTS = {
    "phi": lambda k: phi(k, _U),
    "phi_batch": lambda k: phi_batch(k, _PTS),
    "projective_rank": lambda k: projective_rank(k, _U),
    "fs_pullback": lambda k: fs_pullback("phi_k", k, _U),
    "integrate_over_torus": lambda k: integrate_over_torus("phi_k", k, BasisTorus("T_ca"), 8),
    "injectivity_scan": lambda k: injectivity_scan(k, 10, 0),
    "fit_in_span": lambda k: fit_in_span(_PTS, np.ones(len(_PTS)), k),
}


# k = 0 divided by zero in the window search, -1 raised TailNotConverged
# and 2.5 a TypeError
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [0, -1, 2.5])
@pytest.mark.parametrize("entry", sorted(DEGREE_ENTRY_POINTS))
def test_bad_degree_is_a_value_error(entry, k):
    with pytest.raises(ValueError, match="degree k must be an int of at least 1"):
        DEGREE_ENTRY_POINTS[entry](k)


class TestTensorPowerLaw:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("gen", ["a", "b", "c", "d"])
    def test_generator_transformation(self, k, gen):
        g = GENERATORS[gen]
        u = U0
        factor = multiplicator_batch(g, u.as_array()) ** k
        for p in range(k):
            for q in range(k):
                idx = SectionIndex(k, p, q)
                lhs = section(idx, act(g, u))
                rhs = factor * section(idx, u)
                assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1e-6)


class TestGradients:
    def test_cauchy_riemann_in_fiber(self):
        idx = SectionIndex(3, 1, 2)
        grad = gradient_at(idx, U0)
        # holomorphic in z + ix: (d_z + i d_x) s = 0 exactly by construction
        assert abs(grad[2] + 1j * grad[0]) < 1e-12

    def test_finite_difference(self):
        idx = SectionIndex(3, 2, 1)
        h = 1e-5
        grad = gradient_at(idx, U0)
        base = U0.as_array()
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            fd = (
                section(idx, KTPoint.from_array(base + e))
                - section(idx, KTPoint.from_array(base - e))
            ) / (2 * h)
            assert abs(fd - grad[axis]) / max(1.0, abs(grad[axis])) < 1e-6

    def test_batch_matches_scalar(self):
        pts = fundamental_domain_samples(5, 3)
        vals, grads = section_matrix_with_gradients(2, pts)
        for i in range(5):
            u = KTPoint.from_array(pts[i])
            for p in range(2):
                for q in range(2):
                    idx = SectionIndex(2, p, q)
                    assert abs(vals[i, 2 * p + q] - section(idx, u)) < 1e-11
                    g = gradient_at(idx, u)
                    assert np.allclose(grads[i, :, 2 * p + q], g, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("k", [1, 3, 16])
    @pytest.mark.parametrize("shape", [(4,), (5, 4), (2, 5, 4)])
    def test_matches_two_term_product_rule(self, k, shape):
        pts = fundamental_domain_samples(10, 40 + k)[:math.prod(shape[:-1])].reshape(shape)
        vals, grads = section_matrix_with_gradients(k, pts)
        # the product rule along every axis, adding the factors' zero partials too
        (fiber, base), rows, tables = factor(("fiber", "base"), k, np.atleast_2d(pts), axes=AXES)
        d_fiber, d_base = partials(rows[0], tables[0]), partials(rows[1], tables[1])
        want = d_fiber[..., :, None] * base[..., None, None, :]
        want += fiber[..., None, :, None] * d_base[..., None, :]
        want_vals = fiber[..., :, None] * base[..., None, :]
        assert np.array_equal(vals, want_vals.reshape(want_vals.shape[:-2] + (k * k,)))
        assert np.array_equal(grads, want.reshape(want.shape[:-2] + (k * k,)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_rows_stay_non_finite(self):
        # at k = 16 the Segre product overflows at the second point, the
        # fiber factor at the third and the base factor at the fourth
        pts = np.array([[0.3, 0.2, 0.1, 0.4], [4, 0.2, 0.1, 4], [8, 0.2, 0.1, 0.4],
                        [0, 0.3, 0, 9]])
        vals, grads = section_matrix_with_gradients(16, pts)
        assert np.isfinite(vals[0]).all() and np.isfinite(grads[0]).all()
        assert not np.isfinite(vals[1:]).all(axis=-1).any()
        assert not np.isfinite(grads[1:]).all(axis=-1).any()


class TestZetaAction:
    def test_zero_shift_is_theta_kt(self):
        got = shift_product([ZetaShift(0, 0)], U0.as_array())
        assert abs(got - scalar_shift_product([(0, 0)], U0)) < 1e-13

    def test_unit_shift_is_periodic(self):
        a = shift_product([ZetaShift(1.0, 0.0)], U0.as_array())
        b = section(SectionIndex(1, 0, 0), U0)
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("zeta1, zeta2", [(np.inf, 0.0), (0.0, complex(np.nan, 1.0))])
    def test_non_finite_shift_rejected(self, zeta1, zeta2):
        with pytest.raises(ValueError, match="^shift components must be finite$"):
            ZetaShift(zeta1, zeta2)

    def test_shift_onto_zero(self):
        zeta = ZetaShift(0.5 - (U0.z + 1j * U0.x), 0.0)
        assert abs(shift_product([zeta], U0.as_array())) < 1e-12


def scalar_shift_product(shifts, u):
    """Oracle: one single-point theta call per factor, multiplied in order."""
    val = 1.0 + 0.0j
    for z1, z2 in shifts:
        val *= theta_batch(u.z + 1j * u.x + z1, u.y + 1j)[0]
        val *= theta_batch(u.y + 1j * u.t + z2, 1j)[0]
    return val


def shift_test_points():
    """Fundamental-domain samples and lattice moves act(w, U0), exponents in [-2, 2]."""
    rng = np.random.default_rng(11)
    moved = [
        act(GroupWord(*(int(e) for e in rng.integers(-2, 3, 4))), U0).as_array()
        for _ in range(12)
    ]
    return np.vstack([fundamental_domain_samples(12, 12), moved])


class TestShiftProduct:
    @pytest.mark.parametrize("n_shifts", [1, 2, 3, 4])
    def test_matches_scalar_oracle(self, n_shifts):
        rng = np.random.default_rng(30 + n_shifts)
        shifts = rng.random((n_shifts, 2)) + 1j * 0.6 * (rng.random((n_shifts, 2)) - 0.5)
        pts = shift_test_points()
        want = np.array([scalar_shift_product(shifts, KTPoint.from_array(p)) for p in pts])
        batch = shift_product(shifts, pts)
        assert batch.shape == (len(pts),)
        assert np.all(np.abs(batch - want) <= 1e-12 * np.abs(want))
        zetas = [ZetaShift(complex(a), complex(b)) for a, b in shifts]
        for p, w in zip(pts, want):
            single = shift_product(zetas, p)
            assert single.shape == ()
            assert abs(single - w) <= 1e-12 * abs(w)

    def test_stacked_lists_match_per_list_calls(self):
        # an (..., S, 2) stack of shift lists broadcasts its leading axes
        # against the points'; the batch shares one window length, so
        # values move only at roundoff
        rng = np.random.default_rng(40)
        lists = rng.random((5, 3, 2)) + 1j * 0.6 * (rng.random((5, 3, 2)) - 0.5)
        pts = shift_test_points()
        per_list = np.array([shift_product(zetas, pts) for zetas in lists])
        for got in (shift_product(lists[:, None], pts),
                    shift_product(lists[:, None], np.broadcast_to(pts, (5,) + pts.shape)),
                    shift_product(lists[:, None, None], pts[:, None])[..., 0]):
            assert got.shape == per_list.shape
            assert np.all(np.abs(got - per_list) <= 1e-13 * np.abs(per_list))
        at_u0 = shift_product(lists, U0.as_array())
        assert at_u0.shape == (5,)
        assert np.all(np.abs(at_u0 - [shift_product(z, U0.as_array()) for z in lists])
                      <= 1e-13 * np.abs(at_u0))

    def test_rejects_malformed_shifts(self):
        with pytest.raises(ValueError):
            shift_product([], U0.as_array())
        with pytest.raises(ValueError):
            shift_product(np.ones((4, 0, 2)), U0.as_array())
        with pytest.raises(ValueError):
            shift_product(np.ones((2, 3)), U0.as_array())
        with pytest.raises(ValueError):
            shift_product([(np.inf, 0.0)], U0.as_array())

    def test_series_calls_per_shift_list_and_search(self, monkeypatch):
        # a batched evaluation sums each shift list in a few series calls;
        # a per-point loop would make thousands
        original = theta_module._eval_series
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(theta_module, "_eval_series", counting)
        for check, units in ((check_product_closure, 110), (check_separating_sections, 100)):
            calls.clear()
            assert check(RunConfig()).passed
            assert 0 < len(calls) <= 4 * units

    def test_product_closure_one_shift_product_call_per_k(self, monkeypatch):
        # the 55 shift lists of each k are one shift_product call and so one
        # series call; with the fit's design matrix, two kernel calls per k
        calls = {"_eval_series": 0, "_degree_basis_batch": 0}
        for name in calls:
            original = getattr(theta_module, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(theta_module, name, counting)
        assert check_product_closure(RunConfig()).passed
        assert calls == {"_eval_series": 2, "_degree_basis_batch": 4}


class TestFactors:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_values_match_classical_basis(self, k):
        pts = shift_test_points()
        fiber, base = factor(("fiber", "base"), k, pts)
        assert fiber.shape == base.shape == (len(pts), k)
        for i, (x, y, z, t) in enumerate(pts):
            (want_f,) = theta_degree_k_batch(k, z + 1j * x, y + 1j)
            (want_b,) = theta_degree_k_batch(k, y + 1j * t, 1j)
            assert np.all(np.abs(fiber[i] - want_f) <= 1e-13 * np.abs(want_f))
            assert np.all(np.abs(base[i] - want_b) <= 1e-13 * np.abs(want_b))

    @pytest.mark.parametrize("k", [2, 3])
    def test_partials_match_finite_differences(self, k):
        h = 1e-6
        pts = fundamental_domain_samples(8, 40 + k)
        _, d_fiber, c_fiber = factor("fiber", k, pts, axes=AXES)
        _, d_base, c_base = factor("base", k, pts, axes=AXES)
        assert d_fiber.shape == (8, 2, k) and d_base.shape == (8, 1, k)
        d_fiber, d_base = partials(d_fiber, c_fiber), partials(d_base, c_base)
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = h
            plus, minus = (factor(("fiber", "base"), k, pts + s * e) for s in (1, -1))
            for which, d in ((0, d_fiber), (1, d_base)):
                fd = (plus[which] - minus[which]) / (2 * h)
                scale = np.maximum(np.abs(d[:, axis]), 1.0)
                assert np.all(np.abs(fd - d[:, axis]) <= 1e-6 * scale)

    def test_crosscheck_takes_the_factor_partials(self, monkeypatch):
        # the suite checks the chain-table partials every form and rank
        # uses, in two kernel calls, and forms no k^2 product-rule gradient
        def no_gradients(*args, **kwargs):
            raise AssertionError("k^2 gradients formed by derivative_crosscheck")

        original = theta_module._degree_basis_batch
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sections_module, "section_matrix_with_gradients", no_gradients)
        monkeypatch.setattr(theta_module, "_degree_basis_batch", counting)
        assert check_derivative_crosscheck(RunConfig()).passed
        assert len(calls) == 2

    def test_nested_batch_shape(self):
        pts = fundamental_domain_samples(6, 9)
        flat = section_matrix(3, pts)
        nested = section_matrix(3, pts.reshape(2, 3, 4))
        assert nested.shape == (2, 3, 9)
        assert np.array_equal(nested, flat.reshape(2, 3, 9))
        vals, grads = section_matrix_with_gradients(3, pts)
        nvals, ngrads = section_matrix_with_gradients(3, pts.reshape(2, 3, 4))
        assert np.array_equal(nvals, vals.reshape(2, 3, 9))
        assert np.array_equal(ngrads, grads.reshape(2, 3, 4, 9))

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_partials_follow_dependence_table(self, k):
        pts = fundamental_domain_samples(40, 50 + k)
        assert FACTOR_AXES == {"fiber": (0, 1, 2), "base": (1, 3)}
        for which in ("fiber", "base"):
            d = partials(*factor(which, k, pts, axes=AXES)[1:])
            for axis in range(4):
                if axis in FACTOR_AXES[which]:
                    assert np.any(d[:, axis] != 0)
                else:
                    assert np.all(d[:, axis] == 0)

    def test_factors_is_the_pair_of_factor(self):
        pts = fundamental_domain_samples(12, 7)
        got_vals, got_rows, got_tables = factor(("fiber", "base"), 3, pts, axes=AXES)
        for f, which in enumerate(("fiber", "base")):
            vals, rows, table = factor(which, 3, pts, axes=AXES)
            assert np.array_equal(got_vals[f], vals)
            assert np.array_equal(partials(got_rows[f], got_tables[f]), partials(rows, table))
            assert np.array_equal(factor(which, 3, pts), vals)
        with pytest.raises(ValueError, match="unknown factor"):
            factor("total", 3, pts)

    @pytest.mark.parametrize("axes", [None, AXES])
    def test_empty_factor_tuple_rejected(self, axes):
        # no factor is no map: not a (0, 2, 3) array of no lifts
        with pytest.raises(ValueError, match=re.escape("unknown factor in ()")):
            factor((), 3, np.zeros((2, 4)), axes=axes)

    @pytest.mark.parametrize("call", [
        lambda pts: factor("fiber", 3, pts), lambda pts: phi_batch(3, pts),
        lambda pts: fs_pullback_batch("phi_k", 3, pts),
        lambda pts: shift_product([ZetaShift(0.1, 0.2)], pts),
    ], ids=["factor", "phi_batch", "fs_pullback_batch", "shift_product"])
    @pytest.mark.parametrize("shape", [(2, 3), (5,), (2, 4, 1)])
    def test_points_without_four_coordinates_rejected(self, call, shape):
        with pytest.raises(ValueError, match=re.escape("points must have shape (..., 4), got (")):
            call(np.zeros(shape))

    def test_basis_calls(self, monkeypatch):
        # phi_k is assembled from one stacked fiber-and-base evaluation, psi'
        # and psi'' (and their pullbacks) from their own factor alone: one
        # kernel block each, which the single-point maps enter directly
        original = theta_module._series_block
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(theta_module, "_series_block", counting)
        pts = fundamental_domain_samples(20, 5)
        evaluations = [
            (lambda: section_matrix(3, pts), 1),
            (lambda: section_matrix_with_gradients(3, pts), 1),
            (lambda: fs_pullback_batch("phi_k", 3, pts), 1),
            (lambda: psi_prime(3, U0), 1),
            (lambda: psi_double_prime(3, U0), 1),
            (lambda: fs_pullback_batch("psi_prime", 3, pts), 1),
            (lambda: fs_pullback_batch("psi_double_prime", 3, pts), 1),
        ]
        for evaluate, want in evaluations:
            calls.clear()
            evaluate()
            assert len(calls) == want
        calls.clear()
        fs_pullback_batch("omega_kt", 3, pts)
        assert not calls
        assert check_segre_factorization(RunConfig()).passed
        assert len(calls) == 2  # phi_batch and factors


class TestProductOfShifts:
    def test_nonzero_sum_rejected(self):
        # the negative control of the zero-sum law: shifts with a nonzero
        # sum leave the degree-k span even on a leaf
        pts = leaf_samples(64, 21, 0.42)
        for zetas in ([ZetaShift(0.1, 0.0), ZetaShift(0.0, 0.0)],
                      np.array([[0.1, 0.2j], [-0.1, 0.0]])):
            assert product_fit_residual(zetas, 2, pts) > 0.1

    def test_zero_shifts_cube(self):
        got = shift_product([ZetaShift(0, 0)] * 3, U0.as_array())
        single = shift_product([ZetaShift(0, 0)], U0.as_array())
        assert abs(got - single ** 3) < 1e-10 * max(1.0, abs(got))

    def test_cube_fits_span_on_leaf(self):
        pts = leaf_samples(64, 21, 0.42)
        assert product_fit_residual([ZetaShift(0, 0)] * 3, 3, pts) < 1e-8

    @pytest.mark.parametrize("k", [2, 3])
    def test_random_zero_sum_fits_span_on_leaf(self, k):
        rng = np.random.default_rng(17 + k)
        z1 = rng.random(k - 1) + 1j * 0.4 * (rng.random(k - 1) - 0.5)
        z2 = rng.random(k - 1) + 1j * 0.4 * (rng.random(k - 1) - 0.5)
        zetas = [ZetaShift(complex(a), complex(b)) for a, b in zip(z1, z2)]
        zetas.append(ZetaShift(-z1.sum(), -z2.sum()))
        pts = leaf_samples(64, 50 + k, 0.13)
        assert product_fit_residual(zetas, k, pts) < 1e-8

    def test_membership_is_leafwise_only(self):
        # the same zero-sum product sampled across varying y leaves the span:
        # the fiber modulus y + i enters the expansion coefficients
        zetas = [
            ZetaShift(0.3 + 0.1j, 0.2),
            ZetaShift(0.25 - 0.05j, 0.15),
            ZetaShift(-0.55 - 0.05j, -0.35),
        ]
        assert product_fit_residual(zetas, 3, fundamental_domain_samples(64, 60)) > 1e-5


class TestFitInSpan:
    def test_recovers_basis_element(self):
        pts = fundamental_domain_samples(32, 8)
        idx = SectionIndex(2, 1, 0)
        vals = [section(idx, KTPoint.from_array(p)) for p in pts]
        coeff, res = fit_in_span(pts, vals, 2)
        assert res < 1e-12
        unit = np.zeros(4, dtype=complex)
        unit[2] = 1.0  # flat index p*k+q = 2
        assert np.allclose(coeff, unit, atol=1e-10)

    def test_negative_control_non_member(self):
        pts = fundamental_domain_samples(32, 9)
        _, res = fit_in_span(pts, np.exp(pts[:, 0]), 2)
        assert res > 0.1

    def test_too_few_samples(self):
        pts = fundamental_domain_samples(5, 10)
        with pytest.raises(ValueError, match="at least 8 samples"):
            fit_in_span(pts, np.ones(5), 2)

    def test_values_per_point(self):
        pts = fundamental_domain_samples(16, 10)
        with pytest.raises(ValueError, match="16 points but 15 values"):
            fit_in_span(pts, np.ones(15), 2)

    def test_ill_conditioned(self):
        # repeating one sample point makes the design matrix rank deficient;
        # the least-squares solve's singular values show it
        pts = np.repeat(U0.as_array()[None], 16, axis=0)
        with pytest.raises(IllConditioned):
            fit_in_span(pts, np.full(16, section(SectionIndex(1, 0, 0), U0)), 2)


def search_pairs(n):
    """n seeded pairs (us, vs) of (n, 4) points; the first quarter share (y, t)."""
    rng = np.random.default_rng(3)
    us, vs = rng.random((2, n, 4))
    vs[:n // 4, 1::2] = us[:n // 4, 1::2]
    return us, vs


def loop_search(u, v, seed, retries):
    """Reference: the separating-section search as a loop over scalar draws,
    one shift product per candidate.  Returns ((alpha, beta, gamma, delta,
    branch), value at u, value at v, scale), or None."""
    u, v = reduce_point(u)[0], reduce_point(v)[0]
    rng = np.random.default_rng(seed)
    dy, dt = (v.y - u.y) % 1.0, (v.t - u.t) % 1.0
    primary = "fiber" if math.hypot(min(dy, 1 - dy), min(dt, 1 - dt)) < 1e-4 else "base"
    pts = np.vstack([fundamental_domain_samples(24, 1729), u.as_array(), v.as_array()])
    for branch in (primary, "base" if primary == "fiber" else "fiber"):
        w_u, w_v = ((u.z + 1j * u.x, v.z + 1j * v.x) if branch == "fiber"
                    else (u.y + 1j * u.t, v.y + 1j * v.t))
        if branch != primary == "base" and abs(w_v - w_u) < 1e-8:
            continue
        for _ in range(retries):
            if branch == "base":
                gamma = 0.5 - w_u
                alpha, beta = rng.random(2) + 1j * (rng.random(2) - 0.5) * 0.6
                delta = complex(rng.random() + 1j * (rng.random() - 0.5) * 0.6)
            else:
                alpha = 0.5 - w_u
                beta = complex(rng.random() + 1j * (rng.random() - 0.5) * 0.6)
                gamma, delta = rng.random(2) + 1j * (rng.random(2) - 0.5) * 0.6
            a, b, g, d = map(complex, (alpha, beta, gamma, delta))
            vals = shift_product([(a, g), (b, d), (-a - b, -g - d)], pts)
            scale = float(np.abs(vals[:-2]).max())
            if scale > 0 and abs(vals[-2]) < 1e-8 * scale and abs(vals[-1]) > 1e-3 * scale:
                return (a, b, g, d, branch), vals[-2], vals[-1], scale
    return None


def one_pair(u: KTPoint, v: KTPoint, seed: int):
    """``separating_sections`` of the one pair (u, v)."""
    return separating_sections(u.as_array()[None], v.as_array()[None], [seed])[0]


def shifts_of(res) -> np.ndarray:
    """The three (zeta1, zeta2) shifts of a SeparationResult's section, (3, 2)."""
    return _zeta_array(np.array([res.alpha, res.beta, res.gamma, res.delta]))


class TestSeparatingSections:
    def test_generic_pair(self):
        u = KTPoint(0.1, 0.2, 0.3, 0.4)
        v = KTPoint(0.8, 0.6, 0.9, 0.1)
        res = one_pair(u, v, 5)
        assert abs(res.value_at_u) < 1e-8 * res.scale
        assert abs(res.value_at_v) > 1e-3 * res.scale

    def test_shared_base_coordinates(self):
        # same (y, t): the zero must be placed in the fiber factor
        u = KTPoint(0.15, 0.5, 0.25, 0.6)
        v = KTPoint(0.75, 0.5, 0.65, 0.6)
        res = one_pair(u, v, 6)
        assert res.branch == "fiber"
        assert abs(res.value_at_u) < 1e-8 * res.scale
        assert abs(res.value_at_v) > 1e-3 * res.scale

    def test_zetas_have_zero_sum(self):
        res = one_pair(KTPoint(0.1, 0.2, 0.3, 0.4), KTPoint(0.9, 0.8, 0.7, 0.6), 7)
        z1, z2 = shifts_of(res).sum(axis=0)
        assert abs(z1) < 1e-12 and abs(z2) < 1e-12

    def test_separating_value_consistent(self):
        u = KTPoint(0.1, 0.2, 0.3, 0.4)
        v = KTPoint(0.8, 0.6, 0.9, 0.1)
        res = one_pair(u, v, 8)
        at_u, at_v = shift_product(shifts_of(res), np.stack([u.as_array(), v.as_array()]))
        assert abs(at_u - res.value_at_u) < 1e-12 * res.scale
        assert abs(at_v - res.value_at_v) < 1e-12 * res.scale

    @pytest.mark.parametrize(
        "u, v, seed, expected",
        [
            (
                (0.1, 0.2, 0.3, 0.4), (0.8, 0.6, 0.9, 0.1), 5,
                (0.8050029237453802 + 0.009195336625285199j,
                 0.8079407897364937 - 0.12851917194711504j,
                 0.3 - 0.4j,
                 0.053930702381656426 - 0.06997867152868906j, "base"),
            ),
            (
                (0.15, 0.5, 0.25, 0.6), (0.75, 0.5, 0.65, 0.6), 6,
                (0.25 - 0.15j,
                 0.5381643514719432 - 0.09403747811199693j,
                 0.36906723979537825 + 0.29246699411187993j,
                 0.37449676558788236 + 0.07965376356428763j, "fiber"),
            ),
            (
                (0.62, 0.13, 0.91, 0.27), (0.05, 0.71, 0.44, 0.88), 11,
                (0.12857020276919962 + 0.060899014574014476j,
                 0.49927786244011496 - 0.2827865949768333j,
                 0.37 - 0.27j,
                 0.14792608457745593 + 0.25692661377622167j, "base"),
            ),
        ],
    )
    def test_seeded_shift_parameters_are_pinned(self, u, v, seed, expected):
        # the seeded draws and the gates fix the returned shifts exactly
        res = one_pair(KTPoint(*u), KTPoint(*v), seed)
        assert (res.alpha, res.beta, res.gamma, res.delta, res.branch) == expected

    def test_equivalent_points_rejected(self):
        u = KTPoint(0.1, 0.2, 0.3, 0.4)
        v = act(GENERATORS["a"], u)
        with pytest.raises(EquivalentPoints, match="pair 0"):
            one_pair(u, v, 0)
        pairs = np.array([[0.9, 0.8, 0.7, 0.6], u.as_array()]), np.array([U0.as_array(),
                                                                        v.as_array()])
        with pytest.raises(EquivalentPoints, match="pair 1"):
            separating_sections(*pairs, [0, 1])

    @pytest.mark.parametrize("us, vs, seeds, got", [
        ((2, 4), (3, 4), [0, 1], "(2, 4), (3, 4), 2"),
        ((2, 4), (2, 4), [0], "(2, 4), (2, 4), 1"),
        ((2, 3), (2, 3), [0, 1], "(2, 3), (2, 3), 2"),
    ])
    def test_mismatched_batch_rejected(self, us, vs, seeds, got):
        with pytest.raises(ValueError, match=re.escape(
                f"need (B, 4) point arrays and B seeds, got {got}")):
            separating_sections(np.zeros(us), np.ones(vs), seeds)

    @pytest.mark.parametrize("seeds, bad", [([1.5, 2], "pair 0 must be an int of at least 0, got 1.5"),
                                            ([0, -1], "pair 1 must be an int of at least 0, got -1")])
    def test_seeds_must_be_nonnegative_ints(self, seeds, bad):
        # numpy's TypeError and ValueError never surface
        pts = fundamental_domain_samples(4, 1)
        with pytest.raises(ValueError, match=re.escape(f"the seed of {bad}")):
            separating_sections(pts[:2], pts[2:], seeds)
        assert separating_sections(pts[:2], pts[2:], [np.int64(1), 2])[0] is not None

    def test_exhausted_search_fails(self, monkeypatch):
        # with the zero placed at 0 instead of 1/2 no candidate vanishes at u
        monkeypatch.setattr(sections_module, "THETA_ZERO", 0.0)
        monkeypatch.setattr(sections_module, "RETRIES", 2)
        u, v = KTPoint(0.1, 0.2, 0.3, 0.4), KTPoint(0.8, 0.6, 0.9, 0.1)
        assert one_pair(u, v, 5) is None
        assert separating_sections(np.stack([u.as_array()] * 2),
                                   np.stack([v.as_array(), U0.as_array()]), [5, 6]) == [None] * 2

    def test_batched_rows_match_one_pair_calls(self):
        us, vs = search_pairs(24)
        seeds = range(100, 124)
        for res, u, v, seed in zip(separating_sections(us, vs, seeds), us, vs, seeds):
            one = separating_sections(u[None], v[None], [seed])[0]
            assert (res.alpha, res.beta, res.gamma, res.delta, res.branch) == (
                one.alpha, one.beta, one.gamma, one.delta, one.branch)
            for got, want in ((res.value_at_u, one.value_at_u), (res.value_at_v, one.value_at_v),
                              (res.scale, one.scale)):
                assert abs(got - want) <= 1e-13 * one.scale

    @pytest.mark.parametrize("retries", [1, 32])
    def test_candidates_match_sequential_draws(self, monkeypatch, retries):
        # the batched search reads each pair's draws as the loop reads them;
        # one retry per branch sends generic pair 165 of search_pairs(200)
        # (row 17 here) to its fiber fallback
        monkeypatch.setattr(sections_module, "RETRIES", retries)
        us, vs = (np.concatenate([a[:12], a[160:172]]) for a in search_pairs(200))
        seeds = list(range(12)) + list(range(160, 172))
        branches = []
        for res, u, v, seed in zip(separating_sections(us, vs, seeds), us, vs, seeds):
            shifts, at_u, at_v, scale = loop_search(KTPoint.from_array(u), KTPoint.from_array(v),
                                                    seed, retries)
            assert (res.alpha, res.beta, res.gamma, res.delta, res.branch) == shifts
            assert abs(res.value_at_u - at_u) <= 1e-13 * scale
            assert abs(res.value_at_v - at_v) <= 1e-13 * scale
            assert abs(res.scale - scale) <= 1e-13 * scale
            branches.append(res.branch)
        fallback = 17 if retries == 1 else None
        assert branches == ["fiber"] * 12 + ["fiber" if i == fallback else "base"
                                             for i in range(12, 24)]

    def test_each_point_reduced_once(self, monkeypatch):
        original = sections_module.reduce_point
        reduced = []

        def counting(u):
            reduced.append(u)
            return original(u)

        monkeypatch.setattr(sections_module, "reduce_point", counting)
        us, vs = search_pairs(10)
        separating_sections(us, vs, range(10))
        assert len(reduced) == 20

    def test_section_property_of_constructed_product(self):
        # the separating product transforms with the cube of the multiplicator
        u = KTPoint(0.1, 0.2, 0.3, 0.4)
        v = KTPoint(0.8, 0.6, 0.9, 0.1)
        res = one_pair(u, v, 9)
        w = KTPoint(0.51, 0.23, 0.77, 0.35)
        g = GENERATORS["a"]
        lhs, at_w = shift_product(shifts_of(res), np.stack([act(g, w).as_array(), w.as_array()]))
        rhs = multiplicator_batch(g, w.as_array()) ** 3 * at_w
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))
