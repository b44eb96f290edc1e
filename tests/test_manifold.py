"""Lattice group arithmetic, multiplicators, 2-forms, quotient geometry."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktheta import GroupWord, KTPoint, act, fundamental_domain_samples, reduce_point
from ktheta.manifold import (
    GENERATORS,
    IDENTITY,
    TwoFormAtPoint,
    act_on_array,
    cocycle_residual,
    compose,
    inverse,
    multiplicator_batch,
    omega_kt_matrix,
    reduced_distance,
)

words = st.builds(
    GroupWord,
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)

coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
points = st.builds(KTPoint, coords, coords, coords, coords)

# multiplicator magnitudes grow like exp(2*pi*(word length x coordinate size));
# keep products representable in double precision for the analytic tests
small_words = st.builds(
    GroupWord,
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
small_coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
small_points = st.builds(KTPoint, small_coords, small_coords, small_coords, small_coords)


def _gen_exponent(gen: str, u: KTPoint) -> complex:
    """f with e_gen(u) = exp(-2*pi*i*f(u))."""
    if gen == "a":
        return u.z + 1j * u.x
    if gen == "d":
        return u.y + 1j * u.t
    return 0.0 + 0.0j


def recursion_multiplicator(w: GroupWord, u: KTPoint) -> complex:
    """Independent oracle: e_w(u) built by the cocycle recursion.

    e_{gw'}(u) = e_g(w'.u) * e_{w'}(u) over the normal-form factorization,
    with e_a(u) = exp(-2*pi*i*(z+ix)), e_d(u) = exp(-2*pi*i*(y+it)) and
    e_b = e_c = 1.  The generator exponents are accumulated and
    exponentiated once, which avoids intermediate overflow and keeps the
    phase accurate for long words.
    """
    expo = 0.0 + 0.0j
    point = u
    # rightmost factor acts first
    for gen, count in (("d", w.q), ("c", w.p), ("b", w.n), ("a", w.m)):
        g = GENERATORS[gen]
        if count >= 0:
            for _ in range(count):
                expo += _gen_exponent(gen, point)
                point = act(g, point)
        else:
            ginv = inverse(g)
            for _ in range(-count):
                point = act(ginv, point)
                expo -= _gen_exponent(gen, point)
    return complex(np.exp(-2j * cmath.pi * expo))


class TestGroupArithmetic:
    @given(words, words, words)
    def test_associativity(self, w1, w2, w3):
        assert compose(compose(w1, w2), w3) == compose(w1, compose(w2, w3))

    @given(words)
    def test_inverse(self, w):
        assert compose(w, inverse(w)) == IDENTITY
        assert compose(inverse(w), w) == IDENTITY

    @given(words)
    def test_identity(self, w):
        assert compose(w, IDENTITY) == w
        assert compose(IDENTITY, w) == w

    @given(words, words, points)
    @settings(max_examples=50)
    def test_action_is_homomorphism(self, w1, w2, u):
        left = act(compose(w1, w2), u)
        right = act(w1, act(w2, u))
        assert np.allclose(left.as_array(), right.as_array(), atol=1e-9)

    def test_commutator_of_a_and_b_is_c_inverse(self):
        a, b = GENERATORS["a"], GENERATORS["b"]
        comm = compose(compose(a, b), compose(inverse(a), inverse(b)))
        # a b a^-1 b^-1 = c^{-1} in the normal-form convention p2 = p1+p2-n1*m2
        assert comm in (GroupWord(0, 0, 1, 0), GroupWord(0, 0, -1, 0))
        u = KTPoint(0.2, 0.3, 0.4, 0.5)
        assert np.allclose(act(comm, u).as_array(), act(comm, u).as_array())

    def test_c_and_d_are_central(self):
        for central in (GroupWord(0, 0, 1, 0), GroupWord(0, 0, 0, 1)):
            for g in GENERATORS.values():
                assert compose(central, g) == compose(g, central)

    @given(points)
    @settings(max_examples=50)
    def test_reduce_point_roundtrip(self, u):
        v, w = reduce_point(u)
        assert 0.0 <= v.x < 1.0 and 0.0 <= v.y < 1.0
        assert 0.0 <= v.z < 1.0 and 0.0 <= v.t < 1.0
        assert np.allclose(act(w, v).as_array(), u.as_array(), atol=1e-9)

    @pytest.mark.parametrize("u", [KTPoint(3e17, 0.3, 0.2, 0.1), KTPoint(1e200, 1e200, 0.3, -1e250),
                                   KTPoint(-1e300, -7.3, 1e300, 1e-300), KTPoint(-2.5, 0.1, 4.9, 0.0)])
    def test_reduce_point_exact_for_huge_coordinates(self, u):
        # z0 = frac(z - m*y) from exact rationals; the float product m*y
        # would lose every fractional digit, or overflow
        v, w = reduce_point(u)
        exact = Fraction(u.z) - w.m * Fraction(u.y)
        assert abs(v.z - float(exact % 1)) <= 2.0**-52 and w.p == math.floor(exact)
        assert 0.0 <= min(v.as_array()) and max(v.as_array()) < 1.0

    def test_act_on_array_matches_scalar(self):
        pts = fundamental_domain_samples(10, 1)
        w = GroupWord(2, -1, 3, 1)
        batch = act_on_array(w, pts)
        for i in range(10):
            assert np.allclose(batch[i], act(w, KTPoint.from_array(pts[i])).as_array())

    def test_point_validation(self):
        with pytest.raises(ValueError):
            KTPoint(float("nan"), 0.0, 0.0, 0.0)


class TestMultiplicators:
    def test_generator_values(self):
        u = KTPoint(0.21, 0.33, 0.47, 0.68)
        ea = multiplicator_batch(GENERATORS["a"], u.as_array())
        assert abs(ea - cmath.exp(-2j * cmath.pi * (u.z + 1j * u.x))) < 1e-14
        assert multiplicator_batch(GENERATORS["b"], u.as_array()) == 1.0
        assert multiplicator_batch(GENERATORS["c"], u.as_array()) == 1.0
        ed = multiplicator_batch(GENERATORS["d"], u.as_array())
        assert abs(ed - cmath.exp(-2j * cmath.pi * (u.y + 1j * u.t))) < 1e-14

    @given(small_words, small_points)
    @settings(max_examples=100)
    def test_against_cocycle_recursion_oracle(self, w, u):
        got = multiplicator_batch(w, u.as_array())
        ref = recursion_multiplicator(w, u)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    @given(small_words, small_words, small_points)
    @settings(max_examples=100)
    def test_cocycle_law(self, w1, w2, u):
        assert cocycle_residual(w1, w2, u.as_array()) < 1e-9

    def test_word_arrays_match_per_row_words(self):
        # words with array exponents broadcast against (B, 4) point arrays;
        # each row is the scalar word's value at that row's point
        rng = np.random.default_rng(17)
        e1, e2 = rng.integers(-3, 4, (2, 4, 64))
        w1, w2 = GroupWord(*e1), GroupWord(*e2)
        pts = rng.random((64, 4))
        residuals = cocycle_residual(w1, w2, pts)
        moved = act_on_array(compose(w1, inverse(w2)), pts)
        assert residuals.shape == (64,) and moved.shape == (64, 4)
        for i in range(64):
            a, b = GroupWord(*map(int, e1[:, i])), GroupWord(*map(int, e2[:, i]))
            assert abs(residuals[i] - cocycle_residual(a, b, pts[i])) <= 1e-15
            assert np.array_equal(moved[i], act_on_array(compose(a, inverse(b)), pts[i]))
        # a batch of words against one point
        assert np.array_equal(act_on_array(w1, pts[0]), act_on_array(w1, np.tile(pts[0], (64, 1))))

    def test_group_relations_hold_for_multiplicators(self):
        # e respects a b = c^{-1} b a (the lattice relation), via the cocycle law
        u = KTPoint(0.15, 0.45, 0.78, 0.05)
        a, b = GENERATORS["a"], GENERATORS["b"]
        ab = compose(a, b)
        ba = compose(b, a)
        e_ab = multiplicator_batch(ab, u.as_array())
        e_ba = multiplicator_batch(ba, u.as_array())
        # c has trivial multiplicator, so both orderings agree
        assert abs(e_ab - e_ba) < 1e-12 * abs(e_ab)


class TestTwoForms:
    def test_antisymmetry_enforced(self):
        with pytest.raises(ValueError):
            TwoFormAtPoint(KTPoint(0, 0, 0, 0), np.eye(4))

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="^matrix must be 4x4$"):
            TwoFormAtPoint(KTPoint(0, 0, 0, 0), np.zeros((3, 3)))

    def test_omega_kt_components(self):
        u = KTPoint(0.7, 0.2, 0.9, 0.4)
        form = omega_kt_matrix(u.as_array())
        # (dz - x dy)^dx + dy^dt = -dx^dz + x dx^dy + dy^dt
        assert form[0, 2] == -1.0
        assert form[0, 1] == u.x
        assert form[1, 3] == 1.0
        assert form[2, 3] == 0.0


def quotient_distance(u: KTPoint, v: KTPoint) -> float:
    """``reduced_distance`` of the ``reduce_point`` representatives of u and v."""
    return reduced_distance(reduce_point(u)[0].as_array(), reduce_point(v)[0].as_array())


class TestQuotientDistance:
    def test_zero_on_orbit(self):
        u = KTPoint(0.3, 0.6, 0.2, 0.9)
        for w in [GroupWord(1, 0, 0, 0), GroupWord(0, 1, 1, 0), GroupWord(-1, 2, 0, 1)]:
            assert quotient_distance(u, act(w, u)) < 1e-12

    def test_positive_off_orbit(self):
        u = KTPoint(0.3, 0.6, 0.2, 0.9)
        v = KTPoint(0.31, 0.6, 0.2, 0.9)
        assert 0.005 < quotient_distance(u, v) < 0.05

    def test_invariant_under_translating_second_argument(self):
        # the minimum ranges over lattice translates of the second point, so
        # pre-translating it by a unit word does not change the value
        u = KTPoint(0.12, 0.77, 0.31, 0.44)
        v = KTPoint(0.62, 0.03, 0.95, 0.21)
        base = quotient_distance(u, v)
        for w in [GroupWord(1, 0, 0, 0), GroupWord(0, -1, 0, 1)]:
            assert abs(quotient_distance(u, act(w, v)) - base) < 1e-12


class TestSamples:
    def test_deterministic_and_in_domain(self):
        a = fundamental_domain_samples(100, 42)
        b = fundamental_domain_samples(100, 42)
        assert np.array_equal(a, b)
        assert a.shape == (100, 4)
        assert (a >= 0.0).all() and (a < 1.0).all()

    @pytest.mark.parametrize("n, seed, name", [(5, -1, "seed"), (5, 1.5, "seed"),
                                               (2.5, 0, "n"), (-1, 0, "n")])
    def test_bad_count_or_seed_rejected_by_name(self, n, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative int, got "):
            fundamental_domain_samples(n, seed)

    def test_injectivity_scan_rejects_a_negative_seed(self):
        from ktheta import injectivity_scan

        with pytest.raises(ValueError, match="^seed must be a non-negative int, got -1$"):
            injectivity_scan(3, 10, -1)

    def test_numpy_integer_arguments_give_the_same_samples(self):
        assert np.array_equal(fundamental_domain_samples(np.int64(7), np.int64(42)),
                              fundamental_domain_samples(7, 42))
