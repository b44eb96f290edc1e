"""Single-point maps descend: phi, projective_rank and fs_pullback evaluate at
reduce_point(u), agree with the raw lift wherever it is finite, and stay
finite far off the fundamental domain."""

import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ktheta
import ktheta.theta as theta_module
from ktheta import (GroupWord, KTPoint, act, fs_pullback, phi, phi_batch, projective_rank,
                    reduce_point)
from ktheta.embedding import chordal_distances, psi_double_prime, psi_prime
from ktheta.sections import factor
from ktheta.symplectic import MAP_IDS, fs_pullback_batch, hermitian_pullback_batch, hermitian_ranks
from ktheta.theta import TruncationPolicy

unit = st.floats(0.0, 1.0, exclude_max=True)
points = st.builds(KTPoint, unit, unit, unit, unit)


def words(bound):
    exponent = st.integers(-bound, bound)
    return st.builds(GroupWord, exponent, exponent, exponent, exponent)


def normalizable(v) -> bool:
    """Whether v / |v| is a finite unit vector; false once |v|^2 overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.linalg.norm(v)
        return bool(np.isfinite(n) and n > 0.0 and np.isfinite(v / n).all())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(u0=points, w=words(2), k=st.sampled_from([3, 4, 16]))
def test_reduced_outputs_match_the_raw_lift(u0, w, k):
    u = act(w, u0)
    raw = u.as_array()
    with np.errstate(over="ignore", invalid="ignore"):
        lift = phi_batch(k, raw)[0]
        b, scale = hermitian_pullback_batch("phi_k", k, raw)
        form = fs_pullback_batch("phi_k", k, raw)[0]
    if normalizable(lift):
        assert chordal_distances(phi(k, u).coords, lift)[0] < 1e-10
    if np.isfinite(b).all():
        assert projective_rank(k, u) == hermitian_ranks(b, scale, 1e-6)[0]
    if np.isfinite(form).all():
        got = fs_pullback("phi_k", k, u).matrix
        assert np.abs(got - form).max() <= 1e-8 * np.abs(form).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(u0=points, w=words(50), k=st.sampled_from([3, 16]))
def test_outputs_finite_far_off_the_domain(u0, w, k):
    u = act(w, u0)
    assert np.isfinite(phi(k, u).coords).all()
    assert projective_rank(k, u) == 4
    assert np.isfinite(fs_pullback("phi_k", k, u).matrix).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("u", [KTPoint(3e17, 0.3, 0.2, 0.1), KTPoint(1e200, 1e200, 0.3, -1e250)])
def test_outputs_finite_at_huge_coordinates(u):
    # reduce_point splits m*y exactly, so even these reduce to a finite u0
    assert np.isfinite(phi(16, u).coords).all()
    assert projective_rank(16, u) == 4
    assert np.isfinite(fs_pullback("phi_k", 3, u).matrix).all()


def test_single_point_calls_take_the_cell_window(monkeypatch):
    # after one warm-up call per kind, in-domain and off-domain points alike
    # take their window from the cached cell table, with no per-point search
    calls = []
    window = theta_module._basis_window

    def counting(*args):
        calls.append(args)
        return window(*args)

    inside = KTPoint(0.31, 0.57, 0.12, 0.83)
    outside = act(GroupWord(2, -1, 1, 2), KTPoint(0.7, 0.1, 0.4, 0.9))
    queries = [lambda u, k=k: phi(k, u) for k in (3, 16)]
    queries += [lambda u: projective_rank(16, u), lambda u: fs_pullback("phi_k", 3, u)]
    for query in queries:
        query(inside)
    monkeypatch.setattr(theta_module, "_basis_window", counting)
    for query in queries:
        query(inside)
        query(outside)
    assert calls == []


def seeded_queries(n, seed):
    """``n`` points act(w, u0), u0 uniform in [0, 1)^4 and the exponents of w
    uniform in [-2, 2], as the benchmark's queries draw them, with their words."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        u0 = KTPoint(*(float(c) for c in rng.random(4)))
        w = GroupWord(*(int(e) for e in rng.integers(-2, 3, 4)))
        out.append((act(w, u0), w))
    return out


# Reduced coordinates where whole-period removal rounds half to even (1/2 to
# 0, 5/8 and 7/8 to 1) and where the window table's cells meet; 1 - 2^-53
# is the last double below 1 and 1/2 - 2^-54 the last below 1/2.
EDGES = (0.0, 1 / 8, 1 / 4, 1 / 2, 5 / 8, 7 / 8, 1 - 2**-53, 0.5 - 2**-54)
EDGE_POINTS = [KTPoint(a, b, b, a) for a in EDGES for b in EDGES] + [
    KTPoint(a, a, b, b) for a in EDGES for b in EDGES]
FAR_POINTS = [KTPoint(8.0, 0.2, 0.1, 0.4), KTPoint(-7.5, 3.2, 11.1, -4.4),
              KTPoint(1e6 + 0.5, -0.5, 2.5, 1e3 + 0.125)]


@pytest.mark.parametrize("k", [2, 3, 5, 16, 64])
def test_single_point_maps_are_one_row_batches(k):
    # one evaluation path: each single-point map is bit for bit the batch
    # path on the one reduced row, the pullback with the Jacobian correction
    # J^T Omega J of fs_pullback's docstring; omega_kt at the point itself
    moved = [u for u, _ in seeded_queries(200, 31 + k)]
    for u in moved + EDGE_POINTS + FAR_POINTS:
        u0, w = reduce_point(u)
        a = u0.as_array()
        assert np.array_equal(phi(k, u).coords, phi_batch(k, a)[0])
        assert np.array_equal(psi_prime(k, u).coords, factor("fiber", k, a))
        assert np.array_equal(psi_double_prime(k, u).coords, factor("base", k, a))
        b, scale = hermitian_pullback_batch("phi_k", k, a)
        assert projective_rank(k, u) == hermitian_ranks(b, scale, 1e-6)[0]
        for map_id in MAP_IDS:
            want = fs_pullback_batch(map_id, k, u.as_array() if map_id == "omega_kt" else a)[0]
            if map_id != "omega_kt" and w.m:
                want[:, 1] -= w.m * want[:, 2]
                want[1, :] -= w.m * want[2, :]
            assert np.array_equal(fs_pullback(map_id, k, u).matrix, want)


# Python-level calls into ktheta of one warm single-point op: a budget that
# no numpy version moves.  The counts below are this code's; a change that
# adds glue to the one path must raise them on purpose.
GLUE_BUDGET = {"phi": 12, "rank": 13, "pullback": 13}


@pytest.mark.parametrize("k", [3, 16])
@pytest.mark.parametrize("kind", sorted(GLUE_BUDGET))
def test_single_point_glue_budget(kind, k):
    package = os.path.dirname(ktheta.__file__) + os.sep
    u = act(GroupWord(1, -2, 2, 1), KTPoint(0.3, 0.2, 0.1, 0.4))
    query = {"phi": lambda: phi(k, u), "rank": lambda: projective_rank(k, u),
             "pullback": lambda: fs_pullback("phi_k", k, u)}[kind]
    query()  # fills the window and constant caches
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        query()
    finally:
        sys.setprofile(None)
    assert len(calls) <= GLUE_BUDGET[kind], calls


@pytest.mark.parametrize("kind", sorted(GLUE_BUDGET))
def test_warm_single_point_maps_build_no_constants(kind, monkeypatch):
    # a single-point block's constants are built once per (k, policy,
    # orders, cells), at the first query of a policy no other test uses;
    # a warm query builds none
    policy = TruncationPolicy({"phi": 2e-14, "rank": 3e-14, "pullback": 4e-14}[kind])
    u = act(GroupWord(1, -2, 2, 1), KTPoint(0.3, 0.2, 0.1, 0.4))
    query = {"phi": lambda: phi(3, u, policy), "rank": lambda: projective_rank(3, u, policy=policy),
             "pullback": lambda: fs_pullback("phi_k", 3, u, policy)}[kind]
    built, original = [], theta_module._block_constants
    monkeypatch.setattr(theta_module, "_block_constants",
                        lambda *args: built.append(args) or original(*args))
    query()
    assert len(built) == 1
    for _ in range(3):
        query()
    assert len(built) == 1
