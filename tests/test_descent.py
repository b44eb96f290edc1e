"""Single-point maps descend: phi, projective_rank and fs_pullback evaluate at
reduce_point(u), agree with the raw lift wherever it is finite, and stay
finite far off the fundamental domain."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ktheta.theta as theta_module
from ktheta import GroupWord, KTPoint, act, fs_pullback, phi, phi_batch, projective_rank
from ktheta.embedding import chordal_distances
from ktheta.symplectic import fs_pullback_batch, hermitian_pullback_batch, hermitian_ranks

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
