"""Every registered suite can fail.

Each test runs one suite at a small fixed config and asserts that it
passes, then monkeypatches a plausible fault into a library name the
suite reaches and asserts that it fails (DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978).  Four faults are a NaN in the
suite's input: Python's ``max(0.0, nan)`` is 0.0, so these show that a NaN
reaches the report's residual.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

import ktheta.checks as checks
import ktheta.embedding as embedding
import ktheta.manifold as manifold
import ktheta.sections as sections
import ktheta.symplectic as symplectic
import ktheta.theta as th
from ktheta.checks import REGISTRY, RunConfig
from ktheta.manifold import GroupWord

# k = 3, where torus_integrals' grid, torus_grid(3) = 36, meets its
# grid-convergence gate of 1e-8 with a drift of 4.4e-16 (a grid of 15 is
# the least that does)
SMALL = RunConfig(samples=16)

MUTATIONS = {}  # suite name -> its faults, in definition order


def mutation(name):
    """Register the decorated fault as a mutation of suite ``name``."""

    def register(inject):
        MUTATIONS.setdefault(name, []).append(inject)
        return inject

    return register


def wrap(monkeypatch, owner, name, make):
    """Replace ``owner.name`` by ``make(original)``."""
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))


@mutation("quasi_periodicity")
@mutation("tau_shift_invariance")
@mutation("zero_locus")
def quadratic_term_n_squared(monkeypatch):
    """The series sums pi i tau n^2 in place of pi i tau n (n - 1).

    That series is theta(z + tau/2, tau): its multiplicator for z + tau
    gains exp(-pi i tau), its period in tau is 2, not 1, and it vanishes at
    1/2 + tau/2, not at 1/2.
    """

    def make(theta_batch):
        def faulty(zs, taus, *args, **kwargs):
            return theta_batch(np.asarray(zs) + np.asarray(taus) / 2, taus, *args, **kwargs)

        return faulty

    wrap(monkeypatch, th, "theta_batch", make)


@mutation("heat_equation")
def tau_derivative_as_z_derivative(monkeypatch):
    """The kernel returns the tau-derivative where the z-derivative is asked."""

    def make(theta_batch):
        def faulty(zs, taus, orders=((0, 0),), *args, **kwargs):
            orders = [(0, 1) if order == (1, 0) else order for order in orders]
            return theta_batch(zs, taus, orders, *args, **kwargs)

        return faulty

    wrap(monkeypatch, th, "theta_batch", make)


@mutation("dimension_ranks")
def last_residue_repeated(monkeypatch):
    """An off-by-one residue index repeats one section of the basis."""

    def make(section_matrix):
        def faulty(k, pts, *args, **kwargs):
            vals = section_matrix(k, pts, *args, **kwargs)
            return vals[..., np.minimum(np.arange(k * k), k * k - 2)]

        return faulty

    wrap(monkeypatch, checks, "section_matrix", make)


@mutation("tensor_power_law")
def base_modulus_two_i(monkeypatch):
    """The base factor's modulus is 2i, not the multiplicators' i."""
    monkeypatch.setattr(sections, "BASE_TAU", 2j)


@mutation("multiplicator_cocycle")
def nan_cocycle_residual(monkeypatch):
    """One cocycle residual is NaN."""

    def make(cocycle_residual):
        def faulty(*args):
            residuals = np.array(cocycle_residual(*args))
            residuals[0] = math.nan
            return residuals

        return faulty

    wrap(monkeypatch, checks, "cocycle_residual", make)


@mutation("product_closure")
def last_shift_dropped(monkeypatch):
    """The shift product stops one factor short of each stacked list."""

    def make(shift_product):
        def faulty(zetas, pts, *args, **kwargs):
            return shift_product(np.asarray(zetas)[..., :-1, :], pts, *args, **kwargs)

        return faulty

    wrap(monkeypatch, checks, "shift_product", make)


@mutation("separating_sections")
def theta_zero_at_origin(monkeypatch):
    """The search places theta's zero at 0 instead of 1/2."""
    monkeypatch.setattr(sections, "THETA_ZERO", 0.0)


@mutation("immersion_rank")
@mutation("pullback_nondegenerate")
def phi_form_without_base(monkeypatch):
    """phi_k's pullback leaves out its base factor's form."""
    monkeypatch.setitem(symplectic.MAP_FACTORS, "phi_k", ("fiber",))


@mutation("injectivity")
def nan_image_distance(monkeypatch):
    """The scan reports a NaN minimum image distance."""

    def make(injectivity_scan):
        def faulty(*args, **kwargs):
            return dataclasses.replace(injectivity_scan(*args, **kwargs),
                                       min_image_distance=math.nan)

        return faulty

    wrap(monkeypatch, checks, "injectivity_scan", make)


@mutation("segre_factorization")
def segre_order_transposed(monkeypatch):
    """phi_k orders the Segre coordinates q*k + p in place of p*k + q."""

    def make(phi_batch):
        def faulty(k, pts, *args, **kwargs):
            lifts = phi_batch(k, pts, *args, **kwargs)
            return lifts.reshape(-1, k, k).transpose(0, 2, 1).reshape(len(lifts), -1)

        return faulty

    wrap(monkeypatch, checks, "phi_batch", make)


@mutation("well_definedness")
def a_without_shear(monkeypatch):
    """The generator a moves x without shearing z by y."""

    def faulty(w, pts):
        return np.asarray(pts, dtype=float) + (w.m, w.n, w.p, w.q)

    monkeypatch.setattr(embedding, "act_on_array", faulty)


@mutation("basepoint_freeness")
def nan_lift_row(monkeypatch):
    """One point's fiber lift is NaN."""

    def make(factor):
        def faulty(*args, **kwargs):
            lifts = factor(*args, **kwargs)
            lifts[0, 0] = np.nan
            return lifts

        return faulty

    wrap(monkeypatch, checks, "factor", make)


@mutation("closedness")
@mutation("fs_normalization")
def projection_term_dropped(monkeypatch):
    """The Fubini-Study form keeps <dF, dF>/|F|^2 and drops the projection term."""

    def make(fs_hermitian):
        def faulty(vals, grads, tables):
            d = np.einsum("fmr,fbrn->fbmn", tables, grads)  # the partials from the rows
            n2 = np.einsum("...n,...n->...", vals.conj(), vals).real
            m = np.einsum("...mn,...ln->...ml", d, d.conj())
            return (m / n2[..., None, None]).sum(axis=0), fs_hermitian(vals, grads, tables)[1]

        return faulty

    wrap(monkeypatch, symplectic, "fs_hermitian", make)


@mutation("structure_decomposition")
def factor_maps_swapped(monkeypatch):
    """psi' and psi'' name each other's Segre factor."""
    monkeypatch.setitem(symplectic.MAP_FACTORS, "psi_prime", ("base",))
    monkeypatch.setitem(symplectic.MAP_FACTORS, "psi_double_prime", ("fiber",))


@mutation("chern_multiplicators")
def multiplicator_sign_flipped(monkeypatch):
    """The branch functions take e_w = exp(+2 pi i f_w)."""
    wrap(monkeypatch, symplectic, "multiplicator_exponent",
         lambda f: lambda w, pts: -f(w, pts))


@mutation("chern_cocycle_integrality")
def transition_without_shear(monkeypatch):
    """The transition functions move points without a's shear of z by y."""
    monkeypatch.setattr(symplectic, "act_on_array",
                        lambda w, pts: pts + np.stack([w.m, w.n, w.p, w.q], axis=-1))


@mutation("chern_cocycle_integrality")
def dropped_commutator(monkeypatch):
    """``inverse`` drops the commutator term -n*m of c's exponent.

    The multiplicators read only the exponents m and q, so the cocycle
    itself stays bit for bit the same; only the group law sees this.
    """

    def faulty(w):
        return GroupWord(-w.m, -w.n, -w.p, -w.q)

    for owner in (manifold, symplectic):
        monkeypatch.setattr(owner, "inverse", faulty)


@mutation("torus_integrals")
def nan_integral(monkeypatch):
    """The integral over T_cb is NaN."""

    def make(integrate_over_torus):
        def faulty(map_id, k, torus, *args):
            return math.nan if torus.id == "T_cb" else integrate_over_torus(map_id, k, torus, *args)

        return faulty

    wrap(monkeypatch, checks, "integrate_over_torus", make)


@mutation("derivative_crosscheck")
def chain_rule_y_and_t_swapped(monkeypatch):
    """The base factor's chain rule swaps its y and t rows."""
    swapped = np.array([[0, 0], [1j, 0], [0, 0], [1, 0]])
    monkeypatch.setattr(sections, "CHAIN", {**sections.CHAIN, "base": swapped})
    monkeypatch.setattr(sections, "_chain", functools.cache(sections._chain.__wrapped__))


def test_every_suite_has_a_mutation():
    assert MUTATIONS.keys() == REGISTRY.keys()


# a suite's first fault keeps the suite's name as its id
@pytest.mark.parametrize("name, inject", [
    pytest.param(name, inject, id=name if i == 0 else f"{name}-{inject.__name__}")
    for name in REGISTRY for i, inject in enumerate(MUTATIONS[name])])
def test_mutation_fails_suite(name, inject, monkeypatch):
    assert REGISTRY[name](SMALL).passed
    inject(monkeypatch)
    assert not REGISTRY[name](SMALL).passed
