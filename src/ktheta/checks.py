"""Registered verification suites with machine-readable reports.

A suite is a function of a ``RunConfig`` that returns ``_finish(...)``.
``@suite("name")`` appends it to ``REGISTRY`` in definition order, the
order of ``run_all`` and ``ktheta check``, and replaces it by a runner that
times it and stamps its report with the name and ``ms``; so
``check_zero_locus(cfg)`` and ``REGISTRY["zero_locus"](cfg)`` are one call.

Every suite returns a CheckReport whose pass flag is equivalent to
``max_residual <= threshold``.  Lower-bound style checks (nondegeneracy,
separation) report the shortfall below the required minimum, so a healthy
run records residual 0.0 against threshold 0.0.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import theta as th
from .embedding import (
    chordal_distances,
    generator_invariance_residuals,
    injectivity_scan,
    phi_batch,
)
from .errors import SearchFailed
from .manifold import (
    GENERATORS,
    GroupWord,
    KTPoint,
    act_on_array,
    cocycle_residual,
    fundamental_domain_samples,
    multiplicator_exponent,
)
from .sections import (
    ZetaShift,
    factor,
    factors,
    fit_in_span,
    section_matrix,
    section_matrix_with_gradients,
    separating_section,
    shift_product,
)
from .symplectic import (
    BasisTorus,
    TORUS_AXES,
    chern_cocycle,
    chern_via_multiplicators,
    decompose_left_invariant_batch,
    exterior_derivative_residuals,
    fs_normalization,
    fs_pullback_batch,
    hermitian_pullback_batch,
    hermitian_ranks,
    integrate_over_torus,
    pfaffian_batch,
)


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for the verification suites and the CLI.

    ``ktheta``'s config files take exactly these fields as keys.
    """

    k: int = 3
    epsilon: float = 1e-14
    samples: int = 0  # 0 means each suite uses its documented default
    seed: int = 42
    grid: int = 64
    fd_step: float = 1e-4
    max_terms: int = 512
    policy: th.TruncationPolicy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")
        if self.grid < 8:
            raise ValueError("grid must be at least 8")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        # the policy validates epsilon and max_terms
        object.__setattr__(self, "policy", th.TruncationPolicy(self.epsilon, self.max_terms))

    def count(self, default: int) -> int:
        return self.samples if self.samples > 0 else default


@dataclass
class CheckReport:
    check: str
    params: dict
    samples: int
    max_residual: float
    threshold: float
    passed: bool
    witness: dict | None = None
    ms: float = 0.0

    def to_dict(self) -> dict:
        """The fields in order, with ``passed`` under the key ``pass``."""
        return {("pass" if key == "passed" else key): val for key, val in asdict(self).items()}


REGISTRY: dict[str, Callable[[RunConfig], CheckReport]] = {}


def suite(name: str):
    """Register the decorated suite as ``name``; see the module docstring."""

    def register(body):
        @functools.wraps(body)
        def run(cfg: RunConfig) -> CheckReport:
            t0 = time.perf_counter()
            report = body(cfg)
            report.check = name
            report.ms = (time.perf_counter() - t0) * 1000.0
            return report

        REGISTRY[name] = run
        return run

    return register


def _finish(params, samples, residual, threshold, witness=None) -> CheckReport:
    """The report of a suite body; its ``suite`` runner fills in name and time."""
    return CheckReport(
        check="",
        params=params,
        samples=samples,
        max_residual=float(residual),
        threshold=float(threshold),
        passed=bool(residual <= threshold),
        witness=witness,
    )


def _random_theta_args(rng, n):
    z = rng.random(n) + 1j * (rng.random(n) - 0.5)
    tau = (rng.random(n) - 0.5) + 1j * (0.5 + 1.5 * rng.random(n))
    return z, tau


@suite("quasi_periodicity")
def check_quasi_periodicity(cfg: RunConfig) -> CheckReport:
    """Eqs. theta(z+1) = theta(z) and theta(z+tau) = exp(-2 pi i z) theta(z).

    The series removes whole periods from Re z before summing, so the z+1
    half checks that exact reduction; the sum itself is checked by z+tau.
    """
    n = cfg.count(1000)
    rng = np.random.default_rng(cfg.seed)
    z, tau = _random_theta_args(rng, n)
    policy = cfg.policy
    base, shift1, shift_tau = th.theta_batch(np.stack([z, z + 1.0, z + tau]), tau,
                                             policy=policy)[0]
    factor = np.exp(-2j * math.pi * z)
    r1 = np.abs(shift1 - base) / np.maximum(np.abs(base), 1e-300)
    r2 = np.abs(shift_tau - factor * base) / np.maximum(
        np.maximum(np.abs(shift_tau), np.abs(factor * base)), 1e-300
    )
    worst = float(max(r1.max(), r2.max()))
    i = int(np.argmax(np.maximum(r1, r2)))
    witness = {"z": [z[i].real, z[i].imag], "tau": [tau[i].real, tau[i].imag]}
    return _finish({"eps": cfg.epsilon}, n, worst, 1e-10, witness)


@suite("tau_shift_invariance")
def check_tau_shift(cfg: RunConfig) -> CheckReport:
    """Invariance of theta under tau -> tau + 1.

    The series removes whole periods from Re tau before summing, so this
    checks that exact reduction, not the sum.
    """
    n = cfg.count(200)
    rng = np.random.default_rng(cfg.seed + 1)
    z, tau = _random_theta_args(rng, n)
    policy = cfg.policy
    base, shifted = th.theta_batch(z, np.stack([tau, tau + 1.0]), policy=policy)[0]
    worst = float((np.abs(shifted - base) / np.maximum(np.abs(base), 1e-300)).max())
    return _finish({"eps": cfg.epsilon}, n, worst, 1e-10)


@suite("heat_equation")
def check_heat_equation(cfg: RunConfig) -> CheckReport:
    """d theta/d tau = (1/4 pi i) d^2 theta/dz^2 - (1/2) d theta/dz, termwise exact."""
    n = cfg.count(100)
    rng = np.random.default_rng(cfg.seed + 2)
    z = rng.random(n) + 1j * (rng.random(n) - 0.5)
    tau = rng.random(n) + 1j
    policy = cfg.policy
    dt, dzz, dz = th.theta_batch(z, tau, [(0, 1), (2, 0), (1, 0)], policy)
    residual = np.abs(dt - dzz / (4j * math.pi) + 0.5 * dz)
    worst = float(residual.max())
    i = int(np.argmax(residual))
    witness = {"z": [z[i].real, z[i].imag], "tau": [tau[i].real, tau[i].imag]}
    return _finish({"eps": cfg.epsilon}, n, worst, 1e-8, witness)


@suite("zero_locus")
def check_zero_locus(cfg: RunConfig) -> CheckReport:
    """theta vanishes at 1/2 and all its lattice translates.

    The integer steps m reduce exactly to 1/2 + n*tau before summing, so the
    sum is checked at the tau*Z translates; the m steps check the reduction.
    """
    tau = np.array([1j, 0.3 + 0.8j, -0.4 + 1.7j])[:, None]
    m, nn = (np.indices((3, 3)) - 1).reshape(2, -1)  # the lattice steps in {-1, 0, 1}^2
    vals = th.theta_batch(0.5 + m + nn * tau, tau, policy=cfg.policy)[0]
    return _finish({}, vals.size, np.abs(vals).max(), 1e-10)


def _numerical_rank(matrix, rel_tol=1e-8):
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int((sv > rel_tol * sv[0]).sum())


@suite("dimension_ranks")
def check_dimension_ranks(cfg: RunConfig) -> CheckReport:
    """Numerical rank k of the classical basis and k^2 of the section basis."""
    rng = np.random.default_rng(cfg.seed + 3)
    policy = cfg.policy
    worst = 0.0
    total = 0
    for k in (2, 3):
        # the base factor at (y, t) = (Re z, Im z) is the classical basis at (z, i)
        base_pts = np.zeros((8 * k, 4))
        base_pts[:, 1] = rng.random(8 * k)
        base_pts[:, 3] = 0.4 * (rng.random(8 * k) - 0.5)
        vals = factor("base", k, base_pts, policy)
        worst = max(worst, abs(_numerical_rank(vals) - k))
        pts = fundamental_domain_samples(8 * k * k, cfg.seed + 4 + k)
        worst = max(worst, abs(_numerical_rank(section_matrix(k, pts, policy)) - k * k))
        total += 8 * k + 8 * k * k
    return _finish({"ks": [2, 3]}, total, worst, 0.0)


@suite("tensor_power_law")
def check_tensor_power_law(cfg: RunConfig) -> CheckReport:
    """section(g.u) = e_g(u)^k section(u) for every generator, k in {1,2,3}."""
    n = cfg.count(200)
    policy = cfg.policy
    worst = 0.0
    witness = None
    for k in (1, 2, 3):
        pts = fundamental_domain_samples(n, cfg.seed + 5 + k)
        base = section_matrix(k, pts, policy)
        for name, g in GENERATORS.items():
            moved = section_matrix(k, act_on_array(g, pts), policy)
            e_k = np.exp(-2j * math.pi * k * multiplicator_exponent(g, pts))
            num = np.abs(moved - e_k[:, None] * base).max(axis=1)
            den = np.maximum(np.abs(moved).max(axis=1), 1e-300)
            res = float((num / den).max())
            if res > worst:
                worst = res
                witness = {"k": k, "generator": name}
    return _finish({"ks": [1, 2, 3]}, n, worst, 1e-10, witness)


@suite("multiplicator_cocycle")
def check_multiplicator_cocycle(cfg: RunConfig) -> CheckReport:
    """e_{w1}(w2.u) e_{w2}(u) = e_{w1 w2}(u) over random word pairs."""
    n = cfg.count(500)
    rng = np.random.default_rng(cfg.seed + 9)
    worst = 0.0
    for _ in range(n):
        w1 = GroupWord(*(int(v) for v in rng.integers(-3, 4, 4)))
        w2 = GroupWord(*(int(v) for v in rng.integers(-3, 4, 4)))
        u = KTPoint(*(float(v) for v in rng.random(4)))
        worst = max(worst, cocycle_residual(w1, w2, u))
    return _finish({}, n, worst, 1e-12)


@suite("product_closure")
def check_product_closure(cfg: RunConfig) -> CheckReport:
    """Zero-sum shift products fit the degree-k span; nonzero-sum ones do not.

    The fit samples share one y coordinate: span membership is leafwise in
    y, because the fiber modulus y + i enters the expansion coefficients.
    """
    lists_per_k = cfg.count(50)
    policy = cfg.policy
    rng = np.random.default_rng(cfg.seed + 10)
    worst = 0.0
    neg_min = math.inf
    for k in (2, 3):
        fit_pts = fundamental_domain_samples(64, cfg.seed + 11 + k).copy()
        fit_pts[:, 1] = float(rng.random())
        fit_points = [KTPoint.from_array(p) for p in fit_pts]
        members = [shift_product(_random_zero_sum_shifts(rng, k), fit_pts, policy)
                   for _ in range(lists_per_k)]
        broken = []
        for _ in range(5):
            zetas = _random_zero_sum_shifts(rng, k)
            zetas[0] = ZetaShift(zetas[0].zeta1 + 0.37 + 0.21j, zetas[0].zeta2 + 0.18 - 0.3j)
            broken.append(shift_product(zetas, fit_pts, policy))
        _, res = fit_in_span(list(zip(fit_points, np.transpose(members))), k, policy)
        worst = max(worst, float(res.max()))
        _, res = fit_in_span(list(zip(fit_points, np.transpose(broken))), k, policy)
        neg_min = min(neg_min, float(res.min()))
    residual = worst + (0.0 if neg_min > 0.1 else 1.0)
    witness = {"negative_control_min_residual": neg_min}
    return _finish({"ks": [2, 3]}, 2 * lists_per_k, residual, 1e-8, witness)


def _random_zero_sum_shifts(rng, k):
    z1 = rng.random(k - 1) + 1j * 0.6 * (rng.random(k - 1) - 0.5)
    z2 = rng.random(k - 1) + 1j * 0.6 * (rng.random(k - 1) - 0.5)
    zetas = [ZetaShift(complex(a), complex(b)) for a, b in zip(z1, z2)]
    zetas.append(ZetaShift(-z1.sum(), -z2.sum()))
    return zetas


@suite("separating_sections")
def check_separating_sections(cfg: RunConfig) -> CheckReport:
    """Constructed degree-3 sections vanish at u and stay away from zero at v."""
    n = cfg.count(100)
    n_adversarial = n // 4
    rng = np.random.default_rng(cfg.seed + 14)
    policy = cfg.policy
    worst_u = 0.0
    min_v = math.inf
    failures = 0
    for i in range(n):
        a = rng.random(4)
        b = rng.random(4)
        if i < n_adversarial:
            b[1] = a[1]
            b[3] = a[3]
        u = KTPoint.from_array(a)
        v = KTPoint.from_array(b)
        try:
            res = separating_section(u, v, policy, seed=cfg.seed + i)
        except SearchFailed:
            failures += 1
            continue
        worst_u = max(worst_u, abs(res.value_at_u) / res.scale)
        min_v = min(min_v, abs(res.value_at_v) / res.scale)
    residual = worst_u + (0.0 if (min_v > 1e-3 and failures == 0) else 1.0)
    witness = {"min_ratio_at_v": min_v, "search_failures": failures}
    return _finish({}, n, residual, 1e-8, witness)


@suite("immersion_rank")
def check_immersion_rank(cfg: RunConfig) -> CheckReport:
    """Differential of phi_k has rank 4 at every sampled point (k >= 3)."""
    n = cfg.count(500)
    pts = fundamental_domain_samples(n, cfg.seed + 15)
    ranks = hermitian_ranks(*hermitian_pullback_batch("phi_k", cfg.k, pts, cfg.policy), tol=1e-6)
    worst = float(np.abs(ranks - 4).max())
    i = int(np.abs(ranks - 4).argmax())
    witness = {"point": list(map(float, pts[i])), "rank": int(ranks[i])}
    return _finish({"k": cfg.k}, n, worst, 0.0, witness)


@suite("injectivity")
def check_injectivity(cfg: RunConfig) -> CheckReport:
    """No image near-collisions among quotient-separated sample pairs."""
    n = cfg.count(2000)
    report = injectivity_scan(cfg.k, n, cfg.seed, cfg.policy)
    residual = max(0.0, report.threshold - report.min_image_distance)
    witness = {
        "min_image_distance": report.min_image_distance,
        "witness_indices": list(report.witness_indices),
        "witness_quotient_distance": report.witness_quotient_distance,
    }
    return _finish({"k": cfg.k, "seed": cfg.seed}, n, residual, 0.0, witness)


@suite("segre_factorization")
def check_segre_factorization(cfg: RunConfig) -> CheckReport:
    """phi_k equals the Segre image of (psi', psi'') projectively."""
    n = cfg.count(200)
    pts = fundamental_domain_samples(n, cfg.seed + 16)
    policy = cfg.policy
    lifts = phi_batch(cfg.k, pts, policy)
    fiber, base = factors(cfg.k, pts, policy)
    combined = np.einsum("bp,bq->bpq", fiber, base).reshape(n, -1)
    worst = float(chordal_distances(lifts, combined).max())
    return _finish({"k": cfg.k}, n, worst, 1e-12)


@suite("well_definedness")
def check_well_definedness(cfg: RunConfig) -> CheckReport:
    """phi_k descends to the quotient: generator moves leave the image fixed."""
    n = cfg.count(200)
    worst = max(
        float(generator_invariance_residuals(k, fundamental_domain_samples(n, cfg.seed + 17 + k),
                                             cfg.policy).max())
        for k in (1, 2, 3)
    )
    return _finish({"ks": [1, 2, 3]}, n, worst, 1e-10)


@suite("basepoint_freeness")
def check_basepoint_freeness(cfg: RunConfig) -> CheckReport:
    """Some section stays uniformly away from zero at every sampled point."""
    n = cfg.count(10000)
    pts = fundamental_domain_samples(n, cfg.seed + 21)
    lifts = phi_batch(cfg.k, pts, cfg.policy)
    lifts = lifts / np.linalg.norm(lifts, axis=1, keepdims=True)
    min_max_coord = float(np.abs(lifts).max(axis=1).min())
    residual = max(0.0, 1e-6 - min_max_coord)
    return _finish({"k": cfg.k}, n, residual, 0.0, {"min_max_coordinate": min_max_coord})


@suite("pullback_nondegenerate")
def check_pullback_nondegenerate(cfg: RunConfig) -> CheckReport:
    """Pfaffian of the phi_k pullback is bounded away from 0 with constant sign."""
    n = cfg.count(10000)
    pts = fundamental_domain_samples(n, cfg.seed + 22)
    pf = pfaffian_batch(fs_pullback_batch("phi_k", cfg.k, pts, cfg.policy))
    min_abs = float(np.abs(pf).min())
    constant_sign = bool(np.all(pf > 0) or np.all(pf < 0))
    residual = max(0.0, 1e-8 - min_abs) + (0.0 if constant_sign else 1.0)
    witness = {"min_abs_pfaffian": min_abs, "sign": float(np.sign(pf[0]))}
    return _finish({"k": cfg.k}, n, residual, 0.0, witness)


@suite("closedness")
def check_closedness(cfg: RunConfig) -> CheckReport:
    """Finite-difference exterior derivative of the pullback vanishes."""
    n = cfg.count(100)
    h = cfg.fd_step
    pts = fundamental_domain_samples(n, cfg.seed + 23)
    worst = float(exterior_derivative_residuals("phi_k", cfg.k, pts, h, cfg.policy).max())
    return _finish({"k": cfg.k, "h": h}, n, worst, 1e-6)


@suite("structure_decomposition")
def check_structure_decomposition(cfg: RunConfig) -> CheckReport:
    """Structural shape of the psi pullbacks and the 2*alpha*beta top power."""
    n = cfg.count(200)
    pts = fundamental_domain_samples(n, cfg.seed + 24)
    policy = cfg.policy
    base_mats = fs_pullback_batch("psi_double_prime", cfg.k, pts, policy)
    fiber_mats = fs_pullback_batch("psi_prime", cfg.k, pts, policy)
    full_mats = fs_pullback_batch("phi_k", cfg.k, pts, policy)

    # psi'' is alpha * dy^dt only, alpha > 0
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 3] = mask[3, 1] = False
    worst = float(np.abs(base_mats[:, mask]).max())
    alpha = base_mats[:, 1, 3]
    # psi' has no dt components
    worst = max(worst, float(np.abs(fiber_mats[:, :, 3]).max()))
    # top power 2*alpha*beta against twice the Pfaffian, with the
    # left-invariant coefficients beta = zx and yt of the full pullback
    coeffs = decompose_left_invariant_batch(pts, full_mats)
    zx, yt = coeffs["zx"], coeffs["yt"]
    beta_min = float(zx.min())
    alpha_min = float(alpha.min())
    worst_top = float(np.abs(2.0 * pfaffian_batch(full_mats) - 2.0 * zx * yt).max())
    # each constituent has its own tolerance; normalize so the combined
    # residual passes iff every constituent is within its gate
    combined = max(
        worst / 1e-10,
        worst_top / 1e-8,
        (1.0 if (alpha_min <= 0 or beta_min <= 0) else 0.0),
    )
    witness = {
        "alpha_min": alpha_min,
        "beta_min": beta_min,
        "off_structure_max": worst,
        "top_power_residual": worst_top,
    }
    return _finish({"k": cfg.k}, n, combined, 1.0, witness)


@suite("fs_normalization")
def check_fs_normalization(cfg: RunConfig) -> CheckReport:
    """The chart integral of the Fubini-Study pullback over CP^1 equals 1."""
    val = fs_normalization()
    return _finish({}, 1, abs(val - 1.0), 1e-6, {"integral": val})


@suite("chern_multiplicators")
def check_chern_multiplicators(cfg: RunConfig) -> CheckReport:
    """Branch-function Chern numbers are exactly (1, 1, 0, 0) on the basis tori."""
    expected = {"T_ca": 1, "T_bd": 1, "T_cb": 0, "T_ad": 0}
    rng = np.random.default_rng(cfg.seed + 25)
    worst = 0
    for torus_id, want in expected.items():
        for _ in range(25):
            u = KTPoint(*(float(v) for v in 6 * (rng.random(4) - 0.5)))
            worst = max(worst, abs(chern_via_multiplicators(torus_id, u) - want))
    return _finish({}, 100, float(worst), 0.0)


@suite("chern_cocycle_integrality")
def check_chern_cocycle_integrality(cfg: RunConfig) -> CheckReport:
    """The log-branch 2-cocycle takes integer values on random word triples."""
    n = cfg.count(200)
    rng = np.random.default_rng(cfg.seed + 26)
    worst = 0.0
    for _ in range(n):
        words = [GroupWord(*(int(v) for v in rng.integers(-2, 3, 4))) for _ in range(3)]
        u = KTPoint(*(float(v) for v in rng.random(4)))
        val = chern_cocycle(words[0], words[1], words[2], u)
        worst = max(worst, abs(val - round(val)))
    return _finish({}, n, worst, 1e-10)


@suite("torus_integrals")
def check_torus_integrals(cfg: RunConfig) -> CheckReport:
    """Signed curvature integrals equal k * c1(L) on the oriented basis tori.

    c1(L) = (1, 1, 0, 0) on (T_ca, T_bd, T_cb, T_ad) comes from the
    multiplicators, so a pullback of the wrong sign fails.
    """
    expected = {tid: float(cfg.k * chern_via_multiplicators(tid)) for tid in TORUS_AXES}
    policy = cfg.policy
    worst = 0.0
    conv_worst = 0.0
    values = {}
    for torus_id, want in expected.items():
        torus = BasisTorus(torus_id)
        coarse = integrate_over_torus("phi_k", cfg.k, torus, cfg.grid, policy)
        fine = integrate_over_torus("phi_k", cfg.k, torus, 2 * cfg.grid, policy)
        values[torus_id] = coarse
        worst = max(worst, abs(coarse - want))
        conv_worst = max(conv_worst, abs(coarse - fine))
    residual = max(worst / 1e-4, conv_worst / 1e-8)
    witness = {"integrals": values, "expected": expected, "grid_convergence": conv_worst}
    return _finish({"k": cfg.k, "grid": cfg.grid}, 4, residual, 1.0, witness)


@suite("derivative_crosscheck")
def check_derivative_crosscheck(cfg: RunConfig) -> CheckReport:
    """Analytic section gradients match central finite differences."""
    n = cfg.count(100)
    h = 1e-5
    pts = fundamental_domain_samples(n, cfg.seed + 27)
    policy = cfg.policy
    vals, grads = section_matrix_with_gradients(cfg.k, pts, policy)
    worst = 0.0
    for axis in range(4):
        shift = np.zeros(4)
        shift[axis] = h
        plus = section_matrix(cfg.k, pts + shift, policy)
        minus = section_matrix(cfg.k, pts - shift, policy)
        fd = (plus - minus) / (2.0 * h)
        scale = np.maximum(np.abs(grads[:, axis, :]), 1.0)
        worst = max(worst, float((np.abs(fd - grads[:, axis, :]) / scale).max()))
    return _finish({"k": cfg.k, "h": h}, n, worst, 1e-6)


def run_all(cfg: RunConfig) -> list[CheckReport]:
    """Run every registered suite in registration order."""
    return [fn(cfg) for fn in REGISTRY.values()]
