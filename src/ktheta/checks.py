"""Registered verification suites with machine-readable reports.

A suite is a function of a ``RunConfig`` that returns ``_finish(...)``.
``@suite("name")`` appends it to ``REGISTRY`` in definition order, the
order of ``run_all`` and ``ktheta check``, and replaces it by a runner that
times it and stamps its report with the name and ``ms``; so
``check_zero_locus(cfg)`` and ``REGISTRY["zero_locus"](cfg)`` are one call.
The runner rejects k = 1 with a ValueError: phi_1 maps to CP^0, so the
rank, injectivity, form and integral verdicts would fail with no reason.

Every suite returns a CheckReport whose pass flag is equivalent to
``max_residual <= threshold``.  ``_finish`` reduces a suite's residuals
with ``np.max``, which propagates NaN, so a computation that goes NaN
reports a NaN residual and fails.  Lower-bound style checks (nondegeneracy,
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
    unit_rows,
)
from .manifold import (
    GENERATORS,
    GroupWord,
    KTPoint,
    act_on_array,
    cocycle_residual,
    fundamental_domain_samples,
    group_law_residual,
    multiplicator_batch,
)
from .sections import (
    AXES,
    FACTOR_AXES,
    factor,
    fit_in_span,
    section_matrix,
    separating_sections,
    shift_product,
)
from .symplectic import (
    BasisTorus,
    TORUS_AXES,
    chern_cocycle,
    chern_via_multiplicators,
    decompose_left_invariant_batch,
    FD_STEP,
    exterior_derivative_residuals,
    fs_normalization,
    fs_pullback_batch,
    hermitian_pullback_batch,
    hermitian_ranks,
    integrate_over_torus,
    pfaffian_batch,
    torus_grid,
    torus_nodes,
)


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for the verification suites and the CLI.

    Each ``ktheta`` command has a flag for each field it reads.  Every suite
    passes at k = 2, 3, 5, 8, 16, 32 and 64 (the degrees CI runs) and rejects
    k = 1; k = 2 passes although phi_2 is not injective.
    """

    k: int = 3
    epsilon: float = 1e-14
    samples: int = 0  # 0 means each suite uses its documented default
    seed: int = 42
    policy: th.TruncationPolicy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        th.check_degree(self.k)
        for name in ("samples", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.samples < 0 or self.samples == 1:
            raise ValueError("samples must be 0 (suite defaults) or at least 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # the policy validates epsilon
        object.__setattr__(self, "policy", th.TruncationPolicy(self.epsilon))

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
            if cfg.k < 2:
                raise ValueError(f"the suites check phi_k, which needs k >= 2: phi_{cfg.k} "
                                 f"maps every point to CP^0")
            t0 = time.perf_counter()
            report = body(cfg)
            report.check = name
            report.ms = (time.perf_counter() - t0) * 1000.0
            return report

        REGISTRY[name] = run
        return run

    return register


def _finish(params, samples, residuals, threshold, witness=None) -> CheckReport:
    """The report of a suite body; its ``suite`` runner fills in name and time.

    ``residuals`` is one residual or a list or array of them; their
    ``np.max`` is the report's residual, NaN if any of them is NaN.
    """
    residual = float(np.max(residuals))
    return CheckReport(
        check="",
        params=params,
        samples=samples,
        max_residual=residual,
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
    """Eq. theta(z+tau) = exp(-2 pi i z) theta(z).

    The series removes whole periods from Re z before summing, so z -> z+1
    sums the same terms; a tier-1 test covers it.
    """
    n = cfg.count(1000)
    rng = np.random.default_rng(cfg.seed)
    z, tau = _random_theta_args(rng, n)
    base, shifted = th.theta_batch(np.stack([z, z + tau]), tau, policy=cfg.policy)[0]
    moved = np.exp(-2j * math.pi * z) * base
    scale = np.maximum(np.maximum(np.abs(shifted), np.abs(moved)), 1e-300)
    residual = np.abs(shifted - moved) / scale
    i = int(np.argmax(residual))
    witness = {"z": [z[i].real, z[i].imag], "tau": [tau[i].real, tau[i].imag]}
    return _finish({"eps": cfg.epsilon}, n, residual, 1e-10, witness)


@suite("tau_shift_invariance")
def check_tau_shift(cfg: RunConfig) -> CheckReport:
    """Invariance of theta under tau -> tau + 1.

    The series removes whole periods from Re tau before summing, so this
    checks that exact reduction, not the sum.
    """
    n = cfg.count(200)
    rng = np.random.default_rng(cfg.seed + 1)
    z, tau = _random_theta_args(rng, n)
    base, shifted = th.theta_batch(z, np.stack([tau, tau + 1.0]), policy=cfg.policy)[0]
    residual = np.abs(shifted - base) / np.maximum(np.abs(base), 1e-300)
    return _finish({"eps": cfg.epsilon}, n, residual, 1e-10)


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
    i = int(np.argmax(residual))
    witness = {"z": [z[i].real, z[i].imag], "tau": [tau[i].real, tau[i].imag]}
    return _finish({"eps": cfg.epsilon}, n, residual, 1e-8, witness)


@suite("zero_locus")
def check_zero_locus(cfg: RunConfig) -> CheckReport:
    """theta vanishes at 1/2 and all its lattice translates.

    The series removes whole periods from Re z, rounding half to even, so
    where Re z is 1/2 mod 1 the integer steps m land on +1/2 or -1/2 and
    sum different terms.
    """
    tau = np.array([1j, 0.3 + 0.8j, -0.4 + 1.7j])[:, None]
    m, nn = (np.indices((3, 3)) - 1).reshape(2, -1)  # the lattice steps in {-1, 0, 1}^2
    vals = th.theta_batch(0.5 + m + nn * tau, tau, policy=cfg.policy)[0]
    return _finish({}, vals.size, np.abs(vals), 1e-10)


def _numerical_rank(matrix):
    """Singular values above 1e-8 times the largest."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    return int((sv > 1e-8 * sv[0]).sum())


@suite("dimension_ranks")
def check_dimension_ranks(cfg: RunConfig) -> CheckReport:
    """Numerical rank k of the classical basis and k^2 of the section basis."""
    rng = np.random.default_rng(cfg.seed + 3)
    policy = cfg.policy
    defects = []
    total = 0
    y, t = FACTOR_AXES["base"]
    for k in (2, 3):
        # the base factor at (y, t) = (Re z, Im z) is the classical basis at (z, i)
        base_pts = np.zeros((8 * k, 4))
        base_pts[:, y] = rng.random(8 * k)
        base_pts[:, t] = 0.4 * (rng.random(8 * k) - 0.5)
        vals = factor("base", k, base_pts, policy)
        defects.append(abs(_numerical_rank(vals) - k))
        pts = fundamental_domain_samples(8 * k * k, cfg.seed + 4 + k)
        defects.append(abs(_numerical_rank(section_matrix(k, pts, policy)) - k * k))
        total += 8 * k + 8 * k * k
    return _finish({"ks": [2, 3]}, total, defects, 0.0)


@suite("tensor_power_law")
def check_tensor_power_law(cfg: RunConfig) -> CheckReport:
    """section(g.u) = e_g(u)^k section(u) for every generator, k in {1,2,3}.

    Per k, the points and their four moves are one ``section_matrix`` call.
    """
    n = cfg.count(200)
    policy = cfg.policy
    residuals, cases = [], []
    for k in (1, 2, 3):
        pts = fundamental_domain_samples(n, cfg.seed + 5 + k)
        base, *moved = section_matrix(
            k, np.stack([pts] + [act_on_array(g, pts) for g in GENERATORS.values()]), policy)
        for (name, g), vals in zip(GENERATORS.items(), moved):
            e_k = multiplicator_batch(g, pts) ** k
            num = np.abs(vals - e_k[:, None] * base).max(axis=1)
            den = np.maximum(np.abs(vals).max(axis=1), 1e-300)
            residuals.append((num / den).max())
            cases.append({"k": k, "generator": name})
    witness = cases[int(np.argmax(residuals))]
    return _finish({"ks": [1, 2, 3]}, n, residuals, 1e-10, witness)


@suite("multiplicator_cocycle")
def check_multiplicator_cocycle(cfg: RunConfig) -> CheckReport:
    """e_{w1}(w2.u) e_{w2}(u) = e_{w1 w2}(u) over random word pairs, in one array pass."""
    n = cfg.count(500)
    rng = np.random.default_rng(cfg.seed + 9)
    w1, w2 = (GroupWord(*exponents) for exponents in rng.integers(-3, 4, (2, 4, n)))
    return _finish({}, n, cocycle_residual(w1, w2, rng.random((n, 4))), 1e-12)


@suite("product_closure")
def check_product_closure(cfg: RunConfig) -> CheckReport:
    """Zero-sum shift products fit the degree-k span; nonzero-sum ones do not.

    The fit samples share one y coordinate: span membership is leafwise in
    y, because the fiber modulus y + i enters the expansion coefficients.
    Per k, the member and control shift lists are stacked into one
    ``shift_product`` call and fitted together by one ``fit_in_span`` call.
    """
    lists_per_k = cfg.count(50)
    policy = cfg.policy
    rng = np.random.default_rng(cfg.seed + 10)
    fits, controls = [], []
    for k in (2, 3):
        fit_pts = fundamental_domain_samples(64, cfg.seed + 11 + k).copy()
        fit_pts[:, FACTOR_AXES["base"][0]] = float(rng.random())  # the leaf's y
        # the members, then five controls whose first shift breaks the zero sum
        lists = np.array([_random_zero_sum_shifts(rng, k) for _ in range(lists_per_k + 5)])
        lists[lists_per_k:, 0] += (0.37 + 0.21j, 0.18 - 0.3j)
        vals = shift_product(lists[:, None], fit_pts, policy)
        residuals = fit_in_span(fit_pts, vals.T, k, policy)[1]
        fits.append(residuals[:lists_per_k])
        controls.append(residuals[lists_per_k:])
    neg_min = float(np.min(controls))
    residual = np.max(fits) + (0.0 if neg_min > 0.1 else 1.0)
    witness = {"negative_control_min_residual": neg_min}
    return _finish({"ks": [2, 3]}, 2 * lists_per_k, residual, 1e-8, witness)


def _random_zero_sum_shifts(rng, k):
    """k shifts (zeta1, zeta2) as a (k, 2) array, the last one cancelling the others' sum."""
    shifts = np.empty((k, 2), dtype=complex)
    for col in range(2):
        shifts[:-1, col] = rng.random(k - 1) + 1j * 0.6 * (rng.random(k - 1) - 0.5)
    shifts[-1] = -shifts[:-1].sum(axis=0)
    return shifts


@suite("separating_sections")
def check_separating_sections(cfg: RunConfig) -> CheckReport:
    """Constructed degree-3 sections vanish at u and stay away from zero at v.

    The first quarter of the pairs share their base coordinates (y, t).
    """
    n = cfg.count(100)
    rng = np.random.default_rng(cfg.seed + 14)
    us, vs = rng.random((n, 2, 4)).transpose(1, 0, 2)
    vs[:n // 4, FACTOR_AXES["base"]] = us[:n // 4, FACTOR_AXES["base"]]
    found = [res for res in separating_sections(us, vs, range(cfg.seed, cfg.seed + n), cfg.policy)
             if res is not None]
    failures = n - len(found)
    at_u = [0.0] + [abs(res.value_at_u) / res.scale for res in found]
    min_v = float(np.min([math.inf] + [abs(res.value_at_v) / res.scale for res in found]))
    residual = np.max(at_u) + (0.0 if (min_v > 1e-3 and failures == 0) else 1.0)
    witness = {"min_ratio_at_v": min_v, "search_failures": failures}
    return _finish({}, n, residual, 1e-8, witness)


@suite("immersion_rank")
def check_immersion_rank(cfg: RunConfig) -> CheckReport:
    """Differential of phi_k has rank 4 at every sampled point (k >= 3)."""
    n = cfg.count(500)
    pts = fundamental_domain_samples(n, cfg.seed + 15)
    ranks = hermitian_ranks(*hermitian_pullback_batch("phi_k", cfg.k, pts, cfg.policy), tol=1e-6)
    defects = np.abs(ranks - 4)
    i = int(defects.argmax())
    witness = {"point": list(map(float, pts[i])), "rank": int(ranks[i])}
    return _finish({"k": cfg.k}, n, defects, 0.0, witness)


@suite("injectivity")
def check_injectivity(cfg: RunConfig) -> CheckReport:
    """No image near-collisions among quotient-separated sample pairs."""
    n = cfg.count(2000)
    report = injectivity_scan(cfg.k, n, cfg.seed, cfg.policy)
    witness = {
        "min_image_distance": report.min_image_distance,
        "witness_indices": list(report.witness_indices),
        "witness_quotient_distance": report.witness_quotient_distance,
    }
    return _finish({"k": cfg.k, "seed": cfg.seed}, n,
                   [0.0, report.threshold - report.min_image_distance], 0.0, witness)


@suite("segre_factorization")
def check_segre_factorization(cfg: RunConfig) -> CheckReport:
    """phi_k equals the Segre image of (psi', psi'') projectively."""
    n = cfg.count(200)
    pts = fundamental_domain_samples(n, cfg.seed + 16)
    policy = cfg.policy
    lifts = phi_batch(cfg.k, pts, policy)
    fiber, base = factor(("fiber", "base"), cfg.k, pts, policy)
    combined = np.einsum("bp,bq->bpq", fiber, base).reshape(n, -1)
    return _finish({"k": cfg.k}, n, chordal_distances(lifts, combined), 1e-12)


@suite("well_definedness")
def check_well_definedness(cfg: RunConfig) -> CheckReport:
    """phi_k descends to the quotient: generator moves leave the image fixed."""
    n = cfg.count(200)
    residuals = [generator_invariance_residuals(k, fundamental_domain_samples(n, cfg.seed + 17 + k),
                                                cfg.policy).max()
                 for k in (1, 2, 3)]
    return _finish({"ks": [1, 2, 3]}, n, residuals, 1e-10)


@suite("basepoint_freeness")
def check_basepoint_freeness(cfg: RunConfig) -> CheckReport:
    """Some section stays uniformly away from zero at every sampled point.

    phi_k's unit lift is the Segre product of its factors' unit lifts f and
    g, so its largest |coordinate| is max|f| * max|g|: no k^2 lift is formed.
    """
    n = cfg.count(10000)
    pts = fundamental_domain_samples(n, cfg.seed + 21)
    fiber, base = (np.abs(unit_rows(f)).max(axis=1)
                   for f in factor(("fiber", "base"), cfg.k, pts, cfg.policy))
    min_max_coord = float((fiber * base).min())
    return _finish({"k": cfg.k}, n, [0.0, 1e-6 - min_max_coord], 0.0,
                   {"min_max_coordinate": min_max_coord})


@suite("pullback_nondegenerate")
def check_pullback_nondegenerate(cfg: RunConfig) -> CheckReport:
    """Pfaffian of the phi_k pullback is bounded away from 0 with constant sign."""
    n = cfg.count(10000)
    pts = fundamental_domain_samples(n, cfg.seed + 22)
    pf = pfaffian_batch(fs_pullback_batch("phi_k", cfg.k, pts, cfg.policy))
    min_abs = float(np.abs(pf).min())
    constant_sign = bool(np.all(pf > 0) or np.all(pf < 0))
    residual = np.max([0.0, 1e-8 - min_abs]) + (0.0 if constant_sign else 1.0)
    witness = {"min_abs_pfaffian": min_abs, "sign": float(np.sign(pf[0]))}
    return _finish({"k": cfg.k}, n, residual, 0.0, witness)


@suite("closedness")
def check_closedness(cfg: RunConfig) -> CheckReport:
    """Finite-difference exterior derivative of the pullback vanishes."""
    n = cfg.count(100)
    pts = fundamental_domain_samples(n, cfg.seed + 23)
    residuals = exterior_derivative_residuals("phi_k", cfg.k, pts, cfg.policy)
    return _finish({"k": cfg.k, "h": FD_STEP}, n, residuals, 1e-6)


@suite("structure_decomposition")
def check_structure_decomposition(cfg: RunConfig) -> CheckReport:
    """Structural shape of the psi pullbacks and the 2*alpha*beta top power."""
    n = cfg.count(200)
    pts = fundamental_domain_samples(n, cfg.seed + 24)
    policy = cfg.policy
    base_mats = fs_pullback_batch("psi_double_prime", cfg.k, pts, policy)
    fiber_mats = fs_pullback_batch("psi_prime", cfg.k, pts, policy)
    full_mats = fs_pullback_batch("phi_k", cfg.k, pts, policy)

    # psi'' is alpha * dy^dt only, alpha > 0, and psi' has no dt components
    y, t = FACTOR_AXES["base"]
    mask = np.ones((4, 4), dtype=bool)
    mask[y, t] = mask[t, y] = False
    off_structure = float(np.max([np.abs(base_mats[:, mask]).max(),
                                  np.abs(fiber_mats[:, :, t]).max()]))
    alpha = base_mats[:, y, t]
    # top power 2*alpha*beta against twice the Pfaffian, with the
    # left-invariant coefficients beta = zx and yt of the full pullback
    coeffs = decompose_left_invariant_batch(pts, full_mats)
    zx, yt = coeffs["zx"], coeffs["yt"]
    beta_min = float(zx.min())
    alpha_min = float(alpha.min())
    worst_top = float(np.abs(2.0 * pfaffian_batch(full_mats) - 2.0 * zx * yt).max())
    witness = {
        "alpha_min": alpha_min,
        "beta_min": beta_min,
        "off_structure_max": off_structure,
        "top_power_residual": worst_top,
    }
    # each constituent has its own tolerance; normalize so the combined
    # residual passes iff every constituent is within its gate
    residuals = [off_structure / 1e-10, worst_top / 1e-8,
                 1.0 if (alpha_min <= 0 or beta_min <= 0) else 0.0]
    return _finish({"k": cfg.k}, n, residuals, 1.0, witness)


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
    defects = []
    for torus_id, want in expected.items():
        for _ in range(25):
            u = KTPoint(*(float(v) for v in 6 * (rng.random(4) - 0.5)))
            defects.append(abs(chern_via_multiplicators(torus_id, u) - want))
    return _finish({}, 100, defects, 0.0)


@suite("chern_cocycle_integrality")
def check_chern_cocycle_integrality(cfg: RunConfig) -> CheckReport:
    """The log-branch 2-cocycle takes integer values on random word triples,
    on which the group law holds exactly: the cocycle reads a word only
    through its exponents m and q, so only the law sees a wrong c-exponent."""
    n = cfg.count(200)
    rng = np.random.default_rng(cfg.seed + 26)
    words = [GroupWord(*exponents) for exponents in rng.integers(-2, 3, (3, 4, n))]
    val = chern_cocycle(*words, rng.random((n, 4)))
    return _finish({}, n, np.append(np.abs(val - np.round(val)), group_law_residual(*words)),
                   1e-10)


@suite("torus_integrals")
def check_torus_integrals(cfg: RunConfig) -> CheckReport:
    """Signed curvature integrals equal k * c1(L) on the oriented basis tori.

    c1(L) = (1, 1, 0, 0) on (T_ca, T_bd, T_cb, T_ad) comes from the
    multiplicators, so a pullback of the wrong sign fails.  The witness
    counts the nodes each torus's rule at ``grid`` evaluates; the rule at
    twice the grid evaluates four times as many.
    """
    expected = {tid: float(cfg.k * chern_via_multiplicators(tid)) for tid in TORUS_AXES}
    grid = torus_grid(cfg.k)
    coarse, fine = ({tid: integrate_over_torus("phi_k", cfg.k, BasisTorus(tid), g, cfg.policy)
                     for tid in expected} for g in (grid, 2 * grid))
    errors = [abs(coarse[tid] - want) for tid, want in expected.items()]
    conv_worst = float(np.max([abs(coarse[tid] - fine[tid]) for tid in expected]))
    points = {tid: len(torus_nodes("phi_k", cfg.k, BasisTorus(tid), grid)) for tid in expected}
    witness = {"integrals": coarse, "expected": expected, "grid_convergence": conv_worst,
               "points": points}
    return _finish({"k": cfg.k, "grid": grid}, 4, [np.max(errors) / 1e-4, conv_worst / 1e-8],
                   1.0, witness)


@suite("derivative_crosscheck")
def check_derivative_crosscheck(cfg: RunConfig) -> CheckReport:
    """The factors' partials, kernel rows through ``factor``'s chain tables as
    every form and rank takes them, match central differences of ``factor``.

    The points moved by +-h along each axis are one stacked ``factor`` call.
    A central difference misses f' by h^2 f^(3) / 6.  A degree-k factor is
    dominated by basis terms exp(2 pi i n w) with |n| up to about k, and a
    unit step of a coordinate moves w by at most one, so |f^(3) / f'| is
    about (2 pi k)^2 at most and the relative miss (2 pi h k)^2 / 6.  The
    step h = 3e-5 / k holds it at (2 pi 3e-5)^2 / 6 = 5.9e-9 at every k,
    which is what the suite measures from k = 1 to 64; a fixed step lets it
    grow as k^2 (h = 1e-5 misses by 2.7e-6 at k = 64).
    """
    n = cfg.count(100)
    h = 1e-5 * (3 / cfg.k)
    pts = fundamental_domain_samples(n, cfg.seed + 27)
    names = ("fiber", "base")
    _, rows, tables = factor(names, cfg.k, pts, cfg.policy, AXES)
    partials = np.einsum("fmr,f...rp->fm...p", tables, rows)  # (2, 4, n, k)
    steps = h * np.eye(4)[:, None, :]
    plus, minus = factor(names, cfg.k, pts + np.stack([steps, -steps]), cfg.policy).swapaxes(0, 1)
    fd = (plus - minus) / (2.0 * h)
    residuals = np.abs(fd - partials) / np.maximum(np.abs(partials), 1.0)
    return _finish({"k": cfg.k, "h": h}, n, residuals, 1e-6)


def run_all(cfg: RunConfig) -> list[CheckReport]:
    """Run every registered suite in registration order."""
    return [fn(cfg) for fn in REGISTRY.values()]
