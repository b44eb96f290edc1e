"""Acceptance gate: eleven criteria, each printing one pass/fail line.

Each criterion delegates to some of the 22 registered verification suites
in ktheta.checks with the default RunConfig (k=3, eps=1e-14, seed=42) and
the tolerances stated in the suite thresholds.  A suite's residual is the
NaN-propagating maximum of its residuals, so a NaN fails its criterion;
tests/test_mutations.py shows that every suite can fail.
"""

import math
import time

import pytest

from ktheta import checks
from ktheta.checks import REGISTRY, RunConfig, run_all

CFG = RunConfig()

_reports = {}


def _run(name):
    if name not in _reports:
        _reports[name] = REGISTRY[name](CFG)
    return _reports[name]


def _verdict(num, label, reports):
    ok = all(r.passed for r in reports)
    detail = "; ".join(f"{r.check}={r.max_residual:.2e}<=:{r.threshold:.0e}" for r in reports)
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


class TestAcceptance:
    def test_01_quasi_periodicity(self):
        _verdict(1, "classical quasi-periodicity < 1e-10 over 1000 samples",
                 [_run("quasi_periodicity")])

    def test_02_heat_equation(self):
        _verdict(2, "heat equation residual < 1e-8 at 100 samples",
                 [_run("heat_equation")])

    def test_03_zero_locus(self):
        _verdict(3, "theta zero at 1/2 and lattice translates < 1e-10",
                 [_run("zero_locus")])

    def test_04_dimension_ranks(self):
        _verdict(4, "numerical rank k (classical) and k^2 (sections), k in {2,3}",
                 [_run("dimension_ranks")])

    def test_05_multiplicator_laws(self):
        _verdict(5, "tensor-power law < 1e-10 and cocycle law < 1e-12",
                 [_run("tensor_power_law"), _run("multiplicator_cocycle")])

    def test_06_product_closure(self):
        _verdict(6, "zero-sum products fit span < 1e-8; negative controls > 0.1",
                 [_run("product_closure")])

    def test_07_separating_sections(self):
        _verdict(7, "separating sections for 100 pairs (25 sharing base coords)",
                 [_run("separating_sections")])

    def test_08_theorem_1(self):
        t0 = time.perf_counter()
        reports = [
            _run("immersion_rank"),
            _run("injectivity"),
            _run("segre_factorization"),
            _run("well_definedness"),
        ]
        elapsed = time.perf_counter() - t0
        _verdict(8, "Theorem 1 at k=3: rank 4, injectivity, Segre, descent", reports)
        assert elapsed < 60.0, f"criterion 8 runtime {elapsed:.1f}s exceeds 60s"

    def test_09_theorem_2_symplectic(self):
        _verdict(9, "Theorem 2 item 1: Pfaffian, closedness, structure, 2*alpha*beta",
                 [_run("pullback_nondegenerate"), _run("closedness"),
                  _run("structure_decomposition")])

    def test_10_chern_classes(self):
        # the CP^1 normalization oracle must pass before the curvature integrals
        fs = _run("fs_normalization")
        assert fs.passed, "FS normalization oracle failed; integrals not meaningful"
        _verdict(10, "Chern numbers (1,1,0,0) and torus integrals (3,3,0,0)",
                 [fs, _run("chern_multiplicators"), _run("torus_integrals")])

    def test_11_derivative_crosscheck(self):
        _verdict(11, "analytic derivatives match finite differences < 1e-6",
                 [_run("derivative_crosscheck")])


class TestRunConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"epsilon": 0.0},
            {"samples": -1},
            {"k": 2.5},  # a degree is an int
            {"samples": 4.0},
            {"seed": -1},  # numpy's default_rng takes no negative seed
            {"seed": 1.5},
            {"epsilon": -1e-14},  # the default's negative
            {"epsilon": 5e-324},  # its half underflows to 0
            {"epsilon": math.inf},
            {"epsilon": math.nan},
            {"samples": 1},  # no suite can use a single sample
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_grid_is_not_a_field(self):
        # the torus quadrature grid is symplectic.torus_grid(k)
        with pytest.raises(TypeError):
            RunConfig(grid=64)


class TestRegistry:
    # small samples: these tests check names and timing, not verdicts
    CFG = RunConfig(samples=4)

    def test_run_all_follows_registry_order(self):
        # perfbench/run.py zips REGISTRY with run_all's reports
        assert [r.check for r in run_all(self.CFG)] == list(REGISTRY)

    def test_suites_called_directly_are_named_and_timed(self):
        assert len(REGISTRY) == 22
        assert REGISTRY["tau_shift_invariance"] is checks.check_tau_shift
        for name, runner in REGISTRY.items():
            report = getattr(checks, runner.__name__)(self.CFG)
            assert report.check == name
            assert report.ms > 0.0
