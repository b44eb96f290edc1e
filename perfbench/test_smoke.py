"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Checks that every run emits exactly the metrics BENCHMARK.json names, with
their units, that each workload's oracle runs and accepts the outputs, that
runs at one seed attempt and fail the same operations, that the clock
ticks of ``verify`` leave ``ktheta.checks`` as they found it, that the
reference clock times only the work, and that the benchmark refuses to run
without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_and_oracle(workload, trace):
    res = _result(_run(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    if workload != "queries":
        assert res["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics = _result(_run("verify", 1))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".points")) or k == "theta.terms"})
    assert counts[0] == counts[1]
    assert counts[0]["theta.eval_series.calls"] > 0


def test_operations_repeat_at_a_seed():
    runs = [_result(_run("queries", 0)) for _ in range(2)]
    counts = [(r["attempted"], r["failed"]) for r in runs]
    assert counts[0] == counts[1]


def test_all_workloads_in_one_process():
    res = _result(_run("all", 0))
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(res["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}
    assert res["correct"] is True


def test_ticks_reach_clock_and_restore_bindings(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import importlib

    checks = importlib.import_module("ktheta.checks")
    from workloads import Ticks

    before = dict(vars(checks))
    ticks = []
    with Ticks(checks, lambda: ticks.append(1)):
        assert checks.fit_in_span is not before["fit_in_span"]
        checks.REGISTRY["dimension_ranks"](checks.RunConfig())
    assert ticks
    assert all(vars(checks)[k] is v for k, v in before.items())


def test_refclock_counts_only_the_work(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import time

    import refclock

    for kind in refclock.KERNELS:
        with refclock.RefClock(kind) as clock:
            for _ in range(4):
                time.sleep(0.02)
                clock.tick()
        assert 0.08 <= clock.wall_s < 0.5
        assert len(clock.kernels) >= 2
        assert clock.ref_s > 0 and clock.speed > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("verify", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
