"""Benchmark of the ktheta library: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload {verify,field,queries} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run it from the root of a source checkout; it imports ``ktheta`` from the
checkout's ``src/`` directory and exits with code 2 if that is missing.
``--workload all`` runs every workload in turn in one process, and
``--smoke`` shrinks every input so that a run takes seconds.

With ``--trace 0`` it makes a fixed number of passes, about ``--seconds``
of them on the reference host, and measures the end-to-end metrics with
tracing off, with times rescaled to the reference host's speed
(refclock.py).  With ``--trace 1`` it alternates untraced and traced passes over the same
inputs and reports the per-layer metrics per traced pass, plus the tracing
overhead.  See README.md in this directory for every metric.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat each metric as ``<name> <value> <unit>`` and record the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import KERNELS, RefClock, kernel_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Every BLAS call in these workloads works on small matrices; one thread
# keeps timings steady on a shared machine and never exceeds nproc.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 5
SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
    "import ktheta, workloads; workloads.warm_calls()"
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "field", "queries", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _git_sha():
    """HEAD of the checkout, or "unknown" when the checkout is no git repository.

    The search for a repository stops at the checkout's root.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(workloads):
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "workloads": {w.name: {"seed": w.seed, **w.sizes} for w in workloads},
    }


def measure_setup(reps):
    """Median over ``reps`` fresh interpreters that import ktheta and warm up.

    Each interpreter's wall time is rescaled to the reference speed by the
    scalar calibration kernel, run just before and just after it: start-up
    is Python-bound work.
    """
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR))
    reference = KERNELS["scalar"][1]
    times = []
    for _ in range(reps):
        before = kernel_s("scalar")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120)
        wall = time.perf_counter() - t0
        times.append(wall * reference / (0.5 * (before + kernel_s("scalar"))))
    return statistics.median(times)


def pass_count(wl, seconds):
    """Passes that take about ``seconds`` on the reference host, at least three.

    The count depends on nothing measured, so runs at one seed attempt the
    same operations, and fail the same ones.
    """
    return max(3, round(seconds / wl.nominal_pass_s))


def measure(wl, passes):
    """``passes`` untraced passes, each timed by a ``RefClock`` of the workload's kernel.

    Returns the clocks and the checked outcome.  Each pass's outputs are
    checked off the clock and dropped before the next pass, so that live
    outputs do not pile up and slow the passes after them.
    """
    from workloads import Outcome

    outcome = Outcome()
    clocks = []
    for index in range(passes):
        with RefClock(wl.kernel) as clock:
            result = wl.run_pass(index, clock.tick)
        clocks.append(clock)
        outcome.merge(wl.check(result))
        del result
    return clocks, outcome


def end_to_end(setup_s, clocks, outcome):
    """The metrics of BENCHMARK.json's ``end_to_end``.

    ``pass_s`` is the median over the run's passes of a pass's time at the
    reference speed (refclock.py).  The host's speed drifts by tens of
    percent within a run and between runs; the rescaling takes most of that
    drift out, and the median takes out what stays.
    """
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(c.ref_s for c in clocks), "s"),
        "ok_frac": (1.0 - outcome.failed / outcome.attempted, "ratio"),
    }


def workload_figures(wl, clocks, metrics, outcome):
    """The workload's own view of its results, printed for people to read."""
    pass_s = metrics["pass_s"][0]
    out = {f"{wl.name}.passes": (len(clocks), "count"),
           f"{wl.name}.cold_pass_s": (clocks[0].ref_s, "s"),
           f"{wl.name}.pass_wall_p50_s": (statistics.median(c.wall_s for c in clocks), "s"),
           f"{wl.name}.host_speed": (statistics.median(c.speed for c in clocks), "ratio"),
           f"{wl.name}.fail_frac": (outcome.failed / outcome.attempted, "ratio")}
    out.update(wl.figures(pass_s))
    for group, (attempted, failed) in outcome.groups.items():
        lat = outcome.latencies_ms[group]
        out[f"{group}_p50_ms"] = (statistics.median(lat), "ms")
        out[f"{group}_p99_ms"] = (statistics.quantiles(lat, n=100, method="inclusive")[98], "ms")
        out[f"{group}_samples"] = (attempted, "count")
        out[f"{group}_fail_frac"] = (failed / attempted, "ratio")
    return out


def trace_run(wl, pairs, names):
    """``pairs`` untraced and traced passes in turn; the per-layer metrics in ``names``.

    Every pass uses the inputs of pass 0, runs without calibration, and
    only the library calls run under the tracer, never the oracle.  Counters
    are means over the traced passes.  ``checks.<suite>_s`` is the suite's
    fastest time over the untraced passes of ``verify`` (zero on the other
    workloads), and ``trace.overhead_s`` is the fastest traced pass's wall
    time minus the fastest untraced one's: with a pass or two of each, the
    fastest is the one least slowed by the host.
    """
    import numpy as np
    from ktheta.checks import REGISTRY
    from tracer import Tracer
    from workloads import Outcome

    walls = {False: [], True: []}
    plain = []
    outcome = Outcome()
    tracer = Tracer()
    for _ in range(pairs):
        for traced in (False, True):
            t0 = time.perf_counter()
            if traced:
                with tracer:
                    result = wl.run_pass(0)
            else:
                result = wl.run_pass(0)
                plain.append(result[1])
            walls[traced].append(time.perf_counter() - t0)
            outcome.merge(wl.check(result))
            del result

    found = tracer.metrics(pairs)
    suite_s = np.min(plain, axis=0) if wl.name == "verify" else np.zeros(len(REGISTRY))
    for suite, secs in zip(REGISTRY, suite_s):
        found[f"checks.{suite}_s"] = (float(secs), "s")
    found["trace.overhead_s"] = (min(walls[True]) - min(walls[False]), "s")
    return {name: found[name] for name in names}, outcome, tracer.absent


def _print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")


def run(args):
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    wls = []
    for name in names:
        wls.append(workloads.WORKLOADS[name](args.seed, smoke=args.smoke))
    workloads.warm_calls()
    setup_s = None
    if args.trace == 0:
        setup_s = measure_setup(1 if args.smoke else SETUP_REPS)

    seconds = args.seconds / len(wls)
    final, attempted, failed, incorrect = {}, 0, 0, 0
    for wl in wls:
        if args.trace == 0:
            clocks, outcome = measure(wl, pass_count(wl, seconds))
            metrics = end_to_end(setup_s, clocks, outcome)
            _print_metrics(workload_figures(wl, clocks, metrics, outcome))
            absent = []
        else:
            pairs = max(1, pass_count(wl, seconds) // 2)
            metrics, outcome, absent = trace_run(wl, pairs, per_layer)
        _print_metrics(metrics)
        for note in outcome.notes:
            print(f"incorrect {wl.name}: {note}")
        if absent:
            print(f"absent {wl.name}: {', '.join(absent)}")
        prefix = f"{wl.name}." if len(wls) > 1 else ""
        final.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        attempted += outcome.attempted
        failed += outcome.failed
        incorrect += outcome.incorrect
    print("env " + json.dumps(_environment(wls), sort_keys=True))
    print(json.dumps({"correct": incorrect == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "ktheta" / "__init__.py").is_file():
        print(f"error: no ktheta sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
