"""The benchmark's workloads: inputs made from a seed, one pass, and an oracle.

A workload makes its inputs from the seed.  ``run_pass(index, tick)`` makes
the library calls of one pass and returns their raw outputs (or the
exception a call raised) with the seconds each operation took; it calls
``tick()`` between short stretches of work, where the benchmark's clock may
calibrate.  ``kernel`` names the calibration kernel of refclock.py whose
cost moves most like the workload's, and ``nominal_pass_s`` is a pass's
wall time on the reference host, from which the benchmark sets a run's
number of passes.  ``verify`` and ``field`` repeat the same inputs in every
pass; ``queries`` draws fresh points for each pass from (seed, index), so
that no pass can be served from an earlier one.  ``check`` is the oracle:
it runs off the clock and classifies every operation of a pass as ok,
failed or incorrect.

An operation *fails* when the call raises ``KThetaError`` or ``ValueError``,
or its output is not finite, or it is (or is computed from) a projective
lift whose squared norm overflows, so that it cannot be normalized.  Failed
operations are counted, never dropped.
An operation is *incorrect* when its output is finite but the oracle rejects
it; a single one makes the run's ``correct`` false.

Library functions are looked up as module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

import ktheta
from ktheta import checks, embedding, manifold, sections, symplectic

FAILURES = (ktheta.KThetaError, ValueError)
TORI = ("T_ca", "T_bd", "T_cb", "T_ad")


@dataclass
class Outcome:
    """Operations attempted, failed and found incorrect, with reasons.

    ``groups`` splits attempted and failed counts by a label such as the
    degree of a query, and ``latencies_ms`` holds per-operation latencies
    under the same labels.
    """

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    notes: list = field(default_factory=list)
    groups: dict = field(default_factory=dict)
    latencies_ms: dict = field(default_factory=dict)

    def add(self, ok: bool, failed: bool = False, note: str = "", group=None, latency_s=None):
        self.attempted += 1
        if failed:
            self.failed += 1
        elif not ok:
            self.incorrect += 1
            if len(self.notes) < 10:
                self.notes.append(note)
        if group is not None:
            counts = self.groups.setdefault(group, [0, 0])
            counts[0] += 1
            counts[1] += bool(failed)
            self.latencies_ms.setdefault(group, []).append(float(latency_s) * 1e3)

    def merge(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.incorrect += other.incorrect
        self.notes.extend(other.notes[: max(0, 10 - len(self.notes))])
        for group, (attempted, failed) in other.groups.items():
            counts = self.groups.setdefault(group, [0, 0])
            counts[0] += attempted
            counts[1] += failed
            self.latencies_ms.setdefault(group, []).extend(other.latencies_ms[group])


def _attempt(fn, *args):
    """The call's result, or the exception it raised without its traceback.

    Kept tracebacks would tie the caller's frame into reference cycles that
    only the garbage collector frees, in the middle of later passes.
    """
    try:
        return fn(*args)
    except FAILURES as exc:
        return exc.with_traceback(None)


def _timed(calls, tick):
    """Outputs of ``(fn, *args)`` calls made in order, and each call's seconds.

    ``tick()`` runs before each call, off the call's time.
    """
    perf = time.perf_counter
    outputs, secs = [], np.empty(len(calls))
    for i, (fn, *args) in enumerate(calls):
        tick()
        t0 = perf()
        outputs.append(_attempt(fn, *args))
        secs[i] = perf() - t0
    return outputs, secs


def _tick_none():
    pass


class Ticks:
    """Ticks a clock before every call a module makes into the other ktheta modules.

    While active, each function of another ktheta module bound in the
    module's namespace is replaced by a wrapper that calls ``tick()`` before
    calling it; the originals are put back on exit.
    """

    def __init__(self, module, tick):
        self.module = module
        self.tick = tick
        self._saved = {}

    def __enter__(self):
        tick = self.tick

        def ticked(fn):
            def wrapper(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)
            return wrapper

        own = self.module.__name__
        for key, fn in list(vars(self.module).items()):
            if (inspect.isfunction(fn) and fn.__module__.startswith("ktheta.")
                    and fn.__module__ != own):
                self._saved[key] = fn
                setattr(self.module, key, ticked(fn))
        return self

    def __exit__(self, *exc):
        for key, fn in self._saved.items():
            setattr(self.module, key, fn)
        self._saved.clear()
        return False


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


def _normalizable(v) -> bool:
    """Whether v / |v| is a finite unit vector; false once |v|^2 overflows."""
    n = np.linalg.norm(v)
    return bool(np.isfinite(n) and n > 0.0 and _finite(v / n))


def warm_calls():
    """One cheap call per public entry point the workloads use."""
    u = ktheta.KTPoint(0.3, 0.2, 0.1, 0.4)
    pts = manifold.fundamental_domain_samples(8, 0)
    ktheta.phi(3, u)
    ktheta.projective_rank(3, u, tol=1e-6)
    ktheta.fs_pullback("phi_k", 3, u)
    ktheta.phi_batch(3, pts)
    vals, grads = sections.section_matrix_with_gradients(3, pts)
    embedding._differential_ranks(vals, grads, 1e-6)
    symplectic.pfaffian_batch(symplectic.fs_pullback_batch("phi_k", 3, pts))
    ktheta.integrate_over_torus("phi_k", 3, ktheta.BasisTorus("T_ca"), 8)
    ktheta.injectivity_scan(3, 8, 0)
    ktheta.reduce_point(ktheta.act(ktheta.GroupWord(1, -1, 2, 0), u))
    checks.REGISTRY["zero_locus"](ktheta.RunConfig())


class Verify:
    """One ``run_all(RunConfig(seed=S))``: the in-process ``ktheta check``.

    Every pass repeats the same run.  The clock ticks before every call that
    ``checks.py`` makes into the other ktheta modules (about 11,750 at the
    defaults, most under a millisecond).  Without a tick the suites run
    unwrapped, as the tracer needs: the wrappers would hide ``checks.py``'s
    references from it.
    """

    name = "verify"
    kernel = "scalar"
    nominal_pass_s = 7.0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        # smoke mode caps every suite's sample count
        self.cfg = ktheta.RunConfig(seed=seed, samples=4 if smoke else 0)
        self.sizes = {"k": self.cfg.k, "samples": self.cfg.samples or "suite defaults",
                      "suites": len(checks.REGISTRY)}

    def run_pass(self, index, tick=None):
        """The reports, and the seconds of each suite as its report gives them.

        When ``run_all`` raises, its time up to the raise is spread evenly
        over the suites.
        """
        t0 = time.perf_counter()
        if tick is None:
            reports = _attempt(checks.run_all, self.cfg)
        else:
            with Ticks(checks, tick):
                reports = _attempt(checks.run_all, self.cfg)
        if isinstance(reports, Exception):
            n = len(checks.REGISTRY)
            return reports, np.full(n, (time.perf_counter() - t0) / n)
        return reports, np.array([r.ms / 1e3 for r in reports])

    def figures(self, pass_s):
        return {"verify_s": (pass_s, "s")}

    def check(self, result) -> Outcome:
        reports = result[0]
        out = Outcome()
        if isinstance(reports, Exception):
            for _ in checks.REGISTRY:
                out.add(False, failed=True)
            return out
        for r in reports:
            out.add(r.passed, failed=not math.isfinite(r.max_residual),
                    note=f"{r.check}: residual {r.max_residual} > {r.threshold}")
        return out


class Field:
    """Batched geometry on fundamental-domain samples at large k.

    Stages: pullback plus Pfaffian sign and batched differential rank for
    each k, curvature integrals over the four basis tori, and an injectivity
    scan.  Every pass repeats the same inputs.  The sample set is fed to the
    batched calls in chunks of 500 points: the k=16 gradient arrays stay
    near 8 MB, and the clock can calibrate between chunks.
    """

    name = "field"
    kernel = "array"
    nominal_pass_s = 4.3

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.n_points, self.chunk = (64, 32) if smoke else (10000, 500)
        self.ks = (8, 16)
        self.torus_k, self.grid = 8, 64 if smoke else 128
        self.inj_k, self.inj_n = 16, 64 if smoke else 2000
        self.pts = manifold.fundamental_domain_samples(self.n_points, seed)
        self.sizes = {"points": self.n_points, "chunk": self.chunk, "ks": list(self.ks),
                      "torus_k": self.torus_k, "grid": self.grid,
                      "injectivity": [self.inj_k, self.inj_n]}
        self.points_per_pass = (2 * len(self.ks) * self.n_points
                                + len(TORI) * self.grid ** 2 + self.inj_n)

    def _chunks(self):
        return [self.pts[i:i + self.chunk] for i in range(0, self.n_points, self.chunk)]

    def _pullback(self, k, tick):
        out = []
        for c in self._chunks():
            tick()
            out.append(symplectic.fs_pullback_batch("phi_k", k, c))
        return np.concatenate(out)

    def _ranks(self, k, tick):
        out = []
        for c in self._chunks():
            tick()
            vals, grads = sections.section_matrix_with_gradients(k, c)
            out.append(embedding._differential_ranks(vals, grads, 1e-6))
        return np.concatenate(out)

    def run_pass(self, index, tick=None):
        """Outputs keyed by stage, and each stage's seconds."""
        tick = tick or _tick_none
        stages = {}
        for k in self.ks:
            stages["pullback", k] = (self._pullback, k, tick)
            stages["ranks", k] = (self._ranks, k, tick)
        for tid in TORI:
            stages["torus", tid] = (symplectic.integrate_over_torus, "phi_k", self.torus_k,
                                    symplectic.BasisTorus(tid), self.grid)
        stages["injectivity"] = (embedding.injectivity_scan, self.inj_k, self.inj_n, self.seed)
        outputs, secs = _timed(list(stages.values()), tick)
        return dict(zip(stages, outputs)), secs

    def figures(self, pass_s):
        return {"field_pts_per_s": (self.points_per_pass / pass_s, "1/s")}

    def check(self, result) -> Outcome:
        res = result[0]
        out = Outcome()
        for k in self.ks:
            mats = res["pullback", k]
            if isinstance(mats, Exception) or not _finite(mats):
                out.add(False, failed=True)
            else:
                pf = symplectic.pfaffian_batch(mats)
                out.add(bool(np.all(pf > 0) or np.all(pf < 0)),
                        note=f"Pfaffian changes sign at k={k}")
            ranks = res["ranks", k]
            if isinstance(ranks, Exception):
                out.add(False, failed=True)
            else:
                out.add(bool(np.all(ranks == 4)),
                        note=f"rank != 4 at {int(np.sum(ranks != 4))} points, k={k}")
        for tid in TORI:
            val = res["torus", tid]
            if isinstance(val, Exception) or not math.isfinite(val):
                out.add(False, failed=True)
            else:
                want = self.torus_k if tid in ("T_ca", "T_bd") else 0.0
                out.add(abs(abs(val) - want) <= 1e-4, note=f"|integral| over {tid} = {val}")
        rep = res["injectivity"]
        if isinstance(rep, Exception) or not math.isfinite(rep.min_image_distance):
            out.add(False, failed=True)
        else:
            out.add(rep.passed, note=f"injectivity scan: {rep.min_image_distance}")
        return out


@dataclass(frozen=True)
class Query:
    kind: str
    k: int
    u: ktheta.KTPoint


class Queries:
    """Closed loop, one client, no think time, over single-point calls.

    Calls rotate phi, projective_rank and fs_pullback while k alternates 3
    and 16, so every six consecutive queries cover each pair once.  Each
    point is act(w, u0) with u0 uniform in [0, 1)^4 and the exponents of w
    uniform in [-2, 2]: off the fundamental domain, where windows widen and
    the k=16 values overflow.  Each pass draws its own points from
    (seed, pass index), so the i-th query of every pass has the same kind
    and degree but a fresh point.
    """

    name = "queries"
    kernel = "scalar"
    nominal_pass_s = 6.0
    KINDS = ("phi", "rank", "pullback")
    KS = (3, 16)
    CALLS = {
        "phi": lambda k, u: embedding.phi(k, u),
        "rank": lambda k, u: embedding.projective_rank(k, u, tol=1e-6),
        "pullback": lambda k, u: symplectic.fs_pullback("phi_k", k, u),
    }

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.n = 12 if smoke else 2400
        self.sizes = {"queries_per_pass": self.n, "ks": list(self.KS),
                      "kinds": list(self.KINDS), "word_exponents": [-2, 2],
                      "points": "fresh per pass"}

    def queries(self, index):
        """The queries of pass ``index``."""
        rng = np.random.default_rng([self.seed, index])
        out = []
        for i in range(self.n):
            u0 = ktheta.KTPoint(*(float(v) for v in rng.random(4)))
            w = ktheta.GroupWord(*(int(v) for v in rng.integers(-2, 3, 4)))
            out.append(Query(self.KINDS[i % 3], self.KS[i % 2], manifold.act(w, u0)))
        return out

    def run_pass(self, index, tick=None):
        """The queries with their outputs, and per-query latencies in seconds."""
        qs = self.queries(index)
        outputs, lat = _timed([(self.CALLS[q.kind], q.k, q.u) for q in qs], tick or _tick_none)
        return (qs, outputs), lat

    def figures(self, pass_s):
        return {}

    @staticmethod
    def _references(qs):
        """phi and Pfaffian of the pullback at the reduced points, batched per k."""
        ref = {}
        for k in sorted({q.k for q in qs}):
            idx = [i for i, q in enumerate(qs) if q.k == k]
            pts = np.array([manifold.reduce_point(qs[i].u)[0].as_array() for i in idx])
            lifts = embedding.phi_batch(k, pts)
            pf = symplectic.pfaffian_batch(symplectic.fs_pullback_batch("phi_k", k, pts))
            for j, i in enumerate(idx):
                ref[i] = (lifts[j], pf[j])
        return ref

    @staticmethod
    def _rank_failed(q) -> bool:
        """Whether the lift a rank query is computed from overflows."""
        vals, grads = sections.section_matrix_with_gradients(q.k, q.u.as_array())
        return not (_normalizable(vals) and _finite(grads))

    def _verdicts(self, qs, outputs):
        """(ok, failed, note) for every query of one pass."""
        ref = self._references(qs)
        for i, (q, got) in enumerate(zip(qs, outputs)):
            if isinstance(got, Exception):
                yield False, True, ""
                continue
            lift, pf0 = ref[i]
            if q.kind == "phi":
                if not _normalizable(got.coords):
                    yield False, True, ""
                    continue
                d = embedding.chordal_distance(got, embedding.ProjectivePoint(lift))
                yield d < 1e-8, False, f"phi chordal distance {d} at k={q.k}"
            elif q.kind == "rank":
                failed = got != 4 and self._rank_failed(q)
                yield got == 4, failed, f"rank {got} at k={q.k}, normalizable lift"
            else:
                if not _finite(got.matrix):
                    yield False, True, ""
                    continue
                rel = abs(symplectic.pfaffian(got) - pf0) / abs(pf0)
                yield rel <= 1e-8, False, f"Pfaffian relative change {rel} at k={q.k}"

    def check(self, result) -> Outcome:
        (qs, outputs), lat = result
        out = Outcome()
        for q, t, (ok, failed, note) in zip(qs, lat, self._verdicts(qs, outputs)):
            out.add(ok, failed, note, group=f"query{q.k}", latency_s=t)
        return out


WORKLOADS = {w.name: w for w in (Verify, Field, Queries)}
