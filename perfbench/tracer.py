"""Outside-in tracing of ktheta's layer boundaries.

The tracer wraps the functions listed in ``BOUNDARIES`` from outside the
package: no file under ``src/`` knows about it.  A module that did
``from .embedding import _differential_ranks`` holds its own reference to
the function object, so patching only the defining module would miss its
calls.  ``Tracer`` therefore rebinds every reference to a wrapped function
object found in the namespace of any loaded ``ktheta`` module, and puts the
originals back on exit.

Modules are fetched with ``importlib`` (that is, from ``sys.modules``):
``ktheta.theta`` as an attribute of the package is the function ``theta``,
which shadows the submodule of the same name.

A boundary whose function no longer exists is recorded in ``absent`` with
zero calls instead of failing the trace, so a later refactor that removes
one (for example ``_pick_window``) still yields a complete report.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (module under ktheta, function name, short name used in metric names)
BOUNDARIES = (
    ("theta", "_pick_window", "pick_window"),
    ("theta", "_eval_series", "eval_series"),
    ("theta", "_degree_basis_batch", "degree_basis"),
    ("theta", "theta", "theta"),
    ("sections", "zeta_action", "zeta_action"),
    ("sections", "_raw_shift_product", "shift_product"),
    ("sections", "section_matrix", "section_matrix"),
    ("sections", "section_matrix_with_gradients", "section_matrix_with_gradients"),
    ("sections", "fit_in_span", "fit_in_span"),
    ("sections", "separating_section", "separating_section"),
    ("embedding", "_differential_ranks", "differential_ranks"),
    ("embedding", "injectivity_scan", "injectivity_scan"),
    ("symplectic", "fs_pullback_batch", "fs_pullback_batch"),
    ("symplectic", "integrate_over_torus", "integrate_over_torus"),
    ("manifold", "multiplicator", "multiplicator"),
    ("manifold", "quotient_distance", "quotient_distance"),
)

# Positional index and keyword name of the point array of the batched calls.
_POINT_ARG = {
    "section_matrix": (1, "pts"),
    "section_matrix_with_gradients": (1, "pts"),
    "fs_pullback_batch": (2, "pts"),
}

# One retry of the separating-section search evaluates the shift product at
# 24 probe points and at u and v.
SHIFT_PRODUCTS_PER_ATTEMPT = 26


class Stat:
    """Counters of one boundary, summed over every call while tracing."""

    __slots__ = ("calls", "total_s", "self_s", "points", "terms", "max_window",
                 "shift_products", "successes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.points = 0
        self.terms = 0
        self.max_window = 0
        self.shift_products = 0
        self.successes = 0


class _Span:
    __slots__ = ("stat", "child_s", "window")

    def __init__(self, stat):
        self.stat = stat
        self.child_s = 0.0
        self.window = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Context manager that records calls, total time and self time per boundary.

    A span's self time is its duration minus the durations of the traced
    spans it caused directly.  Besides time, it counts:

    * ``points``: rows of the point array passed to the batched section and
      pullback calls;
    * ``terms`` on ``eval_series``: elements times (2N + 1), with N the window
      its ``pick_window`` child returned, and ``max_window``, the largest N;
    * ``shift_products`` and ``successes`` on ``separating_section``: shift
      products evaluated directly inside the search, and searches that
      returned.
    """

    def __init__(self):
        self.stats = {name: Stat() for _, _, name in BOUNDARIES}
        self.absent = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ktheta" or n.startswith("ktheta."))]
        self.absent = []
        for layer, attr, name in BOUNDARIES:
            try:
                module = importlib.import_module(f"ktheta.{layer}")
            except ImportError:
                self.absent.append(f"{layer}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{layer}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        perf = time.perf_counter
        on_return = {
            "pick_window": self._on_pick_window,
            "eval_series": self._on_eval_series,
            "shift_product": self._on_shift_product,
            "separating_section": self._on_separating_section,
        }.get(name)
        point_arg = _POINT_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(stat)
            stack.append(span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - span.child_s
                if stack:
                    stack[-1].child_s += dur
            if point_arg is not None:
                pts = np.asarray(_arg(args, kwargs, *point_arg))
                stat.points += pts.size // 4
            if on_return is not None:
                on_return(stat, span, args, kwargs, result)
            return result

        return wrapper

    def _on_pick_window(self, stat, span, args, kwargs, window):
        stat.max_window = max(stat.max_window, int(window))
        if self._stack:
            self._stack[-1].window = int(window)

    def _on_eval_series(self, stat, span, args, kwargs, result):
        if span.window is not None:
            zs = np.asarray(_arg(args, kwargs, 0, "zs"))
            taus = np.asarray(_arg(args, kwargs, 1, "taus"))
            stat.terms += np.broadcast(zs, taus).size * (2 * span.window + 1)

    def _on_shift_product(self, stat, span, args, kwargs, result):
        search = self.stats["separating_section"]
        if self._stack and self._stack[-1].stat is search:
            search.shift_products += 1

    def _on_separating_section(self, stat, span, args, kwargs, result):
        stat.successes += 1

    def metrics(self, passes):
        """Every counter as ``{name: (value per pass, unit)}``, named by layer."""
        out = {}
        for layer, _, name in BOUNDARIES:
            st = self.stats[name]
            prefix = f"{layer}.{name}"
            out[f"{prefix}.calls"] = (st.calls / passes, "count")
            out[f"{prefix}.s"] = (st.total_s / passes, "s")
            out[f"{prefix}.self_s"] = (st.self_s / passes, "s")
            if name in _POINT_ARG:
                out[f"{prefix}.points"] = (st.points / passes, "count")
        out["theta.terms"] = (self.stats["eval_series"].terms / passes, "count")
        out["theta.max_window"] = (self.stats["pick_window"].max_window, "count")
        search = self.stats["separating_section"]
        attempts = search.shift_products / SHIFT_PRODUCTS_PER_ATTEMPT
        out["sections.separating_section.attempts"] = (attempts / passes, "count")
        out["sections.separating_section.success_ratio"] = (
            search.successes / attempts if attempts else 0.0, "ratio")
        return out
