"""Wall time rescaled to a reference host speed.

On a shared host the speed of a core drifts by tens of percent within
seconds and between minutes, and a slow phase can last a whole run.
``RefClock`` measures that drift with a fixed calibration kernel, run
between stretches of the benchmark's work, and rescales each stretch's wall
time to the speed at which the kernel takes its reference time:

    ref_s += stretch_s * reference / mean(kernel time before, kernel time after)

The kernels are the benchmark's own code, so a change to ``ktheta`` moves
the work but never a kernel.  Each does what one kind of the library's
inner loops does, since the host's slow phases slow small-array Python
loops and large-array numpy calls by different factors.  Kernels run off
the clock: ``wall_s`` and ``ref_s`` count only the work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Work between two calibrations, in seconds of wall time.
STRETCH_S = 0.03

_NS = np.arange(-6, 7)[:, None]
_ZS = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 24))
_GRID = 1j * np.linspace(0.0, 3.0, 400 * 41).reshape(400, 41)


def _scalar_kernel():
    acc = 0j
    for i in range(40):
        z = _ZS * (1.0 + 1e-3 * i)
        acc += complex(np.exp(1j * np.pi * (0.9j * _NS * _NS + 2.0 * _NS * z)).sum())
    return acc


def _array_kernel():
    a = np.exp(_GRID)
    return np.einsum("ij,ik->jk", a, a.conj())


# name: (kernel, its time on the reference host in a typical phase).  The
# reference host is a 2-vCPU x86-64 VM with numpy 2.4; the times only set
# the scale of ``ref_s``.
KERNELS = {
    # a Python loop over small complex arrays, like a truncated theta series
    # evaluated one point at a time
    "scalar": (_scalar_kernel, 0.0010),
    # exp and a contraction over a 400 x 41 complex array, like the batched
    # section and pullback calls
    "array": (_array_kernel, 0.0027),
}


def kernel_s(kind: str) -> float:
    """Wall time of one run of the calibration kernel ``kind``."""
    kernel = KERNELS[kind][0]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class RefClock:
    """Context manager timing the work inside it, raw and at reference speed.

    ``kind`` names the calibration kernel whose cost moves most like the
    work's.  The work calls ``tick`` at points where it may be interrupted; once a
    stretch of ``STRETCH_S`` has passed since the last calibration, ``tick``
    closes the stretch and calibrates again.  Exiting closes the last one.
    """

    def __init__(self, kind: str = "scalar"):
        self.kind = kind
        self.ref_kernel_s = KERNELS[kind][1]
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.kernels = []
        self._t0 = 0.0

    def __enter__(self):
        self.kernels.append(kernel_s(self.kind))
        self._t0 = time.perf_counter()
        return self

    def tick(self):
        now = time.perf_counter()
        if now - self._t0 >= STRETCH_S:
            self._close(now)

    def _close(self, now):
        stretch = now - self._t0
        before = self.kernels[-1]
        self.kernels.append(kernel_s(self.kind))
        self.wall_s += stretch
        self.ref_s += stretch * self.ref_kernel_s / (0.5 * (before + self.kernels[-1]))
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self._close(time.perf_counter())
        return False

    @property
    def speed(self) -> float:
        """The host's speed relative to the reference: the kernel's reference
        time over its median time here."""
        return self.ref_kernel_s / statistics.median(self.kernels)
