"""Machine-speed calibration of op times.

On a shared machine the speed of a core drifts: on the reference machine
the same solve took 86 ms in one 10-second window and 147 ms in the next,
with wall time equal to CPU time (contention for the core, not scheduling).
A fixed kernel of small complex eigendecompositions, inverses and products,
written without maxconf, slows down by nearly the same factor: over those
windows the ratio of solve time to kernel time stayed within 3.5%.

``SpeedProbe`` times the kernel next to the ops, at least every
``SAMPLE_EVERY_S`` seconds and after every longer op. An op's time is
scaled by REFERENCE_KERNEL_S over the kernel time around it, which gives the
op's time in milliseconds of the reference machine at its undisturbed
speed. The kernel does not call maxconf, so a change to maxconf moves the
scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# kernel time on the reference machine (shared 2-vCPU Intel Xeon VM, numpy 2.4,
# one BLAS thread) in its fast phase
REFERENCE_KERNEL_S = 2.2e-3
SAMPLE_EVERY_S = 0.25
KERNEL_RUNS = 5


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((6, 8, 8)) + 1j * rng.standard_normal((6, 8, 8))
        self._mats = [a @ a.conj().T + np.eye(8) for a in g]
        self._at: list[float] = []  # perf_counter when each sample ended
        self._kernel_s: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(12):
            for a in self._mats:
                w, v = np.linalg.eigh(a)
                b = np.linalg.inv(a)
                c = (v * w) @ v.conj().T - a
                acc += float(np.abs(c).max()) + float(np.einsum("ab,ba->", b, a).real)
        return time.perf_counter() - t0

    def sample(self) -> None:
        # the best of a few runs ignores the short stalls that hit single runs
        self._kernel_s.append(min(self._kernel() for _ in range(KERNEL_RUNS)))
        self._at.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self._at or time.perf_counter() - self._at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval: reference kernel time over the local one.

        Uses the last sample before ``start`` and the first after ``end``.
        """
        before = max(bisect.bisect_right(self._at, start) - 1, 0)
        after = min(bisect.bisect_left(self._at, end), len(self._at) - 1)
        local = 0.5 * (self._kernel_s[before] + self._kernel_s[after])
        return REFERENCE_KERNEL_S / local
