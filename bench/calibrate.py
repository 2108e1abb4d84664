"""Machine-speed calibration: fixed numpy work, independent of the library.

On a shared VM the host's speed drifts by tens of percent over minutes,
for memory-bound and cache-resident code alike, while the ratio between
two unrelated kernels timed close together stays nearly constant.  So the
benchmark times this fixed kernel beside every step and reports
*calibrated seconds*:

    calibrated = wall * REF_S / sqrt(cal_before * cal_after)

``cal_before`` / ``cal_after`` bracket the step.  A change to the library
moves the wall time but not the calibration, so it still shows in full;
drift of the machine moves both and cancels to first order.  The kernel
mimics the benchmark's own mix: an FP16-coefficient, FP32-vector 7-point
stencil sweep, an FP64 axpy and dot, and a small dense product.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Calibration seconds taken as the reference speed (the median measured
#: on the 2-core Xeon VM that recorded the committed baselines), so that
#: calibrated seconds read close to wall seconds there.
REF_S = 2.5e-3
#: Calls per calibration; the fastest is the measurement (it tracks the
#: drift at least as well as the median, with less noise of its own).
REPS = 7

_SHAPE = (64, 64, 32)
_OFFSETS = ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _window(offset, inverse: bool) -> tuple:
    sign = -1 if inverse else 1
    return tuple(
        slice(max(0, -sign * o), n - max(0, sign * o)) for o, n in zip(offset, _SHAPE)
    )


class Calibration:
    """The fixed kernel with its inputs and buffers, built once.

    The kernel allocates nothing: temporaries would make its time depend on
    the allocator's state (mmap thresholds, page faults) rather than on the
    machine's speed.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20240812)
        self.x = rng.standard_normal(_SHAPE).astype(np.float32)
        self.y = np.empty_like(self.x)
        self.u = rng.standard_normal(_SHAPE).ravel()
        self.v = rng.standard_normal(_SHAPE).ravel()
        self.w = np.empty_like(self.u)
        self.m = rng.standard_normal((128, 128))
        self.mm = np.empty_like(self.m)
        self.terms = []
        for o in _OFFSETS:
            dst, src = _window(o, True), _window(o, False)
            coeff = rng.standard_normal(_SHAPE).astype(np.float16)[dst]
            self.terms.append((dst, src, coeff, np.empty(coeff.shape, np.float32)))

    def _kernel(self) -> None:
        self.y.fill(0.0)
        for dst, src, coeff, tmp in self.terms:
            np.multiply(coeff, self.x[src], out=tmp)
            np.add(self.y[dst], tmp, out=self.y[dst])
        np.multiply(self.v, 0.5, out=self.w)
        np.add(self.w, self.u, out=self.w)
        np.dot(self.w, self.v)
        np.matmul(self.m, self.m, out=self.mm)

    def measure(self) -> float:
        """Fastest wall seconds of one kernel call over :data:`REPS` calls."""
        best = float("inf")
        for _ in range(REPS):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        return best


def speed(before: float, after: float) -> float:
    """Factor turning wall seconds between two calibrations into calibrated
    seconds."""
    return REF_S / math.sqrt(before * after)
