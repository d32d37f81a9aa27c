"""Host speed probe: rescales wall times to a fixed reference speed.

The shared hosts this benchmark runs on change speed by up to a factor of two
within minutes: one audit cycle, the same work each time, took 4.8 s and
10.1 s in one run on a 2-CPU VM.  Wall times taken minutes apart therefore
differ more than any change to the program would.  So a fixed kernel of the
same kind of work as finslerkit (pure-Python dual-number arithmetic with
small objects, plus small numpy solves) runs next to every timed piece of
work, and each time is rescaled by ``REF_S / kernel time``.  The result is
the time the work would take on a host that runs the kernel in ``REF_S``
seconds, about the kernel's typical time on that VM.  A change that makes
finslerkit faster or slower moves the rescaled times; the kernel lives here
and does not import finslerkit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 2.0e-3   # reference kernel time: rescaled seconds = wall seconds * REF_S / kernel
WINDOW = (3, 3)  # kernels taken before and after a piece of work for its scale


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v: float, d: float):
        self.v = v
        self.d = d

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.v + other.v, self.d + other.d)

    def __mul__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.v * other.v, self.v * other.d + self.d * other.v)


_A = np.array([[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.2]])


def _kernel() -> float:
    x, acc, seen = _Dual(0.5, 1.0), _Dual(0.0, 0.0), {}
    for i in range(1500):
        acc = acc + x * _Dual(float(i % 7), 0.0)
        seen[i % 13] = acc.v
    for i in range(60):
        acc = acc + _Dual(float(np.linalg.solve(_A, _A[i % 3])[0]), 0.0)
    return acc.v


def probe() -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(kernels: list[float]) -> float:
    """Factor from wall seconds to reference seconds, from the kernels around a piece of work."""
    return REF_S / statistics.median(kernels)


def rescale(seconds: list[float], kernels: list[float]) -> list[float]:
    """Rescale a sequence of timed pieces of work.  ``kernels[i]`` ran just
    before piece ``i`` (and so just after piece ``i - 1``); each piece uses
    the kernels of the ``WINDOW`` around it."""
    before, after = WINDOW
    n = len(kernels)
    return [s * scale(kernels[max(0, i - before + 1):min(n, i + after + 1)])
            for i, s in enumerate(seconds)]
