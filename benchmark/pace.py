"""The machine's pace: a fixed reference work, timed while the benchmark runs.

The benchmark runs on a few vCPUs of a shared host. Their speed changes by
tens of percent over seconds to minutes, with wall time equal to CPU time:
the cores themselves run slower while other guests load the host. A run's
raw timings follow that drift, so two sets of runs of the same code can
differ by more than any useful bound.

``Pace`` times six small kernels that do not touch qudual: three of scalar
code (pure-Python loops) and three of vector code (NumPy on arrays that fit
in L2). The CPU time of each is
divided by its time on a calm machine (``NOMINAL_S``), and the median of a
kind's three ratios is that kind's ratio: 1.3 means such work runs 1.3
times slower now. The median, because one kernel can run a few per cent
off in one process, by how its objects happen to lie in memory. A workload
weighs the two kinds' ratios by the kind of code its time goes to
(``workloads.PACE_WEIGHTS``), and each timing is divided by the weighted
ratio measured around it: the result is the time the operation would take
on cores as fast as the calm machine's.

The kernels' CPU times are used, not their wall times. A timed kernel run
lasts 0.07-0.18 ms, shorter than the slices in which another task or the
host takes the vCPU away, so its wall time catches such a pause only now
and then: a co-runner that took half of the vCPU slowed the operations 1.9
times and the wall time of an earlier, single Python kernel 2.5 times. Time taken away so stays in the
paced wall times, as the wait it is, and out of the CPU times.

No kernel streams through memory: such a kernel read up to 1.3 times
slower right after ``mc``'s 80 MB arrays on an otherwise calm machine, so
it measured the program's use of the caches rather than the machine.

Samples are taken every ``INTERVAL_S`` by a ``SIGALRM`` handler, also inside
long operations, and the handler's own time is taken out of the operation's
time. The process is pinned to one vCPU, so that samples and operations run
on the same core.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import time
from array import array

import numpy as np

INTERVAL_S = 0.1
# An operation shorter than this is paced by the samples taken just before it.
LOOKBACK_S = 0.3

# CPU seconds of one warm run of each kernel, as timed inside 16 short
# `compute` runs on the calm machine the figures in README.md come from
# (Intel Xeon, 2 vCPUs, Python 3.11, NumPy 2.4).
NOMINAL_S = {
    "loop": 1.75e-4, "floats": 0.69e-4, "calls": 1.03e-4,
    "ufunc": 1.24e-4, "sort": 0.86e-4, "matmul": 0.83e-4,
}
# Scalar code: the interpreter's loops. Vector code: NumPy's SIMD loops.
KINDS = {"scalar": ("loop", "floats", "calls"), "vector": ("ufunc", "sort", "matmul")}


def pin_to_one_cpu() -> None:
    """Pin this process, and the processes it starts, to its lowest allowed vCPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _aligned(n: int, dtype=float) -> np.ndarray:
    """An array of n elements that starts on a 64-byte boundary.

    How fast SIMD loops run depends on the alignment of their arrays, and
    NumPy aligns a new array only to 16 bytes; unaligned, a kernel ran at
    one of two speeds 10 % apart, by the process.
    """
    size = np.dtype(dtype).itemsize
    raw = np.empty(n * size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + n * size].view(dtype)


def _call(a, b=2, *rest, **kw):
    return a + b + len(rest) + len(kw)


class Pace:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = _aligned(16384)
        self._x[:] = rng.random(16384)
        self._y = _aligned(16384)
        self._s = _aligned(16384)
        self._a = _aligned(256 * 4 * 4, complex).reshape(256, 4, 4)
        self._a[:] = rng.random((256, 4, 4)) + 1j * rng.random((256, 4, 4))
        self._c = _aligned(256 * 4 * 4, complex).reshape(256, 4, 4)
        self.times = array("d")
        # Per kind, the median of its kernels' CPU-time ratios to NOMINAL_S,
        # for every sample.
        self.ratios = {kind: array("d") for kind in KINDS}
        # Time spent sampling so far, to be taken out of the operations.
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _loop(self) -> int:
        seen: dict[int, int] = {}
        total = 0
        for i in range(2000):
            total += i * i % 7
            seen[i & 63] = total
        return total

    def _floats(self) -> float:
        x = 0.5
        for i in range(1500):
            x = x * 0.999 + (0.25 if i & 1 else 0.125)
        return x

    def _calls(self) -> int:
        total = 0
        for i in range(750):
            total += _call(i, b=i & 3)
        return total

    # The NumPy kernels write into arrays of their own, so that no sample
    # depends on how the allocator stands after the program's work.
    def _ufunc(self) -> float:
        np.cos(self._x, out=self._y)
        self._y *= self._x
        np.exp(self._y, out=self._y)
        return float(self._y[-1])

    def _sort(self) -> float:
        np.copyto(self._s, self._x)
        self._s.sort()
        return float(self._s[-1])

    def _matmul(self) -> complex:
        np.matmul(self._a, self._a, out=self._c)
        return complex(self._c[-1, 0, 0])

    def sample(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for kind, kernels in KINDS.items():
            ratios = []
            for name in kernels:
                kernel = getattr(self, "_" + name)
                # The operation may have left the caches cold; time a warm
                # run, so that the sample reads the core's pace, not the
                # program's use of the caches.
                kernel()
                cpu = time.process_time()
                kernel()
                ratios.append((time.process_time() - cpu) / NOMINAL_S[name])
            self.ratios[kind].append(statistics.median(ratios))
        self.times.append(wall0)
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def medians(self) -> dict[str, float]:
        """Median ratio of each kernel over the samples so far."""
        return {kind: statistics.median(self.ratios[kind]) for kind in KINDS}

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def ticking(self):
        """Sample every INTERVAL_S, also inside operations, until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float, weights: dict[str, float]) -> float:
        """Weighted slow-down, over the calm machine, of the span [start, end].

        It averages the samples taken in the span or within LOOKBACK_S
        before it; with none there, it takes the last sample before it.
        """
        lo = bisect.bisect_left(self.times, start - LOOKBACK_S)
        hi = bisect.bisect_right(self.times, end)
        if lo == hi:
            if lo == 0:
                raise RuntimeError("no pace sample before the span")
            lo -= 1
        values = sorted(
            sum(w * self.ratios[part][i] for part, w in weights.items()) for i in range(lo, hi)
        )
        # A sample hit by an interrupt reads slow; trim both tails.
        if len(values) < 10:
            return statistics.median(values)
        cut = len(values) // 10
        return statistics.fmean(values[cut:len(values) - cut])
