"""Host-speed probe: times gorlef against a fixed kernel run beside it.

The benchmark host is a few cores of a shared machine.  Other tenants slow
everything this process runs, CPU time included, by up to 2x for stretches
of tens of seconds, so running longer does not steady raw times.  The probe
runs a fixed pure-Python kernel (under 1 ms of the rational arithmetic
gorlef spends its time in) from a SIGALRM handler every PERIOD_S seconds
while timed code runs, and once just before and once just after it.  The
timed code's seconds, less the kernel runs inside them, divided by the
median kernel time over that stretch, measure it in kernel runs; times the
kernel's reference time they are seconds at the reference host speed.  A
change to gorlef moves these the way it moves raw time; a busy neighbour
slows the kernel and the code alike, and largely cancels out.

Contention slows code with a small working set less than code whose data
misses the caches, so there are two kernels, and a workload uses the one
whose working set is like its own.  On a busy stretch of the host, with one
pass per process, the pass-to-pass spread (IQR over median) fell from
27-33% raw to 2.6% (`si_corpus`) and 5.4% (`verifiers`) with the small
kernel, and to 7.6% (`construct_large`) with the large one; the other
kernel left 9.4%, 9.3% and 15.9%.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.025

_N = 7
_MATRIX = [[Fraction((7 * i + 3 * j + i * j) % 19 - 9, (i + 2 * j) % 5 + 1)
            for j in range(_N)] for i in range(_N)]


def small_kernel() -> None:
    """Forward elimination of a fixed 7x7 rational matrix: the arithmetic
    of gorlef's small catalecticants and Hessians, all in the L1 cache."""
    a = [row[:] for row in _MATRIX]
    r = 0
    for c in range(_N):
        p = next((i for i in range(r, _N) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, _N):
            f = a[i][c] / a[r][c]
            if f:
                ri, rr = a[i], a[r]
                for j in range(c, _N):
                    ri[j] -= f * rr[j]
        r += 1


# A pool of a few MiB of 64-bit rationals.
_POOL_SIZE = 40_000
_POOL = [Fraction(((i * 6364136223846793005 + 1442695040888963407) % 2**64)
                  - 2**63, ((i * 2862933555777941757 + 3037000493) % 2**40) | 1)
         for i in range(_POOL_SIZE)]
_PRODUCTS = 60
_offset = 0


def large_kernel() -> None:
    """A sum of products of pool entries far apart, from a rotating offset:
    big-integer arithmetic on objects rarely in the caches, like gorlef's
    eliminations of catalecticants up to 126x126."""
    global _offset
    o = _offset
    _offset = (o + 9973) % _POOL_SIZE
    acc = Fraction(0)
    for k in range(_PRODUCTS):
        acc += (_POOL[(o + 7919 * k) % _POOL_SIZE]
                * _POOL[(o + 104729 * k + 17) % _POOL_SIZE])


# Each kernel with its fastest time on a quiet stretch of the host the
# benchmark was defined on (2 shared cores, Python 3.11.7).  Fixed, so
# results from different runs and commits are comparable; it only sets the
# scale.
KERNELS = {"small": (small_kernel, 0.0004), "large": (large_kernel, 0.0008)}


class Probe:
    """Samples the kernel while timed code runs; see the module docstring."""

    def __init__(self, kernel: str):
        self.kernel, self.ref_s = KERNELS[kernel]
        self.samples = []   # kernel seconds of the current timing
        self.all = []       # kernel seconds of every timing so far
        self._previous = None

    def _sample(self, *_):
        t = perf_counter()
        self.kernel()
        self.samples.append(perf_counter() - t)

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def time(self, fn, *args):
        """Run fn(*args); returns (its result, seconds, reference seconds).

        `seconds` is the wall time of fn less the kernel runs inside it.
        """
        self.samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        seconds = elapsed - sum(self.samples[1:])
        self._sample()
        self.all.extend(self.samples)
        return result, seconds, seconds * self.ref_s / statistics.median(self.samples)

    def host_speed(self) -> float:
        """The kernel's reference time over its median time in every timing
        so far: 1.0 at the reference speed, 0.5 at half of it."""
        return self.ref_s / statistics.median(self.all)
