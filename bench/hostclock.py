"""Host-speed reference for the espent benchmark.

The benchmark runs on cores it shares with other tenants, whose load
slows every instruction of the benchmark process by up to 2x for seconds
to minutes at a time.  A wall time measured in such a stretch says as
much about the neighbours as about espent.  ``HostClock`` therefore times
a fixed reference kernel between ops, and each op's wall time is rescaled
by how long the kernel took around it:

    normalized = wall * NOMINAL_S / (mean of the kernel samples before and after)

which is the op's time on a host where the kernel takes ``NOMINAL_S``.
The kernel does not import espent and mixes the kinds of work espent's
ops do: interpreter-bound loops over small spectra, small-array numpy
calls, Kronecker products accumulated in a dict, and a complex matmul.  A
change to espent moves the op's wall time and leaves the kernel's alone,
so it shows in the normalized time in full.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Kernel time on a quiet host: the nominal speed normalized times refer to.
NOMINAL_S = 1.4e-3
# Longest gap between samples: short against the host's slow stretches,
# long against the kernel, which then costs under a tenth of a run.
EVERY_S = 0.02

_RNG = np.random.default_rng(20240917)
_SMALL = [_RNG.standard_normal((n, d)) + 1j * _RNG.standard_normal((n, d))
          for n, d in ((2, 3), (3, 5), (4, 4), (5, 8), (6, 7), (8, 8))]
_VECS = [_RNG.standard_normal(16) + 1j * _RNG.standard_normal(16) for _ in range(8)]
_DENSE = _RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))


def kernel() -> float:
    """Fixed work; the returned value is consumed so none of it is skipped."""
    acc = 0.0
    for m in _SMALL:
        s = np.linalg.svd(m, compute_uv=False)
        p = [float(x) ** 2 for x in s]
        acc += math.fsum(sum(x**k for x in p) / k for k in range(2, 16))
    terms: dict = {}
    for a, u in enumerate(_VECS):
        for b, v in enumerate(_VECS):
            key = (min(a, b), max(a, b))
            env = np.kron(u, v)
            terms[key] = terms[key] + env if key in terms else env.copy()
    acc += sum(float(np.vdot(e, e).real) for e in terms.values())
    return acc + float(np.abs(_DENSE @ _DENSE).sum())


class HostClock:
    """Kernel samples taken between ops, EVERY_S seconds apart at most.

    A sample is the median kernel time over `reps` back-to-back runs.
    Call ``tick()`` before the first op and after the last one; ``mark()``
    ticks when a sample is due and returns the index of the sample that
    opens the interval the next op runs in.
    """

    def __init__(self, reps: int):
        self.reps = reps
        self.samples: list[float] = []
        self._last = -math.inf

    def tick(self) -> None:
        times = []
        for _ in range(self.reps):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        self.samples.append(statistics.median(times))
        self._last = perf_counter()

    def mark(self) -> int:
        if perf_counter() - self._last >= EVERY_S:
            self.tick()
        return len(self.samples) - 1

    def scale(self, j: int) -> float:
        """Factor from wall time between samples j and j + 1 to nominal."""
        return NOMINAL_S / ((self.samples[j] + self.samples[j + 1]) / 2)

    def speed(self) -> float:
        """Host speed over the run as a share of nominal (1 = nominal)."""
        return NOMINAL_S / statistics.median(self.samples)
