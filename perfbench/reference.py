"""The reference computation that measures the host's speed.

On a shared host the same instructions run up to a third slower from one
second to the next, in spells that can outlast a run. The benchmark
therefore times a fixed pure-Python integer computation of its own, which
uses no gspinlab code, so that no change to the library moves it, every
``EVERY_S`` seconds between or during operations, and reports each measured
time ``t`` as ``t * REF_S / r``, where ``r`` is the mean reference time
around it: the time the work would take on a host that runs the reference
in ``REF_S``.

This module is imported by the child processes too, so it imports little.
"""
import random
import signal
import time
from typing import List, Sequence

# Nominal time of one reference sample (about its time on a quiet 2-core
# host with Python 3.11).
REF_S = 0.0006
# At most this long between two samples.
EVERY_S = 0.05

_RNG = random.Random("gspinlab-perfbench-reference")
_MATRICES = [[[_RNG.randint(-9, 9) for _ in range(6)] for _ in range(6)] for _ in range(20)]


def det(m: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def reference_seconds() -> float:
    """One sample: the quickest of three runs of the reference."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for m in _MATRICES:
            det(m)
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Samples the reference every ``EVERY_S`` seconds from ``SIGALRM``
    while a child process runs its command, and once at each end.

    ``cost`` is the time the samples took, which the parent subtracts from
    the child's measured time."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cost = 0.0

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.cost += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def line(self) -> str:
        return " ".join(map(repr, [self.cost, *self.samples]))
