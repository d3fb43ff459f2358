"""Helpers shared by the workloads: statistics, memory, check failures."""

from __future__ import annotations

import gc
import math
import resource
import sys
import time

import numpy as np

#: the exactness contract's tightest rung (``ToleranceLadder.exact``)
EXACT_RTOL = 5e-4


class CheckFailed(AssertionError):
    """An output disagreed with its oracle; the run must not report."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def settle() -> None:
    """A full garbage collection before a timed unit of work.

    Compiles leave a large object graph behind, and a full collection
    over it takes tens of milliseconds; without this, garbage left by
    earlier work lands its collection inside whichever timed unit
    happens to cross the threshold.  The unit's own collections still
    count.
    """
    gc.collect()


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def geomean(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(math.exp(np.mean(np.log(arr))))


def tail(values) -> dict:
    """Median, p99 and the highest percentile with >= 10 samples beyond
    it, with the sample count (``None`` when fewer than 11 samples)."""
    n = len(values)
    out = {"n": n, "p50": median(values), "p99": percentile(values, 99.0)}
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            out["tail_pct"] = pct
            out["tail"] = percentile(values, pct)
            break
    else:
        out["tail_pct"] = None
        out["tail"] = None
    return out


def windowed_p99(windows) -> float:
    """The median over windows (lists of samples taken close together)
    of each window's p99.  A stall of the shared host lands in one
    window; over all samples pooled it moves the p99 of the whole run.
    Windows of fewer than 50 samples are pooled into the next."""
    p99s, pending = [], []
    for window in windows:
        pending += list(window)
        if len(pending) >= 50:
            p99s.append(percentile(pending, 99.0))
            pending = []
    if pending and not p99s:
        p99s.append(percentile(pending, 99.0))
    return median(p99s)


#: seconds one :meth:`HostSpeed.reference_work` unit takes at the host
#: speed the timed end-to-end metrics are reported at: a round figure at
#: the fast end of its median between units of the program's work on the
#: 2-vCPU virtual machine the benchmark was tuned on (3.4-4.6 ms per
#: run; 2 ms on its own, before the program's work has filled the caches)
REFERENCE_S = 3.0e-3


class HostSpeed:
    """How fast the host ran during a run, from a fixed unit of reference
    work timed between units of the program's work.

    The virtual machines the benchmark runs on share their host, whose
    speed drifts by up to a quarter over tens of seconds to minutes and
    moves every CPU-bound timing of a run together.  Dividing a timing
    by :attr:`slowdown` reports it at the speed at which one reference
    unit takes :data:`REFERENCE_S`; a change to the program cannot move
    the reference, which calls no program code and runs only while the
    program is idle.
    """

    UNITS = 2

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # a few MB: beyond the core's own caches, like the program's
        # compile graphs and sweep arrays
        self._table = {int(k) * 7919: i
                       for i, k in enumerate(rng.permutation(50_000))}
        self._keys = [int(k) * 7919 for k in rng.integers(0, 50_000, 4000)]
        self._array = rng.random(400_000)
        self.samples: list = []

    def reference_work(self) -> float:
        """The program's mix in miniature: an interpreter loop, lookups
        in a large dict, a pass over a large array and small numpy
        calls."""
        total = 0
        for i in range(6000):
            total += i * i % 7
        for key in self._keys:
            total += self._table[key]
        big = float((self._array * 1.5).sum())
        small = np.arange(256.0)
        for _ in range(20):
            small = np.sqrt(small * 1.5 + 2.0)
        return total + big + float(small[-1])

    def sample(self) -> None:
        for _ in range(self.UNITS):
            t0 = time.perf_counter()
            self.reference_work()
            self.samples.append(time.perf_counter() - t0)

    @property
    def slowdown(self) -> float:
        return median(self.samples) / REFERENCE_S


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def log(message: str) -> None:
    print(f"[perfbench {time.strftime('%H:%M:%S')}] {message}",
          file=sys.stderr, flush=True)


class Deadline:
    """Wall-clock budget of one measured phase."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.end = self.start + float(seconds)

    def left(self) -> float:
        return self.end - time.perf_counter()

    def expired(self) -> bool:
        return time.perf_counter() >= self.end
