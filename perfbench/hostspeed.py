"""A fixed calibration kernel that gauges how fast the host runs right now.

On a shared host, other tenants slow a process by 20-50% in phases that last
from seconds to minutes, and CPU time grows with wall time.  ``run.py`` runs
this kernel just before every invocation (never at the same time) and
scales the run's timings by the host's speed: the reference time of the
kernel parts that match the workload's work, over their lower decile in the
run.  The timings then read as seconds on a host where those parts take
their ``REFERENCE_S``.  The kernel never touches ``kicked_ising``, so a
change to the program moves the scaled timings exactly as much as the raw
ones.

Each part mirrors one kind of work that the workloads do, because the
tenants slow them by different amounts:

- ``python``: a pure-Python complex arithmetic loop, like the Jacobi
  rotations, the harness and the imports;
- ``small``: many numpy calls on a 1 KiB array, like the kicks and
  one-tangles of tiny states and the JW mode sums;
- ``stream``: passes over an 8 MiB array, like the kicks of an L=20 state.

Each part is timed twice and its faster time kept.  A pooled workload loads
every core, so its gauge runs the kernel in as many processes at once and
averages each part over them.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

# Lower deciles of the parts on a quiet 2-core KVM guest (Xeon, 300 MiB L3).
REFERENCE_S = {"python": 0.0085, "small": 0.0030, "stream": 0.0100}

_BIG = np.ones(1 << 19, dtype=complex)
_SMALL = np.ones(64, dtype=complex)


def _python() -> None:
    a, s = 1.0 + 0.5j, 0j
    for _ in range(60000):
        s += a * a.conjugate() - 0.25 * s


def _small() -> None:
    x = _SMALL.copy()
    for _ in range(1500):
        x = x * 0.999 + x[::-1] * 0.001


def _stream() -> None:
    x = _BIG
    for _ in range(8):
        x = x * 0.999


PARTS = {"python": _python, "small": _small, "stream": _stream}


def kernel_s() -> dict[str, float]:
    """Seconds each part takes now, the faster of two runs."""
    times = {}
    for name, part in PARTS.items():
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        times[name] = best
    return times


def reference_s(parts: tuple[str, ...]) -> float:
    return sum(REFERENCE_S[p] for p in parts)


_barrier = None


def _start_together(barrier) -> None:
    global _barrier
    _barrier = barrier


def _kernel_after_barrier(_) -> dict[str, float]:
    _barrier.wait()  # holds each task in its own process until all have one
    return kernel_s()


class Gauge:
    """Runs the kernel in ``processes`` processes at once; a context manager
    that stops and waits for its processes on exit."""

    def __init__(self, processes: int):
        self.processes = processes
        self._pool = None
        if processes > 1:
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(processes, _start_together, (ctx.Barrier(processes),))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()

    def kernel_s(self) -> dict[str, float]:
        """Seconds each part takes now, averaged over the processes."""
        if self._pool is None:
            return kernel_s()
        runs = self._pool.map(_kernel_after_barrier, range(self.processes), chunksize=1)
        return {part: sum(r[part] for r in runs) / len(runs) for part in PARTS}
