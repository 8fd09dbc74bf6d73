"""Host speed, sampled while a timed span runs.

The benchmark runs on a few cores of a shared virtual machine.  Other
tenants slow the whole guest by up to 1.6x, for seconds to minutes at a
time, and nothing inside the guest shows it: steal time stays at zero
and CPU time equals wall time.  Raw pass times therefore spread by about
20% between runs of the same code.

A ``Sampler`` measures that slowdown during the span it wraps.  Every
``INTERVAL_S`` a SIGALRM handler runs one of a few fixed probes and
records how long it took: ``python``, a pure-Python integer loop, like
the matcher's big-rational arithmetic; ``numpy``, a small vectorised
exp/log, like the MI kernels.  The probes are part of the benchmark,
not of the program, so no change to the program changes them.  Each
probe's median time over the span, divided by its time on the reference
host (``REFERENCE_S``), is the host's slowdown as that probe sees it;
the span's slowdown is the geometric mean over its probes.
``normalized`` takes the probes' own time out of the span and divides
by that slowdown: the span's time on a host running at the reference
speed.

On this kind of host the probe that matches a workload's instruction
mix tracks it best.  Over ten runs of 20 s, normalising by it halves
the spread of the median pass time or better (see README.md).

The handler runs in the main thread between bytecodes; a long call into
compiled code (a numpy kernel) only delays the next sample.  Spans too
short for ``MIN_SAMPLES`` samples of each probe are topped up with
probes run right after the span, outside its timing.  The module
imports only ``math``, ``signal`` and ``time`` (numpy when the numpy
probe is asked for), so a sampled import of the program loads nothing
ahead of it.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
MIN_SAMPLES = 20

#: Probe times inside a workload pass on an unloaded 2.1 GHz Xeon VM
#: (Python 3.11.7, numpy 2.4.6).  They only fix the scale: normalized
#: times are seconds at that host's speed.
REFERENCE_S = {"python": 2.5e-4, "numpy": 9.0e-5}


def _python_probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _numpy_probe() -> float:
    import numpy as np

    x = np.linspace(0.0, 1.0, 4000)
    t0 = time.perf_counter()
    for _ in range(4):
        np.log1p(np.exp(-3.0 * x)).sum()
    return time.perf_counter() - t0


PROBES = {"python": _python_probe, "numpy": _numpy_probe}


class Sampler:
    """Context manager: runs the named probes in turn, one every
    ``INTERVAL_S``, while open."""

    def __init__(self, probes: tuple[str, ...] = ("python",)) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in probes}
        self._cycle = [(name, PROBES[name]) for name in probes]
        self._next = 0
        self._previous = None
        self.in_span_s = 0.0

    def _sample(self) -> None:
        name, probe = self._cycle[self._next % len(self._cycle)]
        self._next += 1
        self.samples[name].append(probe())

    def _handler(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.in_span_s = sum(map(sum, self.samples.values()))
        while min(map(len, self.samples.values())) < MIN_SAMPLES:
            self._sample()

    def slowdown(self) -> float:
        """The host's slowdown during the span, against the reference."""
        logs = [math.log(_median(s) / REFERENCE_S[name]) for name, s in self.samples.items()]
        return math.exp(sum(logs) / len(logs))

    def normalized(self, span_s: float) -> float:
        """`span_s` without the probes, at the reference host speed."""
        return (span_s - self.in_span_s) / self.slowdown()


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
