"""Timings scaled to a fixed machine speed.

The benchmark's host shares its cores with other machines' work. The same
code runs at one speed for some tens of milliseconds and up to three times
slower the next, and the mix drifts from minute to minute, so a plain
timing of the program measures its neighbours as much as the program.

While the program runs, an interval timer interrupts it every ``PERIOD_S``
and times a fixed probe, a short loop of integer and dict operations. A
span of the program is then read as its length less the probes inside it,
scaled by how fast the probes ran in and next to it:

    span_s = (t1 - t0 - probes inside) * mean(REF_S / probe_s)

so a span reads the seconds it would take on a host where the probe takes
``REF_S``. The probe is the benchmark's own code, so a change to the
program leaves it alone, and the program's own speed shows in full.
"""

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01

_pc = time.perf_counter


def _probe():
    s = 0
    table = {}
    for i in range(600):
        s += i * 3 % 7
        table[i & 31] = s
    return s


# The probe's time on the reference host, a 2-core Xeon virtual machine,
# when that host ran fast.  It sets the scale of every time metric.
REF_S = 80e-6


class Meter:
    """Probes the machine's speed every ``PERIOD_S`` between ``start`` and
    ``stop``, and scales spans of that interval by it."""

    def __init__(self):
        self.starts, self.durations = [], []
        self._previous = None
        self._sampling = False

    def _sample(self, *_):
        if self._sampling:    # a signal that came during a probe
            return
        self._sampling = True
        t = _pc()
        _probe()
        self.starts.append(t)
        self.durations.append(_pc() - t)
        self._sampling = False

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def probe_s(self) -> float:
        """Median probe time of the run, for the record."""
        return statistics.median(self.durations)

    def span_s(self, t0: float, t1: float) -> float:
        """Seconds of the program between ``t0`` and ``t1``, taken with
        ``time.perf_counter`` while the meter ran, at the reference speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        busy = sum(self.durations[lo:hi])
        lo = max(bisect.bisect_left(self.starts, t0 - PERIOD_S) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD_S) + 1
        around = self.durations[lo:hi]
        return (t1 - t0 - busy) * statistics.fmean(
            REF_S / d for d in around)
