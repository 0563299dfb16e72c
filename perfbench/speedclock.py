"""A clock that runs at the speed of the machine, so that timings taken
on a shared host do not move with its load.

On the 2-vCPU VM where the benchmark was defined, the speed of one
vCPU flips between two states about 1.7x apart every few seconds, and
drifts by 30-40% over minutes.  CPU time moves as much as wall time, so
the slowdown is per instruction (neighbours on the host), not lost
scheduling.  Medians over passes of a few seconds cannot remove that.

``SpeedClock`` samples the machine's speed every ``PERIOD_S`` seconds of
wall time: a ``SIGALRM`` handler runs a fixed pure-Python probe (the
congruence class of a 4-strand braid word under the braid relations,
written here with tuples and sets and sharing no code with the package)
and times it.  Between two ticks the clock advances by wall time times
``REFERENCE_PROBE_S / probe time``, with the probe time the median of
the last ``WINDOW`` samples.  A stretch of work therefore reads the same
number of reference seconds whether the machine ran it fast or slow; on
a machine whose probe takes ``REFERENCE_PROBE_S`` the clock is wall time.

The probe runs twice per tick and only the second, warm run is timed, so
what the program left in the caches does not enter the sample; the
collector is off while it runs.  Interval timers are not inherited by
child processes, so commands the benchmark starts are not interrupted.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque

# about the probe's time on the defining VM in its fast state
REFERENCE_PROBE_S = 0.0004
PERIOD_S = 0.04
WINDOW = 5

_RULES = []
for _u, _v in (((1, 2, 1), (2, 1, 2)), ((1, 3), (3, 1)),
               ((2, 3, 2), (3, 2, 3))):
    _RULES += [(_u, _v), (_v, _u)]
_PROBE_WORD = (1, 2, 1, 3, 2, 1, 1, 2)
_PROBE_CLASS = 57


def _probe():
    """Size of the class of ``_PROBE_WORD`` under the B4 braid relations,
    found by breadth-first rewriting."""
    seen = {_PROBE_WORD}
    todo = [_PROBE_WORD]
    while todo:
        w = todo.pop()
        for u, v in _RULES:
            n = len(u)
            for i in range(len(w) - n + 1):
                if w[i:i + n] == u:
                    x = w[:i] + v + w[i + n:]
                    if x not in seen:
                        seen.add(x)
                        todo.append(x)
    return len(seen)


def _timed_probe():
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe()
        t0 = time.perf_counter()
        size = _probe()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    if size != _PROBE_CLASS:
        raise RuntimeError(f"speed probe found {size} words, not "
                           f"{_PROBE_CLASS}")
    return t0, t1


class SpeedClock:
    """``now()`` reads reference seconds; see the module docstring.  Use
    as a context manager; only one can run at a time, from the main
    thread."""

    def __init__(self):
        self.samples = []
        self._recent = deque(maxlen=WINDOW)
        self._state = None

    def __enter__(self):
        for _ in range(WINDOW):
            t0, t1 = _timed_probe()
            self._recent.append(t1 - t0)
        # (reference seconds at the last tick, wall time then, rate)
        self._state = (0.0, t1, self._rate())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _rate(self):
        return REFERENCE_PROBE_S / statistics.median(self._recent)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        t0, t1 = _timed_probe()
        self._recent.append(t1 - t0)
        self.samples.append(t1 - t0)
        ref, last, rate = self._state
        # the handler's own time is not counted
        self._state = (ref + (start - last) * rate, time.perf_counter(),
                       self._rate())

    def now(self):
        # one attribute load, so a tick between the reads cannot tear it
        ref, last, rate = self._state
        return ref + (time.perf_counter() - last) * rate

    def speed(self):
        """Median probe rate over the run, relative to the reference."""
        if not self.samples:
            return REFERENCE_PROBE_S / statistics.median(self._recent)
        return REFERENCE_PROBE_S / statistics.median(self.samples)
