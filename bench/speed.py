"""Time measured at a reference CPU speed.

On a shared host a core's speed can change under the program.  On the
2-CPU reference VM each core switched, about once a second, between its
full speed and little more than half of it (other work on the same
physical core), and slow spells sometimes lasted minutes; wall time then
measures the neighbours as much as the program.

SpeedClock measures the speed of the core while the program runs on it: a
timer interrupts the program every INTERVAL_S seconds and times probe(), a
fixed pure-Python loop that uses no topdowndt code.  Each stretch of the
program's run between two probes is rescaled by PROBE_REF_S over the mean
of those two probe times, and the rescaled stretches are summed; the
probes' own time is left out.  The sum, in reference seconds, is the time
the same work takes on a core that runs probe() in PROBE_REF_S seconds:
on the 2-CPU reference machine (Python 3.11.7), its undisturbed speed.

Interrupted code runs on unchanged: the probe touches only its own locals,
and Python retries system calls that the timer signal interrupts.  Python
runs signal handlers on the main thread, so the probe measures the core
of a single-threaded program such as the benchmark's closed loop.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
PROBE_ITERATIONS = 5000
PROBE_REF_S = 0.8e-3  # probe() on the reference machine at full speed


def probe() -> float:
    """Seconds taken by a fixed loop of dict and integer work."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    s = 0
    for i in range(PROBE_ITERATIONS):
        d[i & 255] = d.get(i & 255, 0) + i
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedClock:
    """Context manager: after exit, `wall` is the wall time of the block
    without the probes and `ref` the same in reference seconds.

    The SIGALRM handler stays installed once a clock has run, doing nothing
    between clocks, so that a late signal never meets another handler.
    """

    _running: SpeedClock | None = None
    wall = ref = 0.0

    @staticmethod
    def _on_alarm(*_) -> None:
        clock = SpeedClock._running
        if clock is not None:
            t = time.perf_counter()
            clock._add(t - clock._last, probe())
            clock._last = time.perf_counter()

    def _add(self, stretch: float, p: float) -> None:
        self.wall += stretch
        self.ref += stretch * PROBE_REF_S * 2 / (self._probe + p)
        self._probe = p

    def __enter__(self) -> SpeedClock:
        assert SpeedClock._running is None, "clocks do not nest"
        signal.signal(signal.SIGALRM, SpeedClock._on_alarm)
        self.wall = self.ref = 0.0
        self._probe = probe()
        SpeedClock._running = self
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        SpeedClock._running = None
        self._add(time.perf_counter() - self._last, probe())
