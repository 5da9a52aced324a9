"""A clock that runs at the host's speed, so timings survive host slow-downs.

On a shared host the same single-threaded work can take 1.7 times as
long for a minute or two and then speed up again, which no number of
repetitions inside a 30-second run averages away.  ``HostClock`` runs a
fixed probe, built only from the benchmark's own reference code, every
``interval`` seconds from a SIGALRM handler.  Between probes the clock
advances at ``PROBE_REF_S / p`` reference seconds per wall second, where
``p`` is the median duration of the last five probes: when the host is
slow the probe is slow too, and the clock slows with it.  Time spent in
the probe itself is not counted.  On a steady host a reference second
is a wall second times a constant.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import oracles

PROBE_REF_S = 0.0005  # nominal probe duration: a reference second is 2,000 probes
_B3 = [sum(1 << j for j in range(8) if i & j == i) for i in range(8)]
_C4 = [0b1111, 0b1110, 0b1100, 0b1000]


def probe() -> int:
    """Fixed pure-Python work in the style of orderlab: bit masks,
    recursion, small tuples and lists."""
    return (len(oracles.upper_sets(_B3)) + len(oracles.aux_relations(_C4))
            + len(oracles.labeled_posets(3)))


class HostClock:
    def __init__(self, interval: float = 0.05, wall=time.perf_counter):
        self.interval = interval
        self.wall = wall
        self.recent: list[float] = []
        self.probes: list[float] = []
        # (wall time, reference time, reference seconds per wall second),
        # replaced as one object so that now() never sees half an update
        self._state = (wall(), 0.0, 1.0)
        self._old_handler = None

    def now(self) -> float:
        wall_at, ref_at, rate = self._state
        return ref_at + (self.wall() - wall_at) * rate

    def _tick(self, signum, frame) -> None:
        start = self.wall()
        ref_at = self.now()
        enabled = gc.isenabled()
        gc.disable()  # collecting the program's garbage is not probe time
        try:
            probe()
        finally:
            if enabled:
                gc.enable()
        end = self.wall()
        took = end - start
        self.probes.append(took)
        self.recent = (self.recent + [took])[-5:]
        self._state = (end, ref_at, PROBE_REF_S / statistics.median(self.recent))

    def start(self) -> "HostClock":
        for _ in range(3):  # warm up, then take the first reading
            probe()
        self._tick(None, None)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def slowdown(self) -> float:
        """Median probe duration over its nominal value."""
        return statistics.median(self.probes) / PROBE_REF_S

    def __enter__(self) -> "HostClock":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
