"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was written on is a small virtual machine shared with
other tenants.  Identical work there took from 0.20 to 0.36 s from one
second to the next, and whole passes drifted by a quarter over minutes;
medians over a 35-second run still spread by 0.2 to 0.3 between runs, more
than any bound worth setting.  The drift slows every kind of work alike, so
the benchmark times a fixed reference loop, which never changes with
graphbac, at short intervals during each pass, and reports each pass's times
scaled by NOMINAL / (the pass's mean reference time); a single operation's
latency is scaled by the samples taken near it.  On a quiet machine the
scale is close to 1 and the figures are plain seconds; under interference
they are the seconds the pass would have taken at the reference speed.  On
that host the scaled pipeline pass time spread by 0.04 across a 90-second
window in which the raw one spread by 0.44.

The reference time is taken out of every operation it interrupts, so it
never counts as graphbac's time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Mean time of one reference() call taken during passes on the host
# described above, so that a typical pass there has a scale near 1.
NOMINAL = 0.0033
# Seconds between samples: about 4 % of a pass goes to the reference.
INTERVAL = 0.05
# An operation's own scale uses the samples within this many seconds of it.
NEAR = 0.2


@dataclass(frozen=True)
class _Node:
    kind: str
    rank: int


def reference() -> int:
    """Fixed pure-Python work shaped like graph code: dicts, tuples, sorting."""
    nodes = {f"n{i}": _Node(f"t{i % 7}", i) for i in range(600)}
    edges = {f"e{i}": (f"n{i % 600}", f"n{(i * 7) % 600}") for i in range(1200)}
    incident: dict[str, list[str]] = {}
    for e, (a, b) in edges.items():
        incident.setdefault(a, []).append(e)
        incident.setdefault(b, []).append(e)
    order = sorted(incident, key=lambda n: (len(incident[n]), nodes[n].kind, n))
    return len(order) + len({frozenset(v) for v in incident.values()})


class Calibration:
    """Reference samples taken during one pass, and the time they took."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter() at each sample's start
        self.samples: list[float] = []  # each sample's duration
        self.stolen = 0.0  # seconds spent in the reference so far
        self._last = time.perf_counter()

    def sample(self, *_signal_args) -> None:
        # with the collector off, so the sample times the machine and not the
        # size of the heap graphbac (or the tracer) has built up so far
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.times.append(start)
        self.samples.append(end - start)
        self.stolen += end - start
        self._last = end

    def sample_if_due(self) -> None:
        """Sample between operations, for a pass whose client thread waits on
        another thread: a sample taken while the mock's thread computes
        would time the contest for the interpreter lock instead."""
        if time.perf_counter() - self._last >= INTERVAL:
            self.sample()

    @contextmanager
    def every_interval(self):
        """Sample from a timer signal, inside operations as well, for a pass
        that runs on this thread alone."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor that turns this pass's seconds into reference-speed seconds."""
        if not self.samples:
            self.sample()
        return NOMINAL / statistics.fmean(self.samples)

    def scale_near(self, start: float, end: float) -> float:
        """The scale from the samples near one operation (perf_counter()
        times): the machine's speed changes from one second to the next, so
        a short operation is best judged by the samples around it."""
        low = bisect.bisect_left(self.times, start - NEAR)
        high = bisect.bisect_right(self.times, end + NEAR)
        near = self.samples[low:high]
        return NOMINAL / statistics.fmean(near) if near else self.scale()
