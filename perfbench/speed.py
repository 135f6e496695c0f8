"""Wall time rescaled to a reference machine speed.

The machine this runs on is shared, and how fast it runs Python changes
by tens of percent from one second to the next.  So the run keeps timing
a small fixed kernel of the benchmark's own (dicts, sets, tuples and a
union-find, the same kinds of work eqsketch does): every ``PERIOD``
seconds from a SIGALRM timer, and ``BETWEEN`` times before each
operation.  An interval of wall time is reported as

    (its length - the kernel time inside it) * REFERENCE / mean kernel time

where the mean is over the samples taken inside the interval and the
nearest ones on either side.  The kernel is not eqsketch code, so a
change to eqsketch moves the rescaled times as it moves the raw ones.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.05          # seconds between timer samples
BETWEEN = 4            # samples taken before each operation
REFERENCE = 0.00033    # seconds the kernel takes at reference speed


def kernel() -> int:
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    names = [f"t{i}" for i in range(150)]
    for i, a in enumerate(names):
        ra, rb = find(a), find(names[(i * 7) % 150])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = {(find(a), len(a)) for a in names}
    tables = [dict(zip(range(8), (i, j))) for i in range(5) for j in range(10)]
    return len(roots) + sum(len(t) for t in tables)


class SpeedClock:
    def __init__(self):
        self.starts = []
        self.lengths = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.lengths.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def calibrate(self) -> None:
        for _ in range(BETWEEN):
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval [a, b]."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        inside = self.lengths[i:j]
        near = self.lengths[max(0, i - BETWEEN):i] + self.lengths[j:j + BETWEEN]
        speed = statistics.fmean(inside + near)
        return ((b - a) - sum(inside)) * REFERENCE / speed
