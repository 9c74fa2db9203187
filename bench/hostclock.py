"""Times scaled to a reference host speed by an interleaved probe.

On a shared host the same Python code runs up to about 1.6 times slower
for stretches of seconds to minutes, and CPU time slows with wall time.
A fixed probe (exact rational arithmetic, like berkline's own inner
loops) is timed between operations, at least every ``EVERY_S`` seconds of
operation time.  An operation's time is scaled by ``REF_S / p``, where
p is the mean of the probes just before and just after it: the time it
would have taken on a host where the probe takes ``REF_S``.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 2.0e-3  # the probe's time on the reference host (a quiet spell here)
EVERY_S = 0.05


def probe_work():
    """Fixed work of about 2 ms: Fraction sums and comparisons."""
    acc = Fraction(0)
    top = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        if acc > top:
            top = acc
    return top


class HostClock:
    """Brackets timed work with probes and scales it to the reference host."""

    def __init__(self):
        self.probes = []
        self._since = float("inf")
        self._pending = []  # raw times waiting for the probe after them

    def _probe(self):
        t0 = time.perf_counter()
        probe_work()
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        self._since = 0.0
        return dt

    def before(self):
        """Call before timed work; probes when enough work has passed."""
        if self._since >= EVERY_S:
            self._settle()

    def add(self, raw, sink):
        """Record one raw time; ``sink(scaled)`` is called once known."""
        self._pending.append((raw, sink))
        self._since += raw

    def _settle(self):
        previous = self.probes[-1] if self.probes else None
        now = self._probe()
        speed = (previous + now) / 2 if previous is not None else now
        for raw, sink in self._pending:
            sink(raw * REF_S / speed)
        self._pending = []

    def flush(self):
        """Probe now and settle every recorded time."""
        self._settle()

    def measure(self, thunk):
        """(result, scaled seconds) of one call between probes."""
        self.flush()
        t0 = time.perf_counter()
        result = thunk()
        raw = time.perf_counter() - t0
        out = []
        self.add(raw, out.append)
        self.flush()
        return result, out[0]
