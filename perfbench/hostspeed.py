"""Host-speed normalization for the end-to-end timings.

On a shared machine the speed of one CPU drifts: a fixed pure-Python loop
was measured taking 23 ms in one 2-second window and 35 ms a few seconds
later, in phases lasting tens of seconds, with neither steal time nor
process CPU time showing it.  Raw sweep times then spread by 17-28%
(quartile distance over median) across runs of the same code - more than
any regression bound worth having.

:class:`HostProbe` measures that drift where the benchmark runs: a separate
interpreter that never imports ``repro`` runs a fixed loop on request
(slotted-object method calls and heap operations, the mix of the
simulator's Python side), pinned to the same CPU as the benchmark process,
which waits while it runs.  A host-time interval is then rescaled to a
host whose probe takes ``NOMINAL_PROBE_S``: ``seconds * NOMINAL_PROBE_S /
probe``, with ``probe`` the mean of the probes taken right before and right
after the interval.
Nothing the program does can change the probe, so a slower program still
reads slower; only the host's drift cancels.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

#: Probe time of the nominal host the normalized timings refer to (the
#: probe's fast-phase time on a 2-core x86 container).
NOMINAL_PROBE_S = 0.0006

_CHILD = r"""
import heapq, sys, time
class Line:
    __slots__ = ("tag", "value", "uses")
    def __init__(self, tag):
        self.tag, self.value, self.uses = tag, tag, 0
    def touch(self, now):
        self.uses += 1
        return self.value + now
LINES = [Line(tag) for tag in range(64)]
def work(n):
    total, queue = 0, []
    for i in range(n):
        total += LINES[i & 63].touch(i)
        heapq.heappush(queue, (total & 1023, i))
        if len(queue) > 32:
            heapq.heappop(queue)
    return total
for _ in sys.stdin:
    start = time.perf_counter()
    work(1000)
    sys.stdout.write(repr(time.perf_counter() - start) + "\n")
    sys.stdout.flush()
"""


class HostProbe:
    """A probe interpreter pinned, with this process, to one CPU."""

    def __init__(self) -> None:
        self._affinity = None
        if hasattr(os, "sched_setaffinity"):
            affinity = os.sched_getaffinity(0)
            try:
                os.sched_setaffinity(0, {min(affinity)})  # children inherit it
            except OSError:
                pass  # not allowed here: probe and benchmark may then drift apart
            else:
                self._affinity = affinity
        self._child = subprocess.Popen(
            [sys.executable, "-S", "-c", _CHILD],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(20):  # let the child's code and caches settle
            self.sample()

    def sample(self) -> float:
        """Seconds the probe loop takes right now."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("host probe exited")
        return float(line)

    def normalize(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of host time rescaled to the nominal host."""
        return seconds * NOMINAL_PROBE_S * 2 / (before + after)

    def close(self) -> None:
        """Stop the probe interpreter and restore the CPU affinity."""
        self._child.stdin.close()
        self._child.wait(timeout=30)
        self._child.stdout.close()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Stopwatch:
    """Host time of a stretch of work, and that time on the nominal host.

    While the stopwatch runs, a one-shot interval timer interrupts the work
    every ``period`` seconds; each interrupt closes a lap, probes the host
    and starts the next lap, so the host's speed is sampled densely however
    long the work's steps are.  Probe time is never inside a lap, and each
    lap is normalized by the probes at its two ends.  The work must not
    use the probe or ``SIGALRM`` itself.
    """

    def __init__(self, probe: HostProbe, period: float = 0.05) -> None:
        self.probe = probe
        self.period = period
        self.wall = 0.0
        self.normalized = 0.0
        self._running = False
        self._probe = 0.0
        self._start = 0.0
        self._previous = None

    def _lap(self) -> None:
        elapsed = time.perf_counter() - self._start
        probe = self.probe.sample()
        self.wall += elapsed
        self.normalized += self.probe.normalize(elapsed, self._probe, probe)
        self._probe = probe
        self._start = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        if self._running:
            self._lap()
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self) -> "Stopwatch":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._probe = self.probe.sample()
        self._running = True
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc_info) -> None:
        self._running = False  # a tick still pending now does nothing
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._lap()
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
