"""The host-speed probe and the normalizing stopwatch."""

from __future__ import annotations

import os
import signal
import time

import pytest

from perfbench.hostspeed import NOMINAL_PROBE_S, HostProbe, Stopwatch


@pytest.fixture
def probe():
    affinity = os.sched_getaffinity(0)
    with HostProbe() as host:
        yield host
    assert os.sched_getaffinity(0) == affinity
    assert host._child.returncode is not None  # the probe interpreter has ended


def test_normalize_scales_by_the_mean_probe(probe):
    assert probe.normalize(2.0, 0.001, 0.002) == pytest.approx(2.0 * NOMINAL_PROBE_S / 0.0015)
    assert probe.sample() > 0


def test_stopwatch_laps_cover_the_work_but_not_the_probes(probe):
    handler = signal.getsignal(signal.SIGALRM)
    with Stopwatch(probe, period=0.02) as watch:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert 0.15 < watch.wall <= 0.2
    assert watch.normalized > 0
