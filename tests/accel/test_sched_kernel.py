"""Scheduler-kernel equivalence and seam tests (DESIGN.md section 14).

The compiled ``SchedKernel`` owns the record walk, the min-clock heap and
the L1-hit fast path natively, exiting to Python only on cold events
(misses, barriers, locks).  Its single contract is **bit-identical**
``RunStats`` against the pure-Python loop - these tests pin that contract
where the kernel's deferred state is most at risk:

* sync-heavy traces (tsp locks, radix barriers) across all four
  mesh x sched on/off combinations,
* dls, which has no L1 fast path: its resident word accesses retire
  in the kernel's native word path and every other access exits to
  Python while the cursor/heap walk stays native,
* verify mode, whose final-state sweep reads the caches the kernel's
  flush must have reconciled,
* the per-kernel fault gate (``accel.build_fail`` with ``kernel="sched"``
  forces *only* the scheduler fallback),
* observer detach: caches never retain a membership hook after a run.
"""

from __future__ import annotations

import pytest

from repro import accel
from repro.accel import build
from repro.common.params import (
    ArchConfig,
    baseline_protocol,
    dls_protocol,
    neat_protocol,
)
from repro.faults import FAULTS, FaultRule, FaultSchedule
from repro.mem.cache import SetAssocCache
from repro.sim.multicore import Simulator
from repro.workloads.registry import load_workload

pytestmark = pytest.mark.skipif(
    build.find_compiler() is None, reason="no C compiler on this host"
)

ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)

#: (mesh_disabled, sched_disabled) - all four kernel combinations.
COMBOS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.fixture(autouse=True)
def clean_selection(monkeypatch):
    for env in (build.NO_ACCEL_ENV, accel.NO_ACCEL_MESH_ENV,
                accel.NO_ACCEL_SCHED_ENV):
        monkeypatch.delenv(env, raising=False)
    accel.reset()
    yield
    FAULTS.deactivate()
    accel.reset()


def _run(trace, proto, monkeypatch, *, no_mesh, no_sched, verify=False):
    if no_mesh:
        monkeypatch.setenv(accel.NO_ACCEL_MESH_ENV, "1")
    else:
        monkeypatch.delenv(accel.NO_ACCEL_MESH_ENV, raising=False)
    if no_sched:
        monkeypatch.setenv(accel.NO_ACCEL_SCHED_ENV, "1")
    else:
        monkeypatch.delenv(accel.NO_ACCEL_SCHED_ENV, raising=False)
    return Simulator(ARCH, proto, warmup=True, verify=verify).run(trace)


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["tsp", "radix"])
    def test_sync_heavy_identical_across_combos(self, workload, monkeypatch):
        """tsp is lock-heavy, radix barrier-heavy: every Python exit path
        (advance, continue_at, wake) is on the line here."""
        trace = load_workload(workload, ARCH, scale="tiny")
        runs = [
            _run(trace, baseline_protocol(), monkeypatch,
                 no_mesh=m, no_sched=s).to_dict()
            for m, s in COMBOS
        ]
        assert all(r == runs[0] for r in runs[1:])

    def test_no_fast_path_family_identical(self, monkeypatch):
        """dls publishes no L1 fast path: the kernel walks the trace
        natively, retires resident word accesses itself and calls
        ``access`` for the rest."""
        trace = load_workload("radix", ARCH, scale="tiny")
        on = _run(trace, dls_protocol(), monkeypatch,
                  no_mesh=False, no_sched=False)
        off = _run(trace, dls_protocol(), monkeypatch,
                   no_mesh=False, no_sched=True)
        assert on.to_dict() == off.to_dict()

    def test_verify_mode_identical(self, monkeypatch):
        """Verify mode sweeps final cache state - anything the kernel
        deferred (LRU, utilization, E->M upgrades) must have been flushed."""
        trace = load_workload("tsp", ARCH, scale="tiny")
        on = _run(trace, neat_protocol(), monkeypatch,
                  no_mesh=False, no_sched=False, verify=True)
        off = _run(trace, neat_protocol(), monkeypatch,
                   no_mesh=False, no_sched=True, verify=True)
        assert on.to_dict() == off.to_dict()


class TestSeams:
    def test_sched_fault_forces_only_sched_fallback(self):
        """A ``kernel="sched"`` site-filtered build failure must not take
        the mesh kernel down with it (chaos cell ``sched-fallback``)."""
        schedule = FaultSchedule(seed=0, rules=(
            FaultRule("accel.build_fail", times=0, args={"kernel": "sched"}),
        ))
        FAULTS.activate(schedule)
        try:
            accel.reset()
            assert accel.mesh_kernel_class() is not None
            assert accel.sched_kernel_class() is None
            status = accel.status()
            assert status["kernels"]["mesh"]["implementation"] == "accel"
            assert status["kernels"]["sched"]["implementation"] == "fallback"
            assert "fault injected" in status["kernels"]["sched"]["reason"]
        finally:
            FAULTS.deactivate()

    def test_mesh_fault_forces_only_mesh_fallback(self):
        schedule = FaultSchedule(seed=0, rules=(
            FaultRule("accel.build_fail", times=0, args={"kernel": "mesh"}),
        ))
        FAULTS.activate(schedule)
        try:
            accel.reset()
            assert accel.mesh_kernel_class() is None
            assert accel.sched_kernel_class() is not None
        finally:
            FAULTS.deactivate()

    def test_observers_detached_after_run(self, monkeypatch):
        """The kernel attaches per-store membership hooks for the duration
        of one execution only; a leaked hook would corrupt the next run's
        native map.  Track every cache built during the run."""
        live: list[SetAssocCache] = []
        orig_init = SetAssocCache.__init__

        def tracking_init(self, geometry):
            orig_init(self, geometry)
            live.append(self)

        monkeypatch.setattr(SetAssocCache, "__init__", tracking_init)
        trace = load_workload("tsp", ARCH, scale="tiny")
        Simulator(ARCH, baseline_protocol(), warmup=True).run(trace)
        assert accel.kernel_impl("sched") == "accel"
        assert live, "no caches observed"
        assert all(cache._observer is None for cache in live)

    def test_fast_hit_counters_survive_kernel_path(self, monkeypatch):
        """The deferred hit counters must land in telemetry-visible form:
        the kernel path reports the same fast-path hit totals as Python,
        for the directory families and for Neat's version-gated hits
        (read hits only: no Neat write is serviced inline)."""
        trace = load_workload("tsp", ARCH, scale="tiny")
        for proto in (baseline_protocol(), neat_protocol("eager"), neat_protocol("release")):
            sim_on = Simulator(ARCH, proto, warmup=True)
            monkeypatch.delenv(accel.NO_ACCEL_SCHED_ENV, raising=False)
            sim_on.run(trace)
            on = (sim_on._fast_read_hits, sim_on._fast_write_hits)
            monkeypatch.setenv(accel.NO_ACCEL_SCHED_ENV, "1")
            sim_off = Simulator(ARCH, proto, warmup=True)
            sim_off.run(trace)
            assert on == (sim_off._fast_read_hits, sim_off._fast_write_hits), proto
            assert on[0] > 0
            assert sim_on._sched_counts["retired.l1_hit"] == sum(on)
            if proto.protocol == "neat":
                assert on[1] == 0
