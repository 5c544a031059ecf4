"""Failpoint sites: each injected fault produces its documented failure.

Exercises the parent-process sites directly (store appends, accel build,
telemetry sink) with the process-wide ``FAULTS`` injector active; the
process-pool and daemon sites are covered end-to-end by
``tests/runner/test_watchdog.py`` and the chaos harness tests.
"""

from __future__ import annotations

import errno

import pytest

from repro.common.errors import RunnerError
from repro.experiments.harness import adaptive_protocol, bench_arch
from repro.faults import FAULTS, FaultRule, FaultSchedule
from repro.obs import Telemetry
from repro.runner.backends.local import execute_job
from repro.runner.job import Job
from repro.runner.store import ResultStore


@pytest.fixture(autouse=True)
def clean_injector():
    """Every test starts and ends with no schedule active."""
    FAULTS.deactivate()
    yield
    FAULTS.deactivate()


@pytest.fixture(scope="module")
def job() -> Job:
    return Job(workload="tsp", proto=adaptive_protocol(4), arch=bench_arch(16),
               scale="tiny")


@pytest.fixture(scope="module")
def stats(job):
    return execute_job(job)


def _activate(*rules: FaultRule) -> None:
    FAULTS.activate(FaultSchedule(seed=0, rules=rules))


class TestStoreFailpoints:
    def test_torn_append_counted_on_reload(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        _activate(FaultRule("store.append.torn", hit=1))
        store.put(job, stats)
        FAULTS.deactivate()
        # The writing process's in-memory entry is intact (the tear models
        # a crash a *future* load must survive)...
        assert store.get(job) is not None
        # ...while a fresh load counts the torn line and misses the entry.
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_torn == 1
        assert reopened.skipped_lines == 1
        assert reopened.get(job) is None
        assert "1 skipped lines (1 torn, 0 foreign-schema)" in reopened.describe()

    def test_torn_line_does_not_poison_later_appends(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        _activate(FaultRule("store.append.torn", hit=1))
        store.put(job, stats)
        FAULTS.deactivate()
        store.put(job, stats)  # clean append after the torn one
        reopened = ResultStore(tmp_path)
        # The torn prefix has no newline, so the next record concatenates
        # onto it: one combined garbage line, then nothing else lost.
        assert reopened.skipped_torn == 1
        assert len(reopened) <= 1

    def test_corrupt_append_skipped_not_fatal(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        _activate(FaultRule("store.append.corrupt", hit=1))
        store.put(job, stats)
        FAULTS.deactivate()
        store.put(job, stats)
        reopened = ResultStore(tmp_path)  # non-UTF-8 head must not raise
        assert reopened.skipped_torn == 1
        assert reopened.get(job) is not None

    def test_disk_full_raises_enospc(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        _activate(FaultRule("store.append.disk_full", hit=1))
        with pytest.raises(OSError) as excinfo:
            store.put(job, stats)
        assert excinfo.value.errno == errno.ENOSPC
        FAULTS.deactivate()
        store.put(job, stats)  # the store object remains usable afterwards
        assert ResultStore(tmp_path).get(job) is not None

    def test_foreign_schema_lines_counted(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        with store.path.open("a", encoding="utf-8") as fh:
            fh.write('{"schema": -1, "key": "x", "stats": {}}\n')
        reopened = ResultStore(tmp_path)
        assert reopened.skipped_schema == 1
        assert reopened.skipped_torn == 0
        assert len(reopened) == 1


class TestCompactLock:
    def test_compact_refuses_while_writer_lock_held(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        other = ResultStore(tmp_path)
        # Simulate a second live process: its lock file carries a pid that
        # is alive (this one) but not ours from `other`'s perspective -
        # patch in a foreign pid that is definitely alive: pid 1... not
        # portable as "other"; use our own pid written under a lock name
        # another process would use.
        lock = store._lock_path(99999999)
        lock.write_text("99999999\n", encoding="utf-8")
        # 99999999 is almost certainly dead: it must be swept as stale.
        assert other.live_writers() == []
        assert not lock.exists()

    def test_compact_refuses_live_writer(self, tmp_path, job, stats, monkeypatch):
        store = ResultStore(tmp_path)
        store.put(job, stats)
        other = ResultStore(tmp_path)
        foreign = store._lock_path(424242)
        foreign.write_text("424242\n", encoding="utf-8")
        monkeypatch.setattr("repro.runner.store._pid_alive", lambda pid: True)
        with pytest.raises(RunnerError, match="compact refused.*424242"):
            other.compact()

    def test_compact_proceeds_after_lock_released(self, tmp_path, job, stats):
        store = ResultStore(tmp_path)
        with store.writer_lock():
            store.put(job, stats)
            store.put(job, stats)
            # Our own lock never blocks our own compact.
            kept, dropped = store.compact()
        assert (kept, dropped) == (1, 1)
        assert ResultStore(tmp_path).get(job) is not None

    def test_writer_lock_cleans_up(self, tmp_path):
        store = ResultStore(tmp_path)
        with store.writer_lock():
            assert list(tmp_path.glob("writer-*.lock"))
        assert not list(tmp_path.glob("writer-*.lock"))


class TestAccelFailpoint:
    def test_build_fail_degrades_to_reason(self, tmp_path, monkeypatch):
        from repro.accel import build

        monkeypatch.setenv(build.CACHE_ENV, str(tmp_path))
        _activate(FaultRule("accel.build_fail", times=0))
        artifact, info = build.build_artifact()
        assert artifact is None
        assert info["reason"] == "fault injected: accel.build_fail"


class TestTelemetryFailpoint:
    def test_sink_dead_self_disables(self, tmp_path):
        telemetry = Telemetry()
        telemetry.enable(str(tmp_path / "events.jsonl"))
        _activate(FaultRule("obs.sink_dead", hit=2))
        telemetry.event("first")  # hit 1: survives
        assert telemetry.enabled
        telemetry.event("second")  # hit 2: sink dies, telemetry disables
        assert not telemetry.enabled
        telemetry.event("third")  # quietly dropped, never raises
