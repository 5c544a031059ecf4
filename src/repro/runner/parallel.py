"""Sweep orchestration: dedup, cache, backend dispatch, order reassembly.

``ParallelRunner`` turns a list of :class:`~repro.runner.job.Job` into a list
of :class:`~repro.sim.stats.RunStats`:

1. deduplicate jobs by content hash (figure sweeps share many points);
2. satisfy what it can from the :class:`~repro.runner.store.ResultStore`;
3. dispatch the remainder to an :class:`~repro.runner.backends.ExecutionBackend`
   - serial in-process, a spawn-safe ``multiprocessing`` pool, or remote
   ``repro serve`` daemons - persisting each result as it lands;
4. reassemble results in input order.

The runner is backend-agnostic: *what* executes a ``(payload, trace | None)``
task lives in :mod:`repro.runner.backends`, and every backend returns the
same ``RunStats.to_dict()`` payloads the cache persists, so serial, pooled,
remote and cached executions of one job are bit-identical by construction.

The runner is a context manager; prefer ``with ParallelRunner(...) as r:`` so
the backend (worker pool, connections) is released even when a sweep raises
mid-batch.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.common.errors import RunnerError
from repro.obs import TELEMETRY
from repro.runner.backends import ExecutionBackend, LocalBackend, ProcessBackend
from repro.runner.backends.local import build_trace
from repro.runner.job import Job
from repro.runner.store import ResultStore
from repro.sim.stats import RunStats

#: Progress callback: (completed, total, job, source) with source one of
#: "cache", "serial", "parallel", "remote".
ProgressFn = Callable[[int, int, Job, str], None]


def format_progress(done: int, total: int, job: Job, source: str) -> str:
    """The one progress-line format shared by every CLI/harness frontend."""
    return f"  [{done}/{total}] {job.describe()} ({source})"


@dataclass
class ParallelRunner:
    """Executes job batches with caching, deduplication and backend sharding."""

    store: ResultStore | None = None
    workers: int = 1
    progress: ProgressFn | None = None
    #: ``multiprocessing`` start method for the default process backend.
    #: "spawn" works everywhere and proves workers carry no inherited state;
    #: "fork" is faster where available.
    start_method: str = "spawn"
    #: Execution backend.  ``None`` picks the historical default from
    #: ``workers``: a process pool when ``workers > 1``, else serial
    #: in-process execution.  Passing a backend hands its lifetime to the
    #: runner: :meth:`close` closes it.
    backend: ExecutionBackend | None = None

    #: Simulations actually executed by this runner (cache misses).
    simulations: int = 0

    _backend: ExecutionBackend | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job] | Iterable[Job]) -> list[RunStats]:
        """Execute ``jobs``; returns stats aligned with the input order.

        Duplicate jobs (same content hash) are executed once and share the
        returned ``RunStats`` object.
        """
        jobs = list(jobs)
        unique: dict[str, Job] = {}
        for job in jobs:
            kept = unique.setdefault(job.key, job)
            if job.verify and not kept.verify:
                # verify is hash-excluded, so twins collapse to one
                # execution; run the checked twin - its result is
                # identical and satisfies both (see ResultStore.get).
                unique[job.key] = job

        results: dict[str, RunStats] = {}
        pending: list[Job] = []
        total = len(unique)
        done = 0
        for key, job in unique.items():
            cached = self.store.get(job) if self.store is not None else None
            if cached is not None:
                results[key] = cached
                done += 1
                if self.progress is not None:
                    self.progress(done, total, job, "cache")
            else:
                pending.append(job)
        if TELEMETRY.enabled:
            TELEMETRY.count("runner.jobs", len(jobs))
            TELEMETRY.count("runner.cache.hits", done)
            TELEMETRY.count("runner.cache.misses", len(pending))

        if pending:
            # Advertise this process as a live appender while the batch
            # streams results into the store, so `repro cache compact`
            # refuses to rewrite the log out from under it.
            lock = (
                self.store.writer_lock()
                if self.store is not None
                else contextlib.nullcontext()
            )
            with lock:
                self._run_pending(pending, results, done, total)

        missing = [unique[k].describe() for k in unique if k not in results]
        if missing:
            raise RunnerError(f"jobs produced no result: {missing}")
        return [results[job.key] for job in jobs]

    # ------------------------------------------------------------------
    def _ensure_backend(self) -> ExecutionBackend:
        if self._backend is None:
            if self.backend is not None:
                self._backend = self.backend
            elif self.workers <= 1:
                self._backend = LocalBackend()
            else:
                self._backend = ProcessBackend(
                    workers=self.workers, start_method=self.start_method
                )
        return self._backend

    def _run_pending(
        self, pending: list[Job], results: dict[str, RunStats], done: int, total: int
    ) -> None:
        backend = self._ensure_backend()
        by_key = {job.key: job for job in pending}
        wants_traces = getattr(backend, "wants_traces", False)
        #: Batch dispatch origin: each finished job reports its time since
        #: this mark as queue-wait + execution (the only per-job latency a
        #: backend-agnostic orchestrator can observe for pooled/remote jobs).
        self._batch_started = time.perf_counter()

        def tasks():
            # In-process backends get each unique trace compiled once in the
            # parent (memoized by trace_key) and shipped with the job as
            # contiguous columnar buffers; lazy evaluation overlaps trace
            # builds with execution.  The remote backend declines: daemons
            # regenerate traces deterministically from the payload.
            for job in pending:
                yield job.to_dict(), (build_trace(job) if wants_traces else None)

        try:
            with TELEMETRY.span(
                "runner.batch", jobs=len(pending), backend=backend.source
            ):
                for key, payload in backend.run_batch(tasks()):
                    done = self._finish(
                        by_key[key], payload, results, done, total, backend.source
                    )
        except RunnerError:
            raise
        except Exception as exc:
            self.close()
            raise RunnerError(f"execution backend failed: {exc}") from exc

    def _finish(
        self,
        job: Job,
        payload: dict,
        results: dict[str, RunStats],
        done: int,
        total: int,
        source: str,
    ) -> int:
        """Record one completed simulation; returns the new done count."""
        if self.store is not None:
            self.store.put(job, payload)
        results[job.key] = RunStats.from_dict(payload)
        self.simulations += 1
        done += 1
        if TELEMETRY.enabled:
            TELEMETRY.event(
                "runner.job_done",
                key=job.key[:12],
                workload=job.workload,
                source=source,
                wait_s=round(time.perf_counter() - self._batch_started, 6),
            )
        if self.progress is not None:
            self.progress(done, total, job, source)
        return done

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the execution backend (idempotent; respawns on demand)."""
        backend = self._backend if self._backend is not None else self.backend
        self._backend = None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
