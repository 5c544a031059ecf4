"""The measurements: set-up, cold and warm sweeps, and the traced run.

Load model: one client in a closed loop.  Each sweep is a serial
``ParallelRunner`` (``LocalBackend``, this process) over the workload's job
list into a fresh ``ResultStore``, so each job starts only when the previous
one has finished.  Host time is wall time on the machine running the
benchmark, rescaled to a nominal host speed in the end-to-end metrics
(:mod:`perfbench.hostspeed`); the ``model.*`` ratios are simulated time and
energy of the modelled chip and do not depend on the host.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import accel
from repro.common.statsutil import geomean
from repro.obs import TELEMETRY
from repro.runner import LocalBackend, ParallelRunner, ResultStore
from repro.runner.backends import local
from repro.sim.multicore import Simulator

from perfbench import WORK_DIR, digests, workloads
from perfbench.hostspeed import HostProbe, Stopwatch
from perfbench.sampler import LayerSampler
from perfbench.tracing import (
    BOOKKEEPING,
    LAYERS,
    SpanRecorder,
    calls_within,
    layer_totals,
    summarize,
)

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_REPS = 7
#: Wall time spent on warm re-runs after each cold sweep (at least
#: ``WARM_MIN_REPS`` of them); one warm pass takes 1-20 ms.
WARM_BUDGET_S = 1.0
WARM_MIN_REPS = 5
#: Largest gap allowed between a layer's sampled and span share.  The
#: systematic part (up to ~0.05 on verify-tiny) is mem code the engines
#: enter outside the wrapped fills: cache construction in make_engine and
#: SetAssocCache lookups, which spans charge to protocol.
SHARE_GAP_BOUND = 0.075

_SETUP_CHILD = """\
import json, time
t0 = time.perf_counter()
import repro
t1 = time.perf_counter()
from repro import accel
kernels = {k: v["implementation"] for k, v in accel.status()["kernels"].items()}
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "accel_load_s": t2 - t1, "kernels": kernels}))
"""


class BenchmarkError(Exception):
    """The benchmark cannot report: a gate failed or the program broke."""


# ----------------------------------------------------------------------
# Kernel provenance and set-up
# ----------------------------------------------------------------------
def check_provenance(kernels: dict[str, str]) -> None:
    """Refuse to report speed when a compiled kernel fell back to Python.

    A broken compiler would otherwise pass as a slowdown.
    """
    fallen = sorted(name for name, impl in kernels.items() if impl != "accel")
    if fallen or set(kernels) != {"mesh", "sched"}:
        raise BenchmarkError(
            f"kernel provenance gate: {kernels} - every kernel must be 'accel' "
            "(check the C compiler and REPRO_NO_ACCEL*); no speed metrics reported"
        )


def kernel_provenance() -> dict[str, str]:
    """Each kernel's implementation in this process (builds on first use)."""
    return {name: info["implementation"] for name, info in accel.status()["kernels"].items()}


def time_setup(reps: int, probe: HostProbe | None = None) -> list[dict]:
    """Start ``reps`` fresh interpreters that import ``repro`` and load both
    kernels from the warm build cache; wall time of each, with its split
    and, given a ``probe``, its time on the nominal host."""
    samples = []
    for _ in range(reps):
        before = probe.sample() if probe is not None else 0.0
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD], capture_output=True, text=True,
            timeout=120, check=False,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        check_provenance(sample["kernels"])
        sample["wall_s"] = wall
        if probe is not None:
            sample["normalized_s"] = probe.normalize(wall, before, probe.sample())
        samples.append(sample)
    return samples


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def cold_sweep(jobs, store_dir: Path) -> tuple[float, ResultStore, str | None]:
    """One cold sweep into an empty store: (wall seconds, store, error).

    The trace memo is process-global, so it is emptied first: a cold sweep
    builds every trace, as a fresh ``repro sweep`` process would.
    """
    local._TRACE_CACHE.clear()
    error = None
    start = time.perf_counter()
    store = ResultStore(store_dir)
    try:
        with ParallelRunner(store=store, backend=LocalBackend()) as runner:
            runner.run(jobs)
    except Exception as exc:  # counted per job by job_digests, reported below
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, store, error


def warm_sweep(jobs, store_dir: Path) -> tuple[float, list, ResultStore]:
    """Re-run ``jobs`` against the populated store in a new ``ResultStore``."""
    start = time.perf_counter()
    store = ResultStore(store_dir)
    with ParallelRunner(store=store, backend=LocalBackend()) as runner:
        results = runner.run(jobs)
    wall = time.perf_counter() - start
    if runner.simulations != 0:
        raise BenchmarkError(f"warm sweep simulated {runner.simulations} jobs, expected 0")
    return wall, results, store


def job_digests(jobs, store: ResultStore) -> dict[str, str | None]:
    """``label -> digest`` of every job's stored result (``None``: no result)."""
    out = {}
    for job in jobs:
        stats = store.get(job)
        out[workloads.label(job)] = None if stats is None else digests.digest(stats.to_dict())
    return out


def records_executed(jobs) -> int:
    """Trace records the sweep executes, both passes of warmed jobs."""
    return sum(
        local.build_trace(job).total_records * (2 if job.warmup else 1) for job in jobs
    )


def model_ratios(jobs, store: ResultStore) -> dict[str, float]:
    """Geomean over benchmarks of adaptive PCT=4 / baseline (simulated)."""
    by_point = {(job.workload, job.proto): store.get(job) for job in jobs}
    completion, energy = [], []
    for name in dict.fromkeys(job.workload for job in jobs):
        adaptive = by_point.get((name, workloads.ADAPTIVE_PCT4))
        base = by_point.get((name, workloads.BASELINE))
        if adaptive is None or base is None:
            continue
        completion.append(adaptive.completion_time / base.completion_time)
        energy.append(adaptive.energy.total / base.energy.total)
    if not completion:  # the sweep failed; the checker has counted it
        return {"completion": 0.0, "energy": 0.0}
    return {"completion": geomean(completion), "energy": geomean(energy)}


class Checker:
    """Counts jobs that raised or whose digest differs from the expected one.

    The expected digests are the committed reference for the seed; a seed
    without one is checked for self-consistency: every later sweep, and the
    warm re-runs, must reproduce the first sweep bit for bit.
    """

    def __init__(self, expected: dict[str, str] | None) -> None:
        self.expected = expected
        self.has_reference = self.expected is not None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, observed: dict[str, str | None], what: str) -> None:
        if self.expected is None:
            self.expected = {k: v for k, v in observed.items() if v is not None}
        self.attempted += len(observed)
        bad = digests.mismatches(observed, self.expected)
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{what}: {len(bad)} job(s) failed or differ: {bad[:5]}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def _scratch(workload: str) -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))


def run_untraced(workload: str, seed: int, seconds: float, reduced: bool = False) -> dict:
    """End-to-end metrics: set-up, then cold sweeps (each followed by warm
    re-runs) until ``seconds`` have passed.  Timings are normalized to the
    nominal host (see :mod:`perfbench.hostspeed`); medians reported."""
    check_provenance(kernel_provenance())
    jobs = workloads.jobs(workload, seed, reduced)
    checker = Checker(None if reduced else digests.load_reference(workload, seed))
    scratch = _scratch(workload)
    cold_rates, raw_rates, warm_times, raw_warm = [], [], [], []
    records = ratios = None
    try:
        with HostProbe() as probe:
            setup = time_setup(SETUP_REPS if not reduced else 1, probe)
            deadline = time.perf_counter() + seconds
            rep = 0
            while True:
                store_dir = scratch / f"cold-{rep}"
                gc.collect()  # every timed stretch starts from the same heap state
                with Stopwatch(probe) as cold:
                    _, store, error = cold_sweep(jobs, store_dir)
                checker.check(job_digests(jobs, store), f"cold sweep {rep}")
                if error is not None:
                    checker.problems.append(f"cold sweep {rep} raised {error}")
                if records is None:
                    records = records_executed(jobs)
                    ratios = model_ratios(jobs, store)
                cold_rates.append(records / cold.normalized)
                raw_rates.append(records / cold.wall)
                # Warm re-runs take 1-20 ms each: time a batch of them.
                passes = 0
                gc.collect()
                with Stopwatch(probe) as warm:
                    while passes < WARM_MIN_REPS or warm.wall < WARM_BUDGET_S:
                        _, results, _ = warm_sweep(jobs, store_dir)
                        passes += 1
                warm_times.append(warm.normalized / passes)
                raw_warm.append(warm.wall / passes)
                checker.check(
                    {workloads.label(j): digests.digest(s.to_dict()) for j, s in zip(jobs, results)},
                    f"warm re-run after cold sweep {rep}",
                )
                shutil.rmtree(store_dir, ignore_errors=True)
                rep += 1
                if time.perf_counter() >= deadline:
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_provenance(kernel_provenance())
    return {
        "workload": workload,
        "seed": seed,
        "jobs": len(jobs),
        "checker": checker,
        "metrics": {
            "setup_s": (statistics.median(s["normalized_s"] for s in setup), "s"),
            "sweep_records_per_s": (statistics.median(cold_rates), "records/s"),
            "warm_sweep_s": (statistics.median(warm_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "model.completion_ratio": (ratios["completion"], "ratio"),
            "model.energy_ratio": (ratios["energy"], "ratio"),
        },
        "notes": {
            "records_per_sweep": records,
            "cold_sweeps": len(cold_rates),
            "raw_setup_s": statistics.median(s["wall_s"] for s in setup),
            "raw_sweep_records_per_s": statistics.median(raw_rates),
            "raw_warm_sweep_s": statistics.median(raw_warm),
            "error_rate": checker.failed / checker.attempted,
        },
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
class PassLog:
    """Per-pass counts taken around ``Simulator._execute``.

    Not a span: it records, for each pass, the span-index range the pass
    covers, the records it executed, how many were memory operations, the
    scheduler fast-path hits and the L2 misses the pass left in the engine.
    Counting a trace's memory operations is recorder bookkeeping, so it is
    wrapped as a ``bookkeeping`` span and stays out of every layer.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.passes: list[dict] = []
        self.traces: dict[int, tuple[object, int]] = {}
        self._original = None
        self._count = recorder.wrap(self._memory_records, "perfbench.memory_records", BOOKKEEPING)

    @staticmethod
    def _memory_records(trace) -> int:
        from repro.common.types import Op

        read, write = int(Op.READ), int(Op.WRITE)
        return sum(col.count(read) + col.count(write) for col in trace.ops)

    def install(self) -> None:
        original = self._original = Simulator._execute
        spans = self.recorder.fns
        log = self

        def _execute(sim, engine, trace, start_clocks, breakdowns):
            first = len(spans)
            clocks = original(sim, engine, trace, start_clocks, breakdowns)
            known = log.traces.get(id(trace))
            if known is None:
                known = log.traces[id(trace)] = (trace, log._count(trace))
            log.passes.append({
                "first": first,
                "last": len(spans),
                "records": trace.total_records,
                "memory_records": known[1],
                "fast_hits": sim._fast_read_hits + sim._fast_write_hits,
                "l2_misses": sum(s.misses for s in engine.l2),
            })
            return clocks

        Simulator._execute = _execute

    def uninstall(self) -> None:
        if self._original is not None:
            Simulator._execute = self._original
            self._original = None


def _telemetry_counters(path: Path) -> dict[str, int]:
    counters: dict[str, int] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("kind") == "counter":
                counters[record["name"]] = counters.get(record["name"], 0) + record["value"]
    return counters


def traced_pass(workload: str, jobs, scratch: Path, checker: Checker) -> dict:
    """One untraced and one traced cold sweep, then a traced warm re-run."""
    untraced_wall, store, error = cold_sweep(jobs, scratch / "untraced")
    untraced = job_digests(jobs, store)
    checker.check(untraced, "untraced cold sweep")
    if error is not None:
        checker.problems.append(f"untraced cold sweep raised {error}")

    recorder = SpanRecorder()
    passes = PassLog(recorder)
    sink = scratch / "telemetry.jsonl"
    sampler = LayerSampler(recorder)
    recorder.install()
    passes.install()
    TELEMETRY.enable(sink)
    try:
        with sampler:
            traced_wall, store, error = cold_sweep(jobs, scratch / "traced")
    finally:
        TELEMETRY.disable()
        passes.uninstall()
        recorder.uninstall()
    warm_recorder = SpanRecorder()
    with warm_recorder:
        _, _, warm_store = warm_sweep(jobs, scratch / "traced")
    traced = job_digests(jobs, store)
    checker.check(traced, "traced cold sweep")
    if error is not None:
        checker.problems.append(f"traced cold sweep raised {error}")
    if traced != untraced:
        checker.fail("tracing changed RunStats: traced digests differ from untraced")
    recorder.write(WORK_DIR / f"spans-{workload}")

    counters = _telemetry_counters(sink)
    by_name = summarize(recorder)
    layers = layer_totals(by_name)
    warm = summarize(warm_recorder)

    def self_s(name):
        return by_name[name]["self_s"]

    def calls(name):
        return by_name[name]["calls"]

    access_names = [n for n, e in by_name.items() if e["layer"] == "protocol" and n.endswith(".access")]
    access_calls = sum(calls(n) for n in access_names)
    records = sum(p["records"] for p in passes.passes)
    fast_hits = sum(p["fast_hits"] for p in passes.passes)
    # Every job is warmed: passes come in (warmup, measured) pairs, and the
    # program's own counters cover the measured pass only.
    measured = passes.passes[1::2]
    measured_ranges = [(p["first"], p["last"]) for p in measured]

    identities = {
        "access calls = memory records - fast-path hits": (
            access_calls, sum(p["memory_records"] - p["fast_hits"] for p in passes.passes)),
        "fast-path hits (measured pass) = sim.fastpath.* counters": (
            sum(p["fast_hits"] for p in measured),
            counters.get("sim.fastpath.read_hits", 0) + counters.get("sim.fastpath.write_hits", 0)),
        "on_remote_access calls (measured pass) = classifier.remote_accesses": (
            calls_within(recorder, "LocalityClassifier.on_remote_access", measured_ranges),
            counters.get("classifier.remote_accesses", 0)),
        "MemoryController.access calls (measured pass) = dram.requests": (
            calls_within(recorder, "MemoryController.access", measured_ranges),
            counters.get("dram.requests", 0)),
        "traces built = distinct traces executed": (
            calls("load_workload"), len(passes.traces)),
        "passes = 2 x jobs": (len(passes.passes), 2 * len(jobs)),
        "runs on compiled kernels = jobs": (counters.get("sim.runs.accel", 0), len(jobs)),
    }
    for what, (seen, expected) in identities.items():
        if seen != expected:
            checker.fail(f"traced counts do not add up: {what}: {seen} != {expected}")

    attributed = sum(entry["self_s"] for entry in layers.values())
    span_shares = {layer: layers[layer]["self_s"] / traced_wall for layer in LAYERS}
    sample_shares = sampler.shares()
    native = records - access_calls
    metrics = {
        "runner.self_s": self_s("ParallelRunner.run"),
        "runner.serialize_s": self_s("RunStats.to_dict"),
        "runner.store_put_s": self_s("ResultStore.put"),
        "runner.store_puts": calls("ResultStore.put"),
        "runner.store_load_s": warm["ResultStore._load"]["self_s"],
        "runner.store_get_s": warm["ResultStore.get"]["self_s"],
        "runner.cache_hit_ratio": warm_store.hits / max(1, warm_store.hits + warm_store.misses),
        "workloads.build_s": self_s("load_workload"),
        "workloads.traces_built": calls("load_workload"),
        "workloads.records_built": sum(t.total_records for t, _ in passes.traces.values()),
        "protocol.make_engine_s": self_s("make_engine"),
        "protocol.access_calls": access_calls,
        "protocol.self_s": sum(self_s(n) for n in access_names),
        "protocol.exit_ratio": access_calls / max(1, records),
        "sim.self_s": self_s("Simulator.run"),
        "sim.records_executed": records,
        "sim.fastpath_hits": fast_hits,
        "sim.ns_per_native_record": self_s("Simulator.run") / max(1, native) * 1e9,
        "network.calls": layers["network"]["calls"],
        "network.self_s": layers["network"]["self_s"],
        "network.messages": counters.get("mesh.messages", 0),
        "network.flits": counters.get("mesh.flits", 0),
        "network.slot_recycles": counters.get("mesh.slot_recycles", 0),
        "coherence.calls": layers["coherence"]["calls"],
        "coherence.self_s": layers["coherence"]["self_s"],
        "coherence.promotions": counters.get("classifier.promotions", 0),
        "coherence.demotions": counters.get("classifier.demotions", 0),
        "rnuca.calls": layers["rnuca"]["calls"],
        "rnuca.self_s": layers["rnuca"]["self_s"],
        "mem.calls": layers["mem"]["calls"],
        "mem.self_s": layers["mem"]["self_s"],
        "mem.dram_requests": counters.get("dram.requests", 0),
        "mem.l2_misses": sum(p["l2_misses"] for p in measured),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.unattributed_s": traced_wall - attributed,
        "trace.samples": sum(sampler.counts.values()),
        "trace.max_share_gap": max(
            abs(sample_shares[layer] - span_shares[layer]) for layer in LAYERS),
    }
    for layer in LAYERS:
        metrics[f"{layer}.sample_share"] = sample_shares[layer]
    return {
        "metrics": metrics,
        "span_shares": span_shares,
        "layer_self_s": {layer: layers[layer]["self_s"] for layer in LAYERS},
        "spans": len(recorder.fns),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
    }


#: Units of the traced run's metrics, by name suffix.
_TRACE_UNITS = {
    "_s": "s", "calls": "count", "_puts": "count", "_built": "count", "_ratio": "ratio",
    "records_executed": "count", "fastpath_hits": "count", "ns_per_native_record": "ns",
    "messages": "count", "flits": "count", "slot_recycles": "count", "promotions": "count",
    "demotions": "count", "dram_requests": "count", "l2_misses": "count",
    "samples": "count", "_share": "share", "_gap": "share",
}


def trace_unit(name: str) -> str:
    for suffix, unit in _TRACE_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def run_traced(workload: str, seed: int, seconds: float, reduced: bool = False) -> dict:
    """Per-layer metrics: traced passes until ``seconds`` have passed
    (medians of the timings; counts must repeat exactly)."""
    check_provenance(kernel_provenance())
    jobs = workloads.jobs(workload, seed, reduced)
    setup = time_setup(3 if not reduced else 1)
    checker = Checker(None if reduced else digests.load_reference(workload, seed))
    scratch = _scratch(workload)
    runs = []
    try:
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            pass_dir = scratch / f"pass-{len(runs)}"
            runs.append(traced_pass(workload, jobs, pass_dir, checker))
            shutil.rmtree(pass_dir, ignore_errors=True)
            # A traced pass is long; start another only if it fits.
            if 2 * time.perf_counter() - started >= deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_provenance(kernel_provenance())
    metrics = {
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.accel_load_s": statistics.median(s["accel_load_s"] for s in setup),
    }
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        if trace_unit(name) == "count" and name != "trace.samples":
            if len(set(values)) != 1:
                checker.fail(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    if metrics["trace.max_share_gap"] > SHARE_GAP_BOUND:
        checker.problems.append(
            f"sampled and span shares differ by {metrics['trace.max_share_gap']:.3f} "
            f"(bound {SHARE_GAP_BOUND})"
        )
    return {
        "workload": workload,
        "seed": seed,
        "jobs": len(jobs),
        "passes": len(runs),
        "checker": checker,
        "runs": runs,
        "metrics": {name: (value, "s" if name.startswith("setup.") else trace_unit(name))
                    for name, value in metrics.items()},
    }


def write_reference(workload: str, seed: int) -> int:
    """Regenerate the committed digests of ``workload`` at ``seed``."""
    jobs = workloads.jobs(workload, seed)
    scratch = _scratch(workload)
    try:
        _, store, error = cold_sweep(jobs, scratch / "reference")
        if error is not None:
            raise BenchmarkError(f"reference sweep raised {error}")
        observed = job_digests(jobs, store)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return digests.write_reference(workload, seed, observed)


__all__ = [
    "BenchmarkError",
    "check_provenance",
    "run_traced",
    "run_untraced",
    "write_reference",
]
