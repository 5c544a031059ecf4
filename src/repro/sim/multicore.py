"""Trace-driven multicore timing simulator.

Executes one ``Trace`` (per-core instruction/reference streams) over the
``ProtocolEngine``.  Cores are in-order single-issue @ 1 GHz (Table 1):
every instruction costs one cycle of compute, memory references additionally
pay the L1 latency on a hit or the decomposed miss latency returned by the
protocol engine.

Scheduling is *min-clock*: the core with the smallest local clock executes
its next record, which guarantees nondecreasing service times at shared
resources (home L2 slices, mesh links, DRAM queues) and a well-defined
coherence order.

Synchronization (the "Synchronization" stack of Figure 9):

* **barriers** block arriving cores until all have arrived; everyone resumes
  at ``max(arrivals) + barrier_latency``;
* **locks** are FIFO: min-clock processing makes heap order equal arrival
  order, so a blocked core parks in the lock queue and is released by the
  unlocking core.

Structure: a scheduler kernel walks the records - the compiled
``SchedKernel`` (:mod:`repro.accel`) or its pure-Python twin
``_PySchedKernel`` - and returns every synchronization record to one
trampoline, ``Simulator._execute``, which applies the rules above for
both.

With ``warmup=True`` the trace is executed twice over the same engine and
only the second execution is measured - the standard warmup/measurement
methodology.  Short synthetic traces are otherwise dominated by the initial
cold-miss burst into DRAM, which belongs to neither protocol.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from functools import partial

from repro import accel
from repro.common import addr as addrmod
from repro.common.errors import SimulationError
from repro.common.params import ArchConfig, EnergyConfig, ProtocolConfig
from repro.common.types import Op
from repro.energy.model import EnergyModel
from repro.obs import TELEMETRY
from repro.protocol.base import AccessResult, ProtocolEngineBase
from repro.protocol.engine import make_engine
from repro.sim.stats import LatencyBreakdown, RunStats
from repro.workloads.base import Trace


class _LockState:
    __slots__ = ("held_by", "queue")

    def __init__(self) -> None:
        self.held_by = -1
        self.queue: deque[tuple[int, float]] = deque()  # (core, arrival time)


class Simulator:
    """Public facade: configure once, ``run`` any number of traces."""

    def __init__(
        self,
        arch: ArchConfig | None = None,
        proto: ProtocolConfig | None = None,
        energy: EnergyConfig | None = None,
        verify: bool = False,
        warmup: bool = False,
    ) -> None:
        self.arch = arch if arch is not None else ArchConfig()
        self.proto = proto if proto is not None else ProtocolConfig()
        self.energy_model = EnergyModel(energy if energy is not None else EnergyConfig())
        self.verify = verify
        self.warmup = warmup
        # Records of the most recent _execute pass retired without an
        # ``access`` call - inline L1 hits plus, on the compiled kernel,
        # native DLS word accesses (telemetry snapshot inputs; not part of
        # RunStats).
        self._fast_read_hits = 0
        self._fast_write_hits = 0
        # The scheduler kernel's retirements and exits by reason for the
        # most recent pass (either kernel; None before the first).
        self._sched_counts: dict[str, int] | None = None

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> RunStats:
        """Simulate ``trace`` to completion and return its statistics.

        The cyclic garbage collector is suspended for the duration of the
        run: the simulator allocates almost exclusively acyclic objects
        (tuples, cache lines, results) that reference counting reclaims
        immediately, so generation-0 sweeps are pure overhead (~10% of the
        hot loop).  The collector is restored to its previous state on
        exit; results are unaffected.
        """
        arch = self.arch
        if trace.num_cores != arch.num_cores:
            raise SimulationError(
                f"trace {trace.name!r} built for {trace.num_cores} cores, "
                f"architecture has {arch.num_cores}"
            )
        engine = make_engine(arch, self.proto, verify=self.verify)
        # Telemetry is per *phase*, never per record: with the sink disabled
        # this is one attribute check per run, and with it enabled the hot
        # loops below are untouched - RunStats stay bit-identical either way
        # (the neutrality property test pins this).
        tel = TELEMETRY if TELEMETRY.enabled else None
        run_span = 0
        if tel is not None:
            run_span = tel.begin(
                "sim.run",
                benchmark=trace.name,
                protocol=self.proto.protocol,
                cores=arch.num_cores,
                records=trace.total_records,
            )
            # Which implementation each kernel actually uses this run
            # (compiled vs pure Python) - the provenance the bench reports
            # and the trend gate rely on (DESIGN.md secs. 12 and 14).
            tel.event(
                "accel.active",
                implementation=engine.network.implementation,
                sched="accel" if accel.sched_kernel_class() is not None else "fallback",
            )
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            clocks = [0.0] * arch.num_cores
            if self.warmup:
                phase = tel.begin("sim.phase.warmup") if tel is not None else 0
                warm_bd = [LatencyBreakdown() for _ in range(arch.num_cores)]
                clocks = self._execute(engine, trace, clocks, warm_bd)
                engine.reset_stats()
                if tel is not None:
                    tel.end(phase)
            measure_start = max(clocks) if clocks else 0.0
            phase = tel.begin("sim.phase.simulate") if tel is not None else 0
            breakdowns = [LatencyBreakdown() for _ in range(arch.num_cores)]
            clocks = self._execute(engine, trace, clocks, breakdowns)
            completion = (max(clocks) if clocks else 0.0) - measure_start
            if tel is not None:
                tel.end(phase)
            if self.verify:
                phase = tel.begin("sim.phase.verify") if tel is not None else 0
                # Beyond the per-access golden checks: no write may be lost
                # even if the trace never re-reads it.
                engine.check_final_state()
                if tel is not None:
                    tel.end(phase)
        finally:
            if gc_was_enabled:
                gc.enable()
            if tel is not None:
                self._emit_run_telemetry(tel, engine)
                tel.end(run_span)
        #: The engine of the most recent run, kept for post-run inspection
        #: (the trace-level differential harness compares golden memories
        #: across protocol families after full simulations).
        self.last_engine = engine
        return self._collect(trace, engine, completion, breakdowns)

    # ------------------------------------------------------------------
    def _emit_run_telemetry(self, tel, engine: ProtocolEngineBase) -> None:
        """Counter snapshot of the measured pass (the internal rates the
        paper's claims rest on: fast-path hits, classification mix, mesh
        slot recycling).  Counters are increments, so concurrent runs in
        one process sum cleanly at render time."""
        miss = engine.miss_stats
        tel.count("sim.l1d.accesses", miss.accesses)
        tel.count("sim.l1d.hits", miss.hits)
        tel.count("sim.fastpath.read_hits", self._fast_read_hits)
        tel.count("sim.fastpath.write_hits", self._fast_write_hits)
        if self._sched_counts is not None:
            for name, value in self._sched_counts.items():
                tel.count(f"sched.{name}", value)
        classifier = engine.classifier
        if classifier is not None:
            tel.count("classifier.promotions", classifier.promotions)
            tel.count("classifier.demotions", classifier.demotions)
            tel.count("classifier.remote_accesses", classifier.remote_accesses)
            tel.count("classifier.vote_decisions", classifier.vote_decisions)
        network = engine.network
        tel.count(f"sim.runs.{network.implementation}")
        tel.count("mesh.messages", network.messages_sent)
        tel.count("mesh.flits", network.flits_sent)
        tel.count("mesh.link_flit_traversals", network.link_flit_traversals)
        tel.count("mesh.slot_recycles", network.slot_recycles)
        tel.count("mesh.overflow_entries", len(network._overflow))
        tel.count("dram.requests", engine.memsys.total_requests)

    # ------------------------------------------------------------------
    def _execute(
        self,
        engine: ProtocolEngineBase,
        trace: Trace,
        start_clocks: list[float],
        breakdowns: list[LatencyBreakdown],
    ) -> list[float]:
        """Run every core through its stream once; return final clocks.

        A scheduler kernel walks the records: the compiled ``SchedKernel``
        when ``accel.sched_kernel_class()`` provides one (DESIGN.md sec.
        14), else its pure-Python twin :class:`_PySchedKernel`
        (``REPRO_NO_ACCEL``/``REPRO_NO_ACCEL_SCHED`` force the twin).
        Either one returns each synchronization record to this trampoline
        before processing it.  The trampoline owns everything
        synchronization-shaped - barrier rendezvous, lock FIFOs,
        ``sync_boundary_hook`` boundaries, deadlock detection - and folds
        the kernel's hit counts and latency rows into the engine and the
        breakdowns, so each of these rules exists once for both kernels.
        """
        arch = self.arch
        num_cores = arch.num_cores
        barrier_latency = arch.barrier_latency
        lock_latency = arch.lock_latency
        #: Release-boundary callback (Neat self-downgrade batching): only
        #: consulted at unlock/barrier/end-of-trace.
        sync_cb = engine.sync_boundary_hook()
        fast = engine.scheduler_fast_path()
        kernel_cls = accel.sched_kernel_class() or _PySchedKernel
        kernel = kernel_cls(
            trace.ops,
            trace.addresses,
            trace.works,
            start_clocks,
            float(arch.l1d.latency),
            engine.access,
            AccessResult,
            fast,
            engine.scheduler_word_path(),
        )
        # Only the compiled kernel mirrors L1 membership (its ``note``
        # hook); the twin probes the engine's own buckets.
        note = getattr(kernel, "note", None)
        stores = fast["stores"] if fast is not None and note is not None else ()
        addr_cols = trace.addresses
        work_cols = trace.works
        op_barrier, op_lock = int(Op.BARRIER), int(Op.LOCK)
        barrier_waiters: dict[int, list[tuple[int, float]]] = {}
        locks: dict[int, _LockState] = {}
        blocked = 0  # cores parked at barriers or lock queues
        run = kernel.run
        wake = kernel.wake
        continue_at = kernel.continue_at
        try:
            for core, store in enumerate(stores):
                store._observer = partial(note, core)
            while True:
                exit_ = run()
                if exit_ is None:
                    break
                op, core, now, i, acc = exit_
                address = addr_cols[core][i]
                work = work_cols[core][i]
                if op == op_barrier:
                    t = now + work
                    if sync_cb is not None:
                        sync_cb(core, t)  # a barrier arrival is a release
                    kernel.advance(core, i + 1, acc + work)
                    waiters = barrier_waiters.setdefault(address, [])
                    waiters.append((core, t))
                    if len(waiters) == num_cores:
                        release = max(at for _, at in waiters) + barrier_latency
                        for wcore, at in waiters:
                            breakdowns[wcore].sync += release - at
                            wake(wcore, release)
                        blocked -= len(waiters) - 1
                        del barrier_waiters[address]
                    else:
                        blocked += 1
                elif op == op_lock:
                    t = now + work
                    acc += work
                    state = locks.setdefault(address, _LockState())
                    if state.held_by < 0:
                        state.held_by = core
                        breakdowns[core].sync += lock_latency
                        t += lock_latency
                        continue_at(core, i + 1, acc, t)
                    else:
                        # Parked; the unlocking core re-queues us.
                        kernel.advance(core, i + 1, acc)
                        state.queue.append((core, t))
                        blocked += 1
                else:  # Op.UNLOCK
                    t = now + work
                    acc += work
                    state = locks.get(address)
                    if state is None or state.held_by != core:
                        raise SimulationError(
                            f"core {core} unlocks lock {address} it does not hold"
                        )
                    t += lock_latency
                    breakdowns[core].sync += lock_latency
                    if sync_cb is not None:
                        sync_cb(core, t)  # flush before the lock hand-off
                    if state.queue:
                        wcore, arrival = state.queue.popleft()
                        state.held_by = wcore
                        breakdowns[wcore].sync += t - arrival
                        blocked -= 1
                        if not wake(wcore, t) and state.queue:
                            raise SimulationError(
                                f"core {wcore} acquired lock {address} at end of "
                                "trace while others wait"
                            )
                    else:
                        state.held_by = -1
                    continue_at(core, i + 1, acc, t)
            if blocked:
                raise SimulationError(
                    f"deadlock: {blocked} cores still blocked at end of trace "
                    f"(barriers awaiting: {sorted(barrier_waiters)})"
                )
            clocks = kernel.clocks()
            if sync_cb is not None:
                # End of the trace is its final release: no buffered store
                # may outlive the execution (the verify-mode final-state
                # sweep and the warmup -> measure transition rely on this).
                for core in range(num_cores):
                    sync_cb(core, clocks[core])
            # finish() also folds the word path's native counters (energy,
            # slice, miss-type and mesh traffic sums) into the engine.
            hits_r, hits_w, rows, native = kernel.finish()
            word_reads, word_writes, access_exits, sync_exits = native
            # The kernels accumulate from zero and the fields below are
            # zero, so each sum lands bit-identically.
            for core in range(num_cores):
                bd = breakdowns[core]
                compute, l1_to_l2, l2_waiting, l2_sharers, l2_offchip = rows[core]
                bd.compute += compute
                bd.l1_to_l2 += l1_to_l2
                bd.l2_waiting += l2_waiting
                bd.l2_sharers += l2_sharers
                bd.l2_offchip += l2_offchip
            reads = 0
            writes = 0
            if fast is not None:
                # Deferred hit counters (plain integer sums, so the fold
                # order does not matter).
                l1s = fast["l1s"]
                for core in range(num_cores):
                    r, w = hits_r[core], hits_w[core]
                    l1s[core].hits += r + w
                    reads += r
                    writes += w
                engine.miss_stats.hits += reads + writes
                engine.energy.l1d_reads += reads
                engine.energy.l1d_writes += writes
            self._fast_read_hits = reads + word_reads
            self._fast_write_hits = writes + word_writes
            self._sched_counts = {
                "retired.l1_hit": reads + writes,
                "retired.l2_word": word_reads + word_writes,
                "exits.access": access_exits,
                "exits.sync": sync_exits,
            }
            return clocks
        finally:
            for store in stores:
                store._observer = None

    # ------------------------------------------------------------------
    def _collect(
        self,
        trace: Trace,
        engine: ProtocolEngineBase,
        completion: float,
        breakdowns: list[LatencyBreakdown],
    ) -> RunStats:
        instructions = trace.instructions
        # Instruction fetches are modeled analytically (DESIGN.md decision 3): the
        # in-order core already pays 1 cycle/instruction and R-NUCA's
        # cluster replication keeps the instruction stream resident in L1-I,
        # so L1-I contributes energy proportional to instruction count.
        engine.energy.l1i_reads += instructions

        total = LatencyBreakdown()
        for bd in breakdowns:
            total.add(bd)
        average = total.scaled(1.0 / max(1, len(breakdowns)))

        stats = RunStats(
            benchmark=trace.name,
            num_cores=self.arch.num_cores,
            completion_time=completion,
            instructions=instructions,
            latency=average,
            miss=engine.miss_stats,
            energy=self.energy_model.breakdown(engine.energy, engine.network),
            inval_histogram=engine.inval_histogram,
            evict_histogram=engine.evict_histogram,
            broadcast_invalidations=engine.sharer_policy.broadcast_invalidations,
            unicast_invalidations=engine.sharer_policy.unicast_invalidations,
            dram_requests=engine.memsys.total_requests,
            network_flits=engine.network.flits_sent,
        )
        classifier = engine.classifier
        if classifier is not None:
            stats.promotions = classifier.promotions
            stats.demotions = classifier.demotions
            stats.remote_accesses = classifier.remote_accesses
        stats.l2_hits = sum(s.hits for s in engine.l2)
        stats.l2_misses = sum(s.misses for s in engine.l2)
        engine.export_stats(stats)
        return stats


class _PySchedKernel:
    """The pure-Python record walk, a twin of the compiled ``SchedKernel``.

    Same constructor and methods, so :meth:`Simulator._execute` drives
    either one: ``run()`` returns ``(op, core, now, i, acc)`` for a
    synchronization record, *before* processing it, or ``None`` once
    every runnable core is drained; ``advance``/``continue_at``/``wake``
    re-enter; ``clocks`` and ``finish`` close the pass.  ``run`` resumes a
    generator, so the walk's hoisted locals survive those exits.

    This is the ungated reference the compiled walk is checked against.
    It ignores the ``word`` descriptor (a native-only shape) and, since it
    probes the engine's own L1 buckets, needs no membership observer.
    """

    __slots__ = (
        "_lengths", "_indices", "_clocks", "_compute", "_latency",
        "_hits_r", "_hits_w", "_ready", "_resume", "_exits", "_walk",
    )

    def __init__(
        self, ops_cols, addr_cols, work_cols, start_clocks, l1_hit_latency,
        access, result_type, fast, word,
    ) -> None:
        num_cores = len(ops_cols)
        self._lengths = [len(col) for col in ops_cols]
        self._indices = [0] * num_cores
        self._clocks = list(start_clocks)
        #: Per-core compute cycles and miss-latency components, summed
        #: from zero in record order (finish() hands them over).
        self._compute = [0.0] * num_cores
        self._latency = [LatencyBreakdown() for _ in range(num_cores)]
        self._hits_r = [0] * num_cores
        self._hits_w = [0] * num_cores
        self._ready = [
            (self._clocks[core], core) for core in range(num_cores) if self._lengths[core]
        ]
        heapq.heapify(self._ready)
        self._resume: tuple[int, float, float] | None = None
        self._walk = self._records(ops_cols, addr_cols, work_cols, l1_hit_latency, access, fast)

    def run(self):
        return next(self._walk, None)

    def advance(self, core: int, i: int, acc: float) -> None:
        """Store the core's cursor and compute; the core stays parked."""
        self._indices[core] = i
        self._compute[core] = acc

    def continue_at(self, core: int, i: int, acc: float, t: float) -> None:
        """Resume the exited core at record ``i`` and clock ``t``."""
        self._resume = (i, acc, t)

    def wake(self, core: int, t: float) -> bool:
        """Set the core's clock; re-queue it when records remain."""
        self._clocks[core] = t
        if self._indices[core] < self._lengths[core]:
            heapq.heappush(self._ready, (t, core))
            return True
        return False

    def clocks(self) -> list[float]:
        return self._clocks

    def finish(self):
        rows = [
            (acc, bd.l1_to_l2, bd.l2_waiting, bd.l2_sharers, bd.l2_offchip)
            for acc, bd in zip(self._compute, self._latency)
        ]
        return self._hits_r, self._hits_w, rows, (0, 0, *self._exits)

    def _records(self, ops_cols, addr_cols, work_cols, l1_hit_latency, access, fast):
        """The walk itself; yields at each synchronization record.

        The simulator's hottest Python loop.  It walks the columnar IR
        (one cursor per core) instead of unpacking record tuples, and it
        schedules with one ``heappushpop`` per core switch - none while
        the executing core remains the min-clock choice.  ``(t, core)``
        tuple order is the heap order, so the schedule is the exact
        min-clock one.
        """
        # Materialized list views of the columnar IR: indexing an
        # ``array('q')`` boxes a fresh int object per read, while a list
        # returns the already-boxed object.  One bulk conversion per
        # execution buys back three boxings per record in the loop below.
        ops_cols = [list(col) for col in ops_cols]
        addr_cols = [list(col) for col in addr_cols]
        work_cols = [list(col) for col in work_cols]
        lengths = self._lengths
        indices = self._indices
        clocks = self._clocks
        compute = self._compute
        latency = self._latency
        hits_r = self._hits_r
        hits_w = self._hits_w
        ready = self._ready
        heappop, heappushpop = heapq.heappop, heapq.heappushpop
        num_cores = len(ops_cols)

        # Inline L1-hit fast path (see ProtocolEngineBase.scheduler_fast_path):
        # families with bookkeeping-only hits let the scheduler service them
        # without an ``access`` call.  Hoisted to locals once per execution.
        if fast is not None:
            f_buckets = fast["buckets"]
            f_set_bits = fast["set_bits"]
            f_stores = fast["stores"]
            f_mask = fast["set_mask"]
            f_exclusive = fast["exclusive"]
            f_modified = fast["modified"]
            f_versions = fast["versions"]
            if f_versions is not None:
                # Neat's read-hit gate; no write is serviced inline.
                f_copy_versions, f_line_versions = f_versions
        else:
            # No inline hit path: probe permanently-empty surrogate buckets
            # (the engine fills its own L1 structures, never these), so the
            # record loop needs no per-record "is there a fast path?" check
            # - every probe misses and every access takes the full path.
            f_buckets = [{}] * num_cores
            f_set_bits = 0
            f_stores = None
            f_mask = 0
            f_exclusive = f_modified = f_versions = None
        line_bits = addrmod.LINE_BITS
        op_read, op_write, op_work = int(Op.READ), int(Op.WRITE), int(Op.WORK)
        access_exits = sync_exits = 0

        if ready:
            now, core = heappop(ready)
        else:
            core = -1
        while core >= 0:
            ops = ops_cols[core]
            addresses = addr_cols[core]
            works = work_cols[core]
            n = lengths[core]
            i = indices[core]
            bd = latency[core]
            acc = compute[core]
            core_sets = core << f_set_bits
            while True:
                op = ops[i]
                work = works[i]

                if op == op_read:
                    work += l1_hit_latency
                    acc += work
                    t = now + work
                    address = addresses[i]
                    i += 1
                    line = address >> line_bits
                    entry = f_buckets[core_sets | (line & f_mask)].get(line)
                    if entry is not None and (
                        f_versions is None
                        or f_copy_versions[core].get(line) == f_line_versions.get(line, 0)
                    ):
                        # Inline L1 read hit: exactly the bookkeeping the
                        # engine's access() hit branch performs (the
                        # hit/energy counters are deferred to finish()).
                        store = f_stores[core]
                        counter = store._use_counter + 1
                        store._use_counter = counter
                        entry.last_use = counter
                        entry.utilization += 1
                        entry.last_access = t
                        hits_r[core] += 1
                    else:
                        access_exits += 1
                        result = access(core, False, address, t)
                        if not result.hit:
                            bd.l1_to_l2 += result.l1_to_l2
                            bd.l2_waiting += result.l2_waiting
                            bd.l2_sharers += result.l2_sharers
                            bd.l2_offchip += result.l2_offchip
                            t += result.latency
                elif op == op_write:
                    work += l1_hit_latency
                    acc += work
                    t = now + work
                    address = addresses[i]
                    i += 1
                    line = address >> line_bits
                    entry = f_buckets[core_sets | (line & f_mask)].get(line)
                    if entry is not None and f_versions is None and entry.state >= f_exclusive:
                        # Inline L1 write hit (the silent E -> M upgrade).
                        store = f_stores[core]
                        counter = store._use_counter + 1
                        store._use_counter = counter
                        entry.last_use = counter
                        entry.utilization += 1
                        entry.last_access = t
                        entry.state = f_modified
                        hits_w[core] += 1
                    else:
                        access_exits += 1
                        result = access(core, True, address, t)
                        if not result.hit:
                            bd.l1_to_l2 += result.l1_to_l2
                            bd.l2_waiting += result.l2_waiting
                            bd.l2_sharers += result.l2_sharers
                            bd.l2_offchip += result.l2_offchip
                            t += result.latency
                elif op == op_work:
                    t = now + work
                    i += 1
                    acc += work
                else:
                    # Synchronization record: hand it over unprocessed (the
                    # cursor still points at it).  The trampoline answers
                    # with advance (parked) or continue_at (resume at t).
                    sync_exits += 1
                    yield op, core, now, i, acc
                    resume = self._resume
                    if resume is None:
                        if ready:
                            now, core = heappop(ready)
                        else:
                            core = -1
                        break
                    self._resume = None
                    i, acc, t = resume

                if i < n:
                    if ready:
                        # Keep-running pre-check against the heap root: the
                        # same (t, core) tuple order heappushpop applies,
                        # without allocating the entry or sifting when this
                        # core remains the min-clock choice.
                        r0 = ready[0]
                        rt = r0[0]
                        if t < rt or (t == rt and core < r0[1]):
                            now = t  # still the min-clock core: keep going
                            continue
                        indices[core] = i
                        clocks[core] = t
                        compute[core] = acc
                        now, core = heappushpop(ready, (t, core))
                    else:
                        now = t  # only runnable core left
                        continue
                else:
                    indices[core] = i
                    clocks[core] = t
                    compute[core] = acc
                    if ready:
                        now, core = heappop(ready)
                    else:
                        core = -1
                break
        self._exits = (access_exits, sync_exits)
