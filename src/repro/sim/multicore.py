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
        # The compiled kernel's retirements and exits by reason for the
        # most recent pass; None after a pure-Python pass.
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

        This is the simulator's hottest loop.  It walks the trace's
        columnar IR directly (one ``array('q')`` triple per core, a cursor
        each) instead of unpacking record tuples, and it schedules with a
        single ``heappushpop`` per record - one sift instead of the
        pop-then-push pair of the record-at-a-time interpreter.  When the
        executing core remains the min-clock choice, ``heappushpop``
        returns its own entry untouched and the core keeps running without
        any heap movement.  All transformations preserve the exact
        min-clock schedule - ``(t, core)`` tuple order is the heap order -
        so the produced statistics are bit-identical to the interpreter
        this replaces.

        With the compiled scheduler kernel available (accelerator phase 2,
        DESIGN.md sec. 14) the walk below runs natively instead, exiting
        to :meth:`_execute_kernel`'s trampoline only on synchronization
        records; this pure-Python loop stays the ungated, bit-identical
        reference (``REPRO_NO_ACCEL``/``REPRO_NO_ACCEL_SCHED`` force it).
        """
        kernel_cls = accel.sched_kernel_class()
        if kernel_cls is not None:
            return self._execute_kernel(
                kernel_cls, engine, trace, start_clocks, breakdowns
            )
        arch = self.arch
        num_cores = arch.num_cores
        # Materialized list views of the columnar IR: indexing an
        # ``array('q')`` boxes a fresh int object per read, while a list
        # returns the already-boxed object.  One bulk conversion per
        # execution buys back three boxings per record in the loop below.
        ops_cols = [list(col) for col in trace.ops]
        addr_cols = [list(col) for col in trace.addresses]
        work_cols = [list(col) for col in trace.works]
        lengths = [len(col) for col in ops_cols]
        indices = [0] * num_cores
        clocks = list(start_clocks)
        l1_hit_latency = float(arch.l1d.latency)
        barrier_latency = arch.barrier_latency
        lock_latency = arch.lock_latency
        access = engine.access
        #: Release-boundary callback (Neat self-downgrade batching): only
        #: consulted at unlock/barrier/end-of-trace, so families without
        #: one (the default None) add a single is-not-None test to those
        #: rare opcodes and nothing to the record loop.
        sync_cb = engine.sync_boundary_hook()
        heappush, heappop = heapq.heappush, heapq.heappop
        heappushpop = heapq.heappushpop

        # Inline L1-hit fast path (see ProtocolEngineBase.scheduler_fast_path):
        # families with bookkeeping-only hits let the scheduler service them
        # without an ``access`` call.  Hoisted to locals once per execution.
        fast = engine.scheduler_fast_path()
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
        #: Deferred hit counters, flushed into the engine's aggregate
        #: counters (plain integer sums - order-independent) at the end
        #: of this execution, keeping the per-hit work to list updates.
        hits_r = [0] * num_cores
        hits_w = [0] * num_cores
        line_bits = addrmod.LINE_BITS

        ready: list[tuple[float, int]] = [
            (clocks[core], core) for core in range(num_cores) if lengths[core]
        ]
        heapq.heapify(ready)
        blocked = 0  # cores parked at barriers or lock queues

        #: Per-core compute-cycle accumulator, flushed into the breakdowns
        #: at the end: a local float add per record instead of an attribute
        #: round-trip.  Addition order per core is unchanged, and the final
        #: flush adds to a zero field, so the result is bit-identical.
        compute = [0.0] * num_cores

        barrier_waiters: dict[int, list[tuple[int, float]]] = {}
        locks: dict[int, _LockState] = {}

        op_read, op_write = int(Op.READ), int(Op.WRITE)
        op_barrier, op_lock, op_unlock = int(Op.BARRIER), int(Op.LOCK), int(Op.UNLOCK)

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
            bd = breakdowns[core]
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
                        # hit/energy counters are deferred, see above).
                        store = f_stores[core]
                        counter = store._use_counter + 1
                        store._use_counter = counter
                        entry.last_use = counter
                        entry.utilization += 1
                        entry.last_access = t
                        hits_r[core] += 1
                    else:
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
                        result = access(core, True, address, t)
                        if not result.hit:
                            bd.l1_to_l2 += result.l1_to_l2
                            bd.l2_waiting += result.l2_waiting
                            bd.l2_sharers += result.l2_sharers
                            bd.l2_offchip += result.l2_offchip
                            t += result.latency
                elif op == op_barrier:
                    t = now + work
                    i += 1
                    if sync_cb is not None:
                        sync_cb(core, t)  # a barrier arrival is a release
                    indices[core] = i  # release below may re-queue this core
                    compute[core] = acc + work
                    address = addresses[i - 1]
                    waiters = barrier_waiters.setdefault(address, [])
                    waiters.append((core, t))
                    if len(waiters) == num_cores:
                        release = max(at for _, at in waiters) + barrier_latency
                        for wcore, at in waiters:
                            breakdowns[wcore].sync += release - at
                            clocks[wcore] = release
                            if indices[wcore] < lengths[wcore]:
                                heappush(ready, (release, wcore))
                        blocked -= len(waiters) - 1
                        del barrier_waiters[address]
                    else:
                        blocked += 1
                    # This core's clock is set by the release; move on.
                    if ready:
                        now, core = heappop(ready)
                    else:
                        core = -1
                    break
                elif op == op_lock:
                    t = now + work
                    i += 1
                    acc += work
                    state = locks.setdefault(addresses[i - 1], _LockState())
                    if state.held_by < 0:
                        state.held_by = core
                        bd.sync += lock_latency
                        t += lock_latency
                    else:
                        indices[core] = i
                        compute[core] = acc
                        state.queue.append((core, t))
                        blocked += 1
                        # Parked; the unlocking core re-queues us.
                        if ready:
                            now, core = heappop(ready)
                        else:
                            core = -1
                        break
                elif op == op_unlock:
                    t = now + work
                    i += 1
                    indices[core] = i
                    acc += work
                    address = addresses[i - 1]
                    state = locks.get(address)
                    if state is None or state.held_by != core:
                        raise SimulationError(
                            f"core {core} unlocks lock {address} it does not hold"
                        )
                    t += lock_latency
                    bd.sync += lock_latency
                    if sync_cb is not None:
                        sync_cb(core, t)  # flush before the lock hand-off
                    if state.queue:
                        wcore, arrival = state.queue.popleft()
                        state.held_by = wcore
                        breakdowns[wcore].sync += t - arrival
                        clocks[wcore] = t
                        blocked -= 1
                        if indices[wcore] < lengths[wcore]:
                            heappush(ready, (t, wcore))
                        elif state.queue:
                            raise SimulationError(
                                f"core {wcore} acquired lock {address} at end of trace "
                                "while others wait"
                            )
                    else:
                        state.held_by = -1
                else:  # Op.WORK
                    t = now + work
                    i += 1
                    acc += work

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

        if blocked:
            raise SimulationError(
                f"deadlock: {blocked} cores still blocked at end of trace "
                f"(barriers awaiting: {sorted(barrier_waiters)})"
            )
        if sync_cb is not None:
            # End of the trace is its final release: no buffered store may
            # outlive the execution (the verify-mode final-state sweep and
            # the warmup -> measure transition both rely on this).
            for core in range(num_cores):
                sync_cb(core, clocks[core])
        for core in range(num_cores):
            breakdowns[core].compute += compute[core]
        reads = 0
        writes = 0
        if fast is not None:
            l1s = fast["l1s"]
            for core in range(num_cores):
                r, w = hits_r[core], hits_w[core]
                l1s[core].hits += r + w
                reads += r
                writes += w
            engine.miss_stats.hits += reads + writes
            engine.energy.l1d_reads += reads
            engine.energy.l1d_writes += writes
        # Scheduler fast-path hit counts of the most recent execution, read
        # by the telemetry snapshot (two attribute stores; no stats impact).
        self._fast_read_hits = reads
        self._fast_write_hits = writes
        self._sched_counts = None
        return clocks

    # ------------------------------------------------------------------
    def _execute_kernel(
        self,
        kernel_cls,
        engine: ProtocolEngineBase,
        trace: Trace,
        start_clocks: list[float],
        breakdowns: list[LatencyBreakdown],
    ) -> list[float]:
        """One execution pass on the compiled scheduler kernel.

        The kernel owns cursors, heap, compute accumulators, the inline
        L1-hit path and the native DLS word path over the raw
        ``array('q')`` columns; this trampoline
        owns everything synchronization-shaped - barrier rendezvous, lock
        FIFOs, ``sync_boundary_hook`` boundaries, deadlock detection - at
        one FFI crossing per sync record.  Every arithmetic step below is
        the corresponding ``_execute`` branch verbatim, so the produced
        statistics stay bit-identical to the pure-Python loop.
        """
        arch = self.arch
        num_cores = arch.num_cores
        barrier_latency = arch.barrier_latency
        lock_latency = arch.lock_latency
        sync_cb = engine.sync_boundary_hook()
        fast = engine.scheduler_fast_path()
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
        stores = fast["stores"] if fast is not None else ()
        addr_cols = trace.addresses
        work_cols = trace.works
        op_barrier, op_lock = int(Op.BARRIER), int(Op.LOCK)
        barrier_waiters: dict[int, list[tuple[int, float]]] = {}
        locks: dict[int, _LockState] = {}
        blocked = 0
        run = kernel.run
        wake = kernel.wake
        continue_at = kernel.continue_at
        try:
            note = kernel.note
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
                for core in range(num_cores):
                    sync_cb(core, clocks[core])
            # finish() also folds the word path's native counters (energy,
            # slice, miss-type and mesh traffic sums) into the engine.
            hits_r, hits_w, rows, native = kernel.finish()
            word_reads, word_writes, access_exits, sync_exits = native
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
