"""Native scheduler shapes against the pure-Python reference, verify off.

The compiled scheduler kernel retires two shapes without an ``access`` call
(DESIGN.md section 14, "Native shapes"): Neat's version-gated L1 read hit
and the DLS resident word access.  Both are disabled under verification,
so the golden differential, the exhaustive tier and the chaos matrix never
see them.  This module is their oracle: random traces on tiny geometries
(1-2-way caches, small pages that force private -> shared transitions,
L2 evictions) run with every kernel off (``REPRO_NO_ACCEL=1``) and under
each of the three compiled combinations, and everything observable must
match bit for bit - ``RunStats``, mesh traffic counters, every resident
L1/L2 line's LRU and timing fields, the LRU counters, the history flags
and the per-family side tables.

The seeded cases follow ``REPRO_DIFF_SEEDS`` (CI pins ``7,19``); the
hypothesis property explores further traces.

The leak check runs the DLS and Neat radix points repeatedly in one
process: the word path creates line/page integers and writes the history
dict on every record, so a missed decref would show as growth.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import build
from repro.common.params import ArchConfig, CacheGeometry, dls_protocol, neat_protocol
from repro.protocol.engine import make_engine
from repro.rnuca.page_table import PageKind
from repro.sim.multicore import Simulator
from repro.sim.stats import LatencyBreakdown
from repro.workloads.base import TraceBuilder
from repro.workloads.registry import load_workload

pytestmark = pytest.mark.skipif(
    build.find_compiler() is None, reason="no C compiler on this host"
)

PROTOCOLS = {
    "dls": dls_protocol(),
    "neat-eager": neat_protocol("eager"),
    "neat-release": neat_protocol("release"),
}

#: Kernel-disabling variables per combination; the reference disables all.
REFERENCE = {build.NO_ACCEL_ENV: "1"}
COMBOS = {
    "mesh+sched": {},
    "sched-only": {accel.NO_ACCEL_MESH_ENV: "1"},
    "mesh-only": {accel.NO_ACCEL_SCHED_ENV: "1"},
}
_ENVS = (build.NO_ACCEL_ENV, accel.NO_ACCEL_MESH_ENV, accel.NO_ACCEL_SCHED_ENV)

BASE = 1 << 30
LINE = 64
WORD = 8


def _seed_set() -> list[int]:
    """``REPRO_DIFF_SEEDS`` (the differential suite's seed variable) or
    the default four; a set value naming no seed fails loudly."""
    raw = os.environ.get("REPRO_DIFF_SEEDS")
    if raw is None:
        return [0, 1, 2, 3]
    seeds = [int(part) for part in raw.split(",") if part.strip()]
    if not seeds:
        raise ValueError(f"REPRO_DIFF_SEEDS is set but names no seeds: {raw!r}")
    return seeds


@contextlib.contextmanager
def kernel_env(disabled: dict[str, str]):
    saved = {name: os.environ.pop(name, None) for name in _ENVS}
    os.environ.update(disabled)
    try:
        yield
    finally:
        for name in _ENVS:
            os.environ.pop(name, None)
            if saved[name] is not None:
                os.environ[name] = saved[name]


def build_scenario(rng: random.Random):
    """A tiny architecture and a random barrier-phased, lock-bearing trace.

    Addresses mix a write-shared hot pool, a read-mostly shared region and
    per-core private strides; pages of one or a few lines make first-touch
    private pages turn shared mid-trace, and 1-2-way caches evict.
    """
    num_cores = rng.choice((4, 9, 16))
    arch = ArchConfig(
        num_cores=num_cores,
        num_memory_controllers=2,
        instruction_cluster_size=1 if num_cores == 9 else 4,
        page_size=rng.choice((64, 128, 256)),
        l1d=CacheGeometry(1, rng.choice((1, 2)), 1),
        l2=CacheGeometry(1, rng.choice((1, 2)), rng.choice((1, 7))),
    )
    num_lines = rng.randint(8, 96)
    hot = [rng.randrange(num_lines) for _ in range(3)]

    def address(core: int) -> tuple[int, bool]:
        roll = rng.random()
        if roll < 0.3:
            line, is_write = rng.choice(hot), rng.random() < 0.5
        elif roll < 0.7:
            line, is_write = rng.randrange(num_lines), rng.random() < 0.15
        else:
            line, is_write = num_lines + core * 40 + rng.randrange(24), rng.random() < 0.4
        return BASE + line * LINE + rng.randrange(LINE // WORD) * WORD, is_write

    def access(thread, core: int) -> None:
        if rng.random() < 0.3:
            thread.work(rng.randint(1, 5))
        addr, is_write = address(core)
        (thread.write if is_write else thread.read)(addr)

    builder = TraceBuilder("native-shapes", num_cores)
    for phase in range(rng.randint(1, 3)):
        if phase:
            builder.barrier_all()
        for core in range(num_cores):
            thread = builder.thread(core)
            for _ in range(rng.randint(0, 40)):
                if rng.random() < 0.08:
                    lock_id = rng.choice((1, 2))
                    thread.lock(lock_id)
                    for _ in range(rng.randint(1, 4)):
                        access(thread, core)
                    thread.unlock(lock_id)
                else:
                    access(thread, core)
    return arch, builder.build(), rng.random() < 0.5


def _lines(store, *fields) -> list:
    rows = sorted(
        (line, *(getattr(entry, name) for name in fields)) for line, entry in store.lines()
    )
    return [store._use_counter, rows]


def snapshot(arch, proto, trace, warmup: bool) -> dict:
    """Everything the native shapes write, after one full run."""
    sim = Simulator(arch, proto, warmup=warmup)
    stats = sim.run(trace)
    engine = sim.last_engine
    net = engine.network
    out = {
        "stats": stats.to_dict(),
        "traffic": (net.messages_sent, net.flits_sent, net.link_flit_traversals),
        "l2": [
            _lines(s.store, "last_use", "last_access", "busy_until", "dirty", "dirty_words")
            for s in engine.l2
        ],
        "l1": [
            _lines(l1.store, "state", "last_use", "last_access", "utilization")
            for l1 in engine.l1d
        ],
        "history": engine._history,
        "pages": engine.placement.page_table._pages,
    }
    if proto.protocol == "neat":
        out["versions"] = (engine._copy_version, engine._line_version, engine._pending)
    return out


def assert_native_equals_reference(arch, trace, warmup: bool) -> None:
    for name, proto in PROTOCOLS.items():
        with kernel_env(REFERENCE):
            reference = snapshot(arch, proto, trace, warmup)
        for combo, disabled in COMBOS.items():
            with kernel_env(disabled):
                got = snapshot(arch, proto, trace, warmup)
            for key in reference:
                assert got[key] == reference[key], f"{name} under {combo}: {key} diverges"


@pytest.mark.parametrize("seed", _seed_set())
def test_seeded_traces_match_reference(seed):
    arch, trace, warmup = build_scenario(random.Random(seed))
    assert_native_equals_reference(arch, trace, warmup)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_traces_match_reference(seed):
    """A failing seed reproduces as ``build_scenario(random.Random(seed))``."""
    arch, trace, warmup = build_scenario(random.Random(seed))
    assert_native_equals_reference(arch, trace, warmup)


class TestShapesEngage:
    """The equivalence above is vacuous unless the shapes actually run."""

    ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)

    def _run(self, proto):
        trace = load_workload("radix", self.ARCH, scale="tiny")
        with kernel_env({}):
            sim = Simulator(self.ARCH, proto, warmup=True)
            sim.run(trace)
        return sim

    def test_dls_word_path_retires_most_records(self):
        sim = self._run(dls_protocol())
        counts = sim._sched_counts
        assert counts["retired.l1_hit"] == 0
        assert counts["retired.l2_word"] > 10 * counts["exits.access"]
        assert sim._fast_read_hits + sim._fast_write_hits == counts["retired.l2_word"]

    @pytest.mark.parametrize("mode", ["eager", "release"])
    def test_neat_gate_retires_reads_only(self, mode):
        sim = self._run(neat_protocol(mode))
        counts = sim._sched_counts
        assert counts["retired.l1_hit"] > 0
        assert counts["retired.l2_word"] == 0
        assert sim._fast_write_hits == 0

    def test_verify_runs_take_neither_shape(self):
        trace = load_workload("radix", self.ARCH, scale="tiny")
        for proto in (dls_protocol(), neat_protocol()):
            with kernel_env({}):
                sim = Simulator(self.ARCH, proto, warmup=True, verify=True)
                sim.run(trace)
            assert sim._sched_counts["retired.l1_hit"] == 0
            assert sim._sched_counts["retired.l2_word"] == 0


class TestNoLeaks:
    ARCH = ArchConfig(num_cores=16, num_memory_controllers=4)

    @pytest.mark.parametrize("proto", [dls_protocol(), neat_protocol()], ids=["dls", "neat"])
    def test_repeated_runs_stay_flat(self, proto):
        """Five full runs in one process: traced memory and the number of
        gc-tracked objects must not grow from run to run."""
        trace = load_workload("radix", self.ARCH, scale="tiny")
        memory, objects = [], []
        with kernel_env({}):
            tracemalloc.start()
            try:
                for _ in range(5):
                    Simulator(self.ARCH, proto, warmup=True).run(trace)
                    gc.collect()
                    memory.append(tracemalloc.get_traced_memory()[0])
                    objects.append(len(gc.get_objects()))
            finally:
                tracemalloc.stop()
        # The first run warms interpreter-level caches; after it, a leak
        # of one object per record (thousands per run) would dwarf the
        # slack allowed here.
        assert max(memory[1:]) - memory[1] < 64 * 1024, memory
        assert max(objects[1:]) - objects[1] < 100, objects

    @pytest.mark.parametrize("proto", [dls_protocol(), neat_protocol()], ids=["dls", "neat"])
    def test_refcounts_flat_across_passes(self, proto):
        """Repeated kernel passes over one engine leave the refcounts of
        the structures the shapes read and write unchanged."""
        trace = load_workload("radix", self.ARCH, scale="tiny")
        with kernel_env({}):
            sim = Simulator(self.ARCH, proto, warmup=False)
            engine = make_engine(self.ARCH, proto)
            clocks = [0.0] * self.ARCH.num_cores

            def one_pass():
                nonlocal clocks
                breakdowns = [LatencyBreakdown() for _ in range(self.ARCH.num_cores)]
                clocks = sim._execute(engine, trace, clocks, breakdowns)

            one_pass()
            history = engine._history[0]
            page, entry = next(
                (p, e) for p, e in engine.placement.page_table._pages.items()
                if e[0] is PageKind.SHARED
            )
            l2line = next(e for s in engine.l2 for _line, e in s.store.lines())
            watched = (history, entry, l2line, engine.network._kernel)
            before = [sys.getrefcount(obj) for obj in watched]
            for _ in range(4):
                one_pass()
                assert engine.placement.page_table._pages[page] is entry
                assert [sys.getrefcount(obj) for obj in watched] == before
        assert sim._sched_counts["exits.sync"] > 0
