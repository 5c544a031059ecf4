"""Columnar-IR migration properties: the refactor must be invisible.

``tests/fixtures/runstats_pr3.json`` was generated at the last pre-columnar
revision (tuple-of-records traces, record-at-a-time interpreter) for three
workloads x five protocol families at fixed seeds;
``tests/fixtures/runstats_phase.json`` adds the sixth family (``phase``)
and ``tests/fixtures/runstats_neat_release.json`` Neat's release-boundary
downgrade mode, over the same arch, workloads and scale.  These tests assert the columnar
pipeline reproduces those fixtures **bit-identically** - scalar trace
summaries and complete ``RunStats`` payloads - plus the tracefile v1 -> v2
story: v2 round-trips, v1 files remain loadable, and both decode to equal
traces.
"""

from __future__ import annotations

import io
import json
import pathlib
import pickle
import struct

import pytest

from repro.common.params import ArchConfig, ProtocolConfig
from repro.common.types import Op
from repro.sim.multicore import Simulator
from repro.workloads import tracefile
from repro.workloads.base import Trace, TraceBuilder
from repro.workloads.registry import load_workload

FIXTURE_DIR = pathlib.Path(__file__).parent.parent / "fixtures"
#: Bit-identity fixtures sharing one arch: the five pre-phase families,
#: the phase family, and Neat in release-boundary downgrade mode.
FIXTURES = (
    FIXTURE_DIR / "runstats_pr3.json",
    FIXTURE_DIR / "runstats_phase.json",
    FIXTURE_DIR / "runstats_neat_release.json",
)

#: The four accelerator combinations (mesh x sched, each on/off).  Every
#: combo must reproduce the fixtures bit-identically, whichever combo
#: generated them; on hosts without a C compiler all four collapse
#: to the pure-Python fallback and still must pass.
KERNEL_COMBOS = {
    "mesh+sched": (),
    "sched-only": ("REPRO_NO_ACCEL_MESH",),
    "mesh-only": ("REPRO_NO_ACCEL_SCHED",),
    "fallback": ("REPRO_NO_ACCEL_MESH", "REPRO_NO_ACCEL_SCHED"),
}


@pytest.fixture(params=sorted(KERNEL_COMBOS), ids=sorted(KERNEL_COMBOS))
def kernel_combo(request, monkeypatch):
    for env in ("REPRO_NO_ACCEL_MESH", "REPRO_NO_ACCEL_SCHED"):
        monkeypatch.delenv(env, raising=False)
    for env in KERNEL_COMBOS[request.param]:
        monkeypatch.setenv(env, "1")
    return request.param


@pytest.fixture(scope="module")
def fixture_data():
    files = [json.loads(path.read_text()) for path in FIXTURES]
    arch = files[0]["arch"]
    assert all(data["arch"] == arch for data in files)
    return {"arch": arch, "entries": [entry for data in files for entry in data["entries"]]}


@pytest.fixture(scope="module")
def fixture_traces(fixture_data):
    arch = ArchConfig.from_dict(fixture_data["arch"])
    traces = {}
    for entry in fixture_data["entries"]:
        key = (entry["workload"], entry["scale"])
        if key not in traces:
            traces[key] = load_workload(entry["workload"], arch, scale=entry["scale"])
    return arch, traces


class TestTraceSummariesMatchSeedRevision:
    def test_scalar_summaries_bit_identical(self, fixture_data, fixture_traces):
        _arch, traces = fixture_traces
        seen = set()
        for entry in fixture_data["entries"]:
            key = (entry["workload"], entry["scale"])
            if key in seen:
                continue
            seen.add(key)
            trace = traces[key]
            expected = entry["trace"]
            assert trace.total_records == expected["total_records"]
            assert trace.memory_accesses == expected["memory_accesses"]
            assert trace.instructions == expected["instructions"]
            assert trace.footprint_lines() == expected["footprint_lines"]

    def test_summaries_match_reference_tuple_computation(self, fixture_traces):
        """The cached one-pass summaries equal the old per-record formulas."""
        _arch, traces = fixture_traces
        for trace in traces.values():
            records = [r for stream in trace.per_core for r in stream]
            assert trace.total_records == len(records)
            assert trace.memory_accesses == sum(
                1 for op, _a, _w in records if op in (Op.READ, Op.WRITE)
            )
            assert trace.instructions == sum(
                work + (1 if op != Op.WORK else 0) for op, _a, work in records
            )
            assert trace.footprint_lines() == len(
                {a >> 6 for op, a, _w in records if op in (Op.READ, Op.WRITE)}
            )


class TestRunStatsMatchSeedRevision:
    def test_all_families_bit_identical(
        self, fixture_data, fixture_traces, kernel_combo
    ):
        """Every fixture entry: columnar RunStats == pre-refactor RunStats,
        under every accelerator combination."""
        arch, traces = fixture_traces
        for entry in fixture_data["entries"]:
            trace = traces[(entry["workload"], entry["scale"])]
            proto = ProtocolConfig.from_dict(entry["proto"])
            stats = Simulator(arch, proto, warmup=entry["warmup"]).run(trace)
            got = json.loads(json.dumps(stats.to_dict(), sort_keys=True))
            # Counters born after the fixture was generated (e.g. the phase
            # family's, PR 7) cannot appear in it; for these pre-phase
            # families they must be exactly zero - anything else is a
            # behavior change the fixture should have caught.
            new_keys = got.keys() - entry["stats"].keys()
            assert all(not got[key] for key in new_keys), (
                f"post-fixture counters nonzero: "
                f"{ {k: got[k] for k in new_keys if got[k]} } "
                f"({entry['workload']} {entry['family']})"
            )
            comparable = {k: v for k, v in got.items() if k in entry["stats"]}
            assert comparable == entry["stats"], (
                f"RunStats divergence: {entry['workload']} {entry['family']} "
                f"warmup={entry['warmup']}"
            )


def small_trace() -> Trace:
    builder = TraceBuilder("ir", num_cores=2)
    base = builder.address_space.alloc("region", 4096)
    t0, t1 = builder.thread(0), builder.thread(1)
    t0.work(3)
    t0.read(base)
    t0.write(base + 64)
    t1.read_words(base + 128, 4)
    builder.barrier_all()
    t0.lock(5)
    t0.write(base)
    t0.unlock(5)
    t1.work(9)
    return builder.build()


class TestColumnarRepresentation:
    def test_columns_are_int64_arrays(self):
        trace = small_trace()
        for tid in range(trace.num_cores):
            assert trace.ops[tid].typecode == "q"
            assert trace.addresses[tid].typecode == "q"
            assert trace.works[tid].typecode == "q"
            assert (
                len(trace.ops[tid])
                == len(trace.addresses[tid])
                == len(trace.works[tid])
            )

    def test_per_core_view_matches_columns(self):
        trace = small_trace()
        view = trace.per_core
        for tid in range(trace.num_cores):
            assert [r[0] for r in view[tid]] == list(trace.ops[tid])
            assert [r[1] for r in view[tid]] == list(trace.addresses[tid])
            assert [r[2] for r in view[tid]] == list(trace.works[tid])

    def test_legacy_tuple_constructor_equals_builder(self):
        a = small_trace()
        b = Trace(a.name, a.num_cores, a.per_core)
        assert tracefile.trace_equal(a, b)

    def test_pickle_round_trip_is_zero_reparse(self):
        """The pickle payload carries the raw buffers, not record tuples."""
        trace = small_trace()
        blob = pickle.dumps(trace)
        clone = pickle.loads(blob)
        assert tracefile.trace_equal(trace, clone)
        assert clone.instructions == trace.instructions
        assert clone.memory_accesses == trace.memory_accesses
        assert clone.footprint_lines() == trace.footprint_lines()
        # Columns must be adopted as arrays, not rebuilt through validation.
        assert clone.ops[0].typecode == "q"


class TestSchedulerFastPathEquivalence:
    """The inline L1-hit path must be indistinguishable from access().

    Verify mode disables the fast path, so the golden harness never covers
    the inline copies; this test pins them directly by running the same
    trace with the fast path force-disabled and demanding bit-identical
    RunStats.
    """

    def test_fast_path_on_equals_off(self, monkeypatch, kernel_combo):
        from repro.protocol.base import ProtocolEngineBase
        from repro.protocol.directory import DirectoryEngine

        arch = ArchConfig(num_cores=16, num_memory_controllers=4)
        trace = load_workload("tsp", arch, scale="tiny")
        results = {}
        for label in ("on", "off"):
            if label == "off":
                monkeypatch.setattr(
                    DirectoryEngine,
                    "scheduler_fast_path",
                    ProtocolEngineBase.scheduler_fast_path,
                )
            from repro.common.params import baseline_protocol

            for name, proto in (
                ("baseline", baseline_protocol()),
                ("adaptive", ProtocolConfig(protocol="adaptive", pct=4, rat_max=16)),
            ):
                stats = Simulator(arch, proto, warmup=True).run(trace)
                results[(label, name)] = stats.to_dict()
        for name in ("baseline", "adaptive"):
            assert results[("on", name)] == results[("off", name)], name


class TestTracefileV1Compat:
    def _write_v1(self, trace: Trace, path: pathlib.Path) -> None:
        """Emit the legacy v1 binary layout (13-byte packed records)."""
        header = struct.Struct("<4sHHH")
        stream_hdr = struct.Struct("<Q")
        record = struct.Struct("<BQI")
        out = io.BytesIO()
        name = trace.name.encode()
        out.write(header.pack(b"RPTR", 1, trace.num_cores, len(name)))
        out.write(name)
        for tid in range(trace.num_cores):
            ops = trace.ops[tid]
            out.write(stream_hdr.pack(len(ops)))
            for i in range(len(ops)):
                out.write(
                    record.pack(ops[i], trace.addresses[tid][i], trace.works[tid][i])
                )
        path.write_bytes(out.getvalue())

    def test_v1_file_still_loads(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "legacy.traceb"
        self._write_v1(trace, path)
        loaded = tracefile.load_trace_binary(path)
        assert tracefile.trace_equal(trace, loaded)

    def test_v1_to_v2_round_trip(self, tmp_path):
        """Load a v1 file, save as v2, reload: identical trace."""
        trace = small_trace()
        v1 = tmp_path / "legacy.traceb"
        self._write_v1(trace, v1)
        loaded_v1 = tracefile.load_trace_binary(v1)
        v2 = tmp_path / "modern.traceb"
        tracefile.save_trace_binary(loaded_v1, v2)
        loaded_v2 = tracefile.load_trace_binary(v2)
        assert tracefile.trace_equal(trace, loaded_v2)
        # The v2 file declares the current version in its header.
        version = struct.unpack_from("<H", v2.read_bytes(), 4)[0]
        assert version == tracefile.BINARY_FORMAT_VERSION

    def test_unknown_version_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "future.traceb"
        tracefile.save_trace_binary(trace, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 99)
        path.write_bytes(bytes(blob))
        from repro.common.errors import TraceError

        with pytest.raises(TraceError, match="unsupported trace version"):
            tracefile.load_trace_binary(path)

    def test_v2_simulates_identically_after_reload(self, tmp_path):
        arch = ArchConfig(num_cores=16, num_memory_controllers=4)
        trace = load_workload("tsp", arch, scale="tiny")
        path = tmp_path / "tsp.traceb"
        tracefile.save_trace_binary(trace, path)
        reloaded = tracefile.load_trace_binary(path)
        from repro.common.params import baseline_protocol

        a = Simulator(arch, baseline_protocol()).run(trace)
        b = Simulator(arch, baseline_protocol()).run(reloaded)
        assert a.to_dict() == b.to_dict()
