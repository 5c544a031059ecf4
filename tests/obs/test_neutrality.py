"""Telemetry-neutrality property: observing a run must not change it.

The contract (DESIGN.md section 10): with telemetry enabled, every
simulation produces ``RunStats`` **bit-identical** to the uninstrumented
run, across all six protocol families.  The instrumentation emits per
*run* - counters are snapshots of statistics the simulator already keeps -
so neutrality holds by construction; this suite pins it empirically so a
future per-record emission sneaking into a hot loop fails loudly.
"""

from __future__ import annotations

import json

import pytest

from repro import accel
from repro.network.mesh import CROSSING_ENTRIES
from repro.obs import TELEMETRY
from repro.runner.backends.local import execute_job
from repro.runner.sweep import grid_from_args

FAMILIES = ("pct", "baseline", "victim", "dls", "neat", "phase")


def _jobs(families=FAMILIES):
    return grid_from_args(
        workloads=("tsp",),
        families=tuple(families),
        pcts=(4,),
        num_cores=16,
        scale="tiny",
        warmup=True,
        seed=0,
    ).jobs()


@pytest.mark.parametrize("family", FAMILIES)
def test_runstats_bit_identical_with_telemetry(family, tmp_path):
    (job,) = _jobs((family,))
    baseline = execute_job(job).to_dict()
    sink = tmp_path / "events.jsonl"
    TELEMETRY.enable(sink)
    try:
        observed = execute_job(job).to_dict()
    finally:
        TELEMETRY.disable()
    # Byte-level identity of the canonical serialization, not approximate
    # equality: telemetry may not perturb a single field.
    assert json.dumps(observed, sort_keys=True) == json.dumps(baseline, sort_keys=True)


def test_instrumented_run_emits_spans_and_counters(tmp_path):
    (job,) = _jobs(("pct",))
    sink = tmp_path / "events.jsonl"
    TELEMETRY.enable(sink)
    try:
        execute_job(job)
    finally:
        TELEMETRY.disable()
    records = [json.loads(line) for line in sink.read_text().splitlines() if line.strip()]
    spans = {r["name"] for r in records if r["kind"] == "span"}
    counters = {r["name"] for r in records if r["kind"] == "counter"}
    assert "sim.run" in spans
    assert {"sim.phase.warmup", "sim.phase.simulate"} <= spans
    assert {"sim.l1d.accesses", "sim.l1d.hits", "mesh.flits",
            "mesh.slot_recycles", "sim.fastpath.read_hits"} <= counters


#: Families with a home-word row gate (DESIGN.md section 14).
ROW_FAMILIES = ("pct", "dls", "neat", "phase")


@pytest.mark.parametrize(
    "family,kernel",
    [pytest.param(family, "compiled", id=family) for family in FAMILIES]
    + [pytest.param(family, "twin", id=f"{family}-twin") for family in ("pct", "dls", "neat")],
)
def test_sched_exit_counters_emitted_and_neutral(family, kernel, tmp_path, monkeypatch):
    """Either scheduler kernel's retirement/exit counters are emitted per
    run, account for every memory record of the measured pass, and leave
    ``RunStats`` untouched.  The home-word row names a reason for every
    record it declines: its retirements plus its declines are the records
    it saw, every memory record but the L1 hits.  ``twin`` runs the
    pure-Python record walk (``REPRO_NO_ACCEL=1``), which has no row and
    reports no declines."""
    if kernel == "twin":
        monkeypatch.setenv(accel.NO_ACCEL_ENV, "1")
    elif accel.sched_kernel_class() is None or accel.mesh_kernel_class() is None:
        pytest.skip("compiled kernels unavailable")
    (job,) = _jobs((family,))
    baseline = execute_job(job).to_dict()
    sink = tmp_path / "events.jsonl"
    TELEMETRY.enable(sink)
    try:
        observed = execute_job(job).to_dict()
    finally:
        TELEMETRY.disable()
    assert json.dumps(observed, sort_keys=True) == json.dumps(baseline, sort_keys=True)
    counters = _counters(sink)
    names = ("sched.retired.l1_hit", "sched.retired.l2_word",
             "sched.exits.access", "sched.exits.sync")
    assert set(names) <= counters.keys()
    retired = counters["sched.retired.l1_hit"] + counters["sched.retired.l2_word"]
    assert retired == (counters["sim.fastpath.read_hits"]
                       + counters["sim.fastpath.write_hits"])
    memory_records = counters["sim.l1d.accesses"]
    assert retired + counters["sched.exits.access"] == memory_records
    assert counters["sched.exits.sync"] > 0
    declines = {k: v for k, v in counters.items() if k.startswith("sched.decline.")}
    if family in ROW_FAMILIES and kernel == "compiled":
        seen = memory_records - counters["sched.retired.l1_hit"]
        assert counters["sched.retired.l2_word"] + sum(declines.values()) == seen
        if family != "neat":  # every Neat store of this trace holds a copy
            assert counters["sched.retired.l2_word"] > 0
    else:
        assert counters["sched.retired.l2_word"] == 0
        assert declines == {}


def _counters(sink) -> dict[str, int]:
    counters: dict[str, int] = {}
    for line in sink.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "counter":
            counters[record["name"]] = counters.get(record["name"], 0) + record["value"]
    return counters


@pytest.mark.parametrize("family", FAMILIES)
def test_mesh_crossings_equal_across_kernels_and_neutral(family, tmp_path, monkeypatch):
    """Calls per mesh entry point (``mesh.crossings.<entry>``, measured
    pass) are emitted per run, equal whichever kernels run - compiled,
    the mesh twin under the compiled scheduler, or everything pure
    Python - and leave ``RunStats`` untouched."""
    if accel.mesh_kernel_class() is None:
        pytest.skip("compiled mesh kernel unavailable")
    (job,) = _jobs((family,))
    baseline = json.dumps(execute_job(job).to_dict(), sort_keys=True)
    seen = {}
    for name, env in (
        ("compiled", None),
        ("mesh-twin", accel.NO_ACCEL_MESH_ENV),
        ("fallback", accel.NO_ACCEL_ENV),
    ):
        with monkeypatch.context() as patch:
            if env is not None:
                patch.setenv(env, "1")
            sink = tmp_path / f"{name}.jsonl"
            TELEMETRY.enable(sink)
            try:
                observed = execute_job(job).to_dict()
            finally:
                TELEMETRY.disable()
        assert json.dumps(observed, sort_keys=True) == baseline, name
        counters = _counters(sink)
        seen[name] = {
            entry: counters[f"mesh.crossings.{entry}"] for entry in CROSSING_ENTRIES
        }
    assert seen["compiled"] == seen["mesh-twin"] == seen["fallback"]
    assert seen["compiled"]["unicast"] + seen["compiled"]["chain"] > 0


def test_disabled_run_touches_no_sink(tmp_path):
    # The global singleton is disabled in the test environment; a plain run
    # must not create or write any telemetry artifact.
    assert not TELEMETRY.enabled
    (job,) = _jobs(("baseline",))
    execute_job(job)
    assert list(tmp_path.iterdir()) == []
