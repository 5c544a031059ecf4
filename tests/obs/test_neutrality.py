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


@pytest.mark.parametrize(
    "family,kernel",
    [pytest.param(family, "compiled", id=family) for family in ("pct", "dls", "neat")]
    + [pytest.param(family, "twin", id=f"{family}-twin") for family in ("pct", "dls", "neat")],
)
def test_sched_exit_counters_emitted_and_neutral(family, kernel, tmp_path, monkeypatch):
    """Either scheduler kernel's retirement/exit counters are emitted per
    run, account for every memory record of the measured pass, and leave
    ``RunStats`` untouched.  ``twin`` runs the pure-Python record walk
    (``REPRO_NO_ACCEL=1``)."""
    if kernel == "twin":
        monkeypatch.setenv(accel.NO_ACCEL_ENV, "1")
    elif accel.sched_kernel_class() is None:
        pytest.skip("compiled scheduler kernel unavailable")
    (job,) = _jobs((family,))
    baseline = execute_job(job).to_dict()
    sink = tmp_path / "events.jsonl"
    TELEMETRY.enable(sink)
    try:
        observed = execute_job(job).to_dict()
    finally:
        TELEMETRY.disable()
    assert json.dumps(observed, sort_keys=True) == json.dumps(baseline, sort_keys=True)
    counters: dict[str, int] = {}
    for line in sink.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "counter":
            counters[record["name"]] = counters.get(record["name"], 0) + record["value"]
    names = ("sched.retired.l1_hit", "sched.retired.l2_word",
             "sched.exits.access", "sched.exits.sync")
    assert set(names) <= counters.keys()
    retired = counters["sched.retired.l1_hit"] + counters["sched.retired.l2_word"]
    assert retired == (counters["sim.fastpath.read_hits"]
                       + counters["sim.fastpath.write_hits"])
    memory_records = counters["sim.l1d.accesses"]
    assert retired + counters["sched.exits.access"] == memory_records
    assert counters["sched.exits.sync"] > 0
    if family == "dls" and kernel == "compiled":
        assert counters["sched.retired.l2_word"] > 0
    else:
        assert counters["sched.retired.l2_word"] == 0


def test_disabled_run_touches_no_sink(tmp_path):
    # The global singleton is disabled in the test environment; a plain run
    # must not create or write any telemetry artifact.
    assert not TELEMETRY.enabled
    (job,) = _jobs(("baseline",))
    execute_job(job)
    assert list(tmp_path.iterdir()) == []
