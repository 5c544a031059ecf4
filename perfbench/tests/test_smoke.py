"""Reduced-size smoke runs of every workload definition.

``reduced=True`` keeps each workload's shape (families, verification,
warmup) on a few tiny jobs; the metric names must match BENCHMARK.json.
"""

from __future__ import annotations

import json

import pytest

from perfbench import ROOT, workloads
from perfbench.measure import run_traced, run_untraced

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_reduced_untraced_run(name):
    result = run_untraced(name, seed=0, seconds=0, reduced=True)
    checker = result["checker"]
    assert checker.failed == 0 and checker.attempted >= 2 * len(workloads.jobs(name, 0, True))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name_, (value, unit) in result["metrics"].items():
        assert value > 0, name_
        assert unit == next(m["unit"] for m in SPEC["end_to_end"] if m["name"] == name_)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_reduced_traced_run_counts_add_up(name):
    result = run_traced(name, seed=0, seconds=0, reduced=True)
    checker = result["checker"]
    assert checker.failed == 0, checker.problems
    assert {k: u for k, (_v, u) in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v for k, (v, _unit) in result["metrics"].items()}
    assert metrics["protocol.access_calls"] > 0
    assert metrics["runner.cache_hit_ratio"] == 1.0
    assert metrics["workloads.traces_built"] == len({j.trace_key for j in workloads.jobs(name, 0, True)})


def test_job_lists_follow_the_seed_and_have_unique_labels():
    for name in workloads.NAMES:
        jobs = workloads.jobs(name, 5)
        assert all(job.seed == 5 and job.warmup for job in jobs)
        assert len({workloads.label(job) for job in jobs}) == len(jobs)
    assert len(workloads.jobs("fig11-hits", 0)) == 28
    assert len(workloads.jobs("families-miss", 0)) == 6
    assert len(workloads.jobs("verify-tiny", 0)) == 126
