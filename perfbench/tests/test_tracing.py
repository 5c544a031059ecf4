"""Span self-time arithmetic and the recording wrappers."""

from __future__ import annotations

import sys
import time
from array import array

import pytest

from perfbench import tracing
from perfbench.sampler import LayerSampler, module_layer


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    parents = array("q", [-1, 0, 1, 0])
    starts = array("d", [0.0, 1.0, 2.0, 5.0])
    ends = array("d", [10.0, 4.0, 3.0, 9.0])
    assert list(tracing.self_times(parents, starts, ends)) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_of_all_spans_sum_to_root_duration():
    parents = array("q", [-1, 0, 1, 1, 0, 4])
    starts = array("d", [0.0, 0.5, 0.75, 1.5, 3.0, 3.25])
    ends = array("d", [8.0, 2.5, 1.25, 2.0, 7.0, 6.0])
    assert sum(tracing.self_times(parents, starts, ends)) == pytest.approx(8.0)


class _Toy:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n + 1


def test_wrappers_record_nested_spans_and_uninstall(monkeypatch):
    ticks = iter(float(t) for t in range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    outer, inner = _Toy.outer, _Toy.inner
    recorder = tracing.SpanRecorder()
    recorder.install([(_Toy, "outer", "sim"), (_Toy, "inner", "protocol")])
    try:
        assert _Toy().outer(1) == 4
    finally:
        recorder.uninstall()
    assert _Toy.outer is outer and _Toy.inner is inner
    # Clock reads: outer start 0, inner 1..2, inner 3..4, outer end 5.
    assert list(recorder.parents) == [-1, 0, 0]
    summary = tracing.summarize(recorder)
    assert summary["_Toy.outer"] == {"layer": "sim", "calls": 1, "self_s": 3.0}
    assert summary["_Toy.inner"] == {"layer": "protocol", "calls": 2, "self_s": 2.0}
    totals = tracing.layer_totals(summary)
    assert totals["sim"]["self_s"] == 3.0 and totals["protocol"]["calls"] == 2
    assert tracing.calls_within(recorder, "_Toy.inner", [(0, 2)]) == 1


def test_wrapper_records_span_when_the_call_raises():
    class Boom:
        def go(self):
            raise ValueError("boom")

    recorder = tracing.SpanRecorder()
    recorder.install([(Boom, "go", "mem")])
    try:
        with pytest.raises(ValueError):
            Boom().go()
    finally:
        recorder.uninstall()
    assert recorder.ends[0] >= recorder.starts[0]
    assert recorder._stack == [-1]


def test_span_log_round_trips(tmp_path):
    recorder = tracing.SpanRecorder()
    recorder.install([(_Toy, "inner", "mem")])
    try:
        _Toy().inner(1)
    finally:
        recorder.uninstall()
    recorder.write(tmp_path / "spans")
    data = (tmp_path / "spans.bin").read_bytes()
    assert len(data) == (4 + 8 + 8 + 8) * len(recorder.fns)
    assert (tmp_path / "spans.json").exists()


def test_every_boundary_exists_and_is_a_layer():
    for owner, attribute, layer in tracing.boundaries():
        assert attribute in vars(owner), (owner, attribute)
        assert layer in tracing.LAYERS


def test_sampler_maps_modules_to_layers():
    assert module_layer("repro.network.mesh") == "network"
    assert module_layer("repro.coherence.classifier.base") == "coherence"
    assert module_layer("repro.coherence.directory") is None
    assert module_layer("repro.common.addr") is None
    assert module_layer("json.encoder") is None


def test_sampler_charges_a_wrapper_at_its_call_to_the_wrapped_layer():
    recorder = tracing.SpanRecorder()
    sampler = LayerSampler(recorder)
    seen = []

    class Holder:
        def probe(self):
            # The caller frame is the wrapper, standing at its call into us.
            seen.append(sampler.classify(sys._getframe(1)))

    recorder.install([(Holder, "probe", "rnuca")])
    try:
        Holder().probe()
    finally:
        recorder.uninstall()
    assert seen == ["rnuca"]
