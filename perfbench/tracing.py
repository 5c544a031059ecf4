"""Layer spans for the traced run, recorded from outside the program.

:class:`SpanRecorder` replaces the public functions at each layer boundary
(listed in :func:`boundaries`) with class-level wrappers that record one
span per call: function id, parent span, start and end.  Wrappers go in
before the first engine is built, so the bound methods an engine captures
at construction (``MeshNetwork.traverse_*``) and the ``engine.access`` the
native scheduler kernel calls back into are the wrapped ones - every
kernel exit is seen.

Spans are kept in flat arrays while the sweep runs and written out at the
end (:meth:`SpanRecorder.write`).  A span's self time is its duration minus
the time its child spans cover (:func:`self_times`); a layer's self time is
the sum over its spans.  Time outside every span is unattributed.
"""

from __future__ import annotations

import dis
import functools
import inspect
import json
import time
import types
from array import array
from pathlib import Path

#: The program's layers, named after its modules.  ``energy`` took under
#: 0.1% of every workload in a probe; ``obs``, ``faults``, ``verify``,
#: ``experiments`` and ``viz`` are not on the timed path.
LAYERS = ("runner", "workloads", "sim", "protocol", "network", "coherence", "rnuca", "mem")

#: Pseudo-layer of the recorder's own bookkeeping spans (unattributed time).
BOOKKEEPING = "bookkeeping"


def boundaries() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every function the traced run wraps."""
    from repro.coherence.classifier.base import LocalityClassifier
    from repro.coherence.classifier.complete import CompleteClassifier
    from repro.coherence.classifier.limited import LimitedClassifier
    from repro.mem.l1 import L1Cache
    from repro.mem.l2 import L2Slice
    from repro.mem.memctrl import MemoryController
    from repro.network.mesh import MeshNetwork
    from repro.protocol.engine import ENGINE_CLASSES
    from repro.rnuca.page_table import RNucaPageTable
    from repro.rnuca.placement import RNucaPlacement
    from repro.runner import ParallelRunner, ResultStore
    from repro.runner.backends import local
    from repro.sim import multicore
    from repro.sim.stats import RunStats

    targets = [
        (ParallelRunner, "run", "runner"),
        (RunStats, "to_dict", "runner"),
        (ResultStore, "_load", "runner"),
        (ResultStore, "get", "runner"),
        (ResultStore, "put", "runner"),
        # Module globals, looked up by name at each call.
        (local, "load_workload", "workloads"),
        (multicore, "make_engine", "protocol"),
        (multicore.Simulator, "run", "sim"),
    ]
    engines = {cls for cls in ENGINE_CLASSES.values()}
    for cls in sorted(engines, key=lambda c: c.__name__):
        if "access" in vars(cls):
            targets.append((cls, "access", "protocol"))
    for name in ("traverse_path", "traverse_chain", "traverse_many", "unicast", "broadcast"):
        targets.append((MeshNetwork, name, "network"))
    for cls in (LocalityClassifier, CompleteClassifier, LimitedClassifier):
        for name, value in vars(cls).items():
            if not name.startswith("_") and inspect.isfunction(value):
                targets.append((cls, name, "coherence"))
    for name in vars(RNucaPlacement):
        if name.endswith("_home"):
            targets.append((RNucaPlacement, name, "rnuca"))
    targets.append((RNucaPageTable, "classify_data", "rnuca"))
    targets += [
        (L1Cache, "fill", "mem"),
        (L2Slice, "fill", "mem"),
        (MemoryController, "access", "mem"),
    ]
    return targets


def _span_name(owner: object, attribute: str) -> str:
    if isinstance(owner, types.ModuleType):
        return attribute
    return f"{owner.__qualname__}.{attribute}"


class SpanRecorder:
    """Flat in-memory span log plus the wrappers that fill it."""

    def __init__(self) -> None:
        #: Function id -> (span name, layer).
        self.functions: list[tuple[str, str]] = []
        self.fns = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        #: Open spans, innermost last; -1 is the root.
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        #: The code object every wrapper shares, and the offset of its
        #: call into the wrapped function.
        self._wrapper_code = None
        self._call_offset = -1

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, layer: str):
        """``fn`` recording one span per call under ``name``/``layer``."""
        fid = len(self.functions)
        self.functions.append((name, layer))
        fns, parents, starts, ends = self.fns, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        if self._wrapper_code is None:
            self._wrapper_code = wrapped.__code__
            self._call_offset = next(
                ins.offset for ins in dis.get_instructions(wrapped)
                if ins.opname == "CALL_FUNCTION_EX"
            )
        return wrapped

    def layer_in_call(self, frame) -> str | None:
        """The wrapped function's layer when ``frame`` is a wrapper frame
        standing at its call into it, else ``None``.

        The function id is in the frame's closure: all wrappers share one
        code object.
        """
        if frame.f_code is not self._wrapper_code or frame.f_lasti != self._call_offset:
            return None
        return self.functions[frame.f_locals["fid"]][1]

    def install(self, targets: list[tuple[object, str, str]] | None = None) -> None:
        """Replace every boundary function by its recording wrapper."""
        for owner, attribute, layer in boundaries() if targets is None else targets:
            original = vars(owner)[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, _span_name(owner, attribute), layer))

    def uninstall(self) -> None:
        """Put every original function back (reverse order; idempotent)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the span log: ``<path>.json`` names, ``<path>.bin`` arrays.

        The binary file is the four arrays back to back (``fns`` int32,
        ``parents`` int64, ``starts`` and ``ends`` float64 perf-counter
        seconds), each ``count`` entries long, in native byte order.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {"count": len(self.fns), "functions": self.functions,
                "arrays": ["fns:i", "parents:q", "starts:d", "ends:d"]}
        path.with_suffix(".json").write_text(json.dumps(meta) + "\n", encoding="utf-8")
        with path.with_suffix(".bin").open("wb") as fh:
            for column in (self.fns, self.parents, self.starts, self.ends):
                column.tofile(fh)


def self_times(parents, starts, ends) -> array:
    """Per-span self time: duration minus the time child spans cover.

    Spans nest strictly (one thread, synchronous calls), so the cover of a
    span's children is the sum of their durations.
    """
    child = array("d", bytes(8 * len(starts)))
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            child[parent] += end - start
    for index, (start, end) in enumerate(zip(starts, ends)):
        child[index] = end - start - child[index]
    return child


def summarize(recorder: SpanRecorder) -> dict[str, dict]:
    """Per span name: its ``layer``, ``calls`` and total ``self_s``."""
    calls = [0] * len(recorder.functions)
    totals = [0.0] * len(recorder.functions)
    for fid, own in zip(recorder.fns, self_times(recorder.parents, recorder.starts, recorder.ends)):
        calls[fid] += 1
        totals[fid] += own
    out: dict[str, dict] = {}
    for fid, (name, layer) in enumerate(recorder.functions):
        entry = out.setdefault(name, {"layer": layer, "calls": 0, "self_s": 0.0})
        entry["calls"] += calls[fid]
        entry["self_s"] += totals[fid]
    return out


def calls_within(recorder: SpanRecorder, name: str, ranges) -> int:
    """Calls of span ``name`` whose index lies in one of ``ranges``."""
    fids = {fid for fid, (n, _) in enumerate(recorder.functions) if n == name}
    fns = recorder.fns
    return sum(1 for first, last in ranges for fid in fns[first:last] if fid in fids)


def layer_totals(by_name: dict[str, dict]) -> dict[str, dict]:
    """Fold :func:`summarize` output into per-layer ``calls``/``self_s``."""
    out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for entry in by_name.values():
        if entry["layer"] in out:
            out[entry["layer"]]["calls"] += entry["calls"]
            out[entry["layer"]]["self_s"] += entry["self_s"]
    return out
