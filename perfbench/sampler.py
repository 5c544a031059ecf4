"""Statistical cross-check of the span split: a ``SIGPROF`` sampler.

Every ``interval`` seconds of process CPU time (the kernel rounds it up to
its tick), ``ITIMER_PROF`` raises ``SIGPROF`` and :class:`LayerSampler`
charges the sample to a layer by the module of the innermost Python frame
that belongs to one.  Frames of other modules - the standard library,
``repro.common``/``obs``/``energy``/``accel``, the directory sharer
tracking, the golden memory and the benchmark's own recording wrappers -
are walked past to their caller, which is where the span split charges
them too.  The result does not depend on where the
wrappers read the clock, so a layer share inflated by wrapper cost shows
up as a gap between ``<layer>.sample_share`` and the span share.

CPython runs a signal handler only between bytecodes.  A signal that
arrives while native code runs (the scheduler or mesh kernel) is handled at
the next bytecode boundary: after a native call returns, in the calling
frame; when the native code calls back into Python, at the entry of the
called function.  A sample taken at a function's entry is therefore charged
to its caller - for ``engine.access`` called by the scheduler kernel, that
is the ``Simulator`` trampoline frame (``sim``).  Likewise a signal that
arrives in the last bytecodes of a function, after its last check, is
handled in the caller right after the call returns; when that caller is a
recording wrapper, the sample is charged to the wrapped function's layer.
"""

from __future__ import annotations

import dis
import signal
import time
from collections import Counter

from perfbench.tracing import LAYERS

#: Modules inside a layer's package that are not part of that layer: the
#: directory sharer tracking is protocol state, not a locality classifier,
#: and the golden memory is verification, not the modelled hierarchy.
_CHARGED_TO_CALLER = ("repro.coherence.directory", "repro.mem.golden")


def module_layer(module: str) -> str | None:
    """The layer a module belongs to, or ``None`` to charge the caller."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro" or parts[1] not in LAYERS:
        return None
    if module in _CHARGED_TO_CALLER:
        return None
    return parts[1]


class LayerSampler:
    """Counts ``SIGPROF`` samples per layer while started.

    Signals coalesce: while native code runs for longer than one interval,
    several ticks fold into one handled signal.  Each sample is therefore
    weighted by the process CPU time since the previous one, and the shares
    are shares of that weight.
    """

    def __init__(self, recorder=None, interval: float = 0.001) -> None:
        #: The ``SpanRecorder`` whose wrappers are on the stack, if any.
        self.recorder = recorder
        self.interval = interval
        self.counts: Counter[str] = Counter()
        self.weights: Counter[str] = Counter()
        self._last = 0.0
        self._entry_offsets: dict[object, int] = {}
        self._previous = None

    def _entry_offset(self, code) -> int:
        offset = self._entry_offsets.get(code)
        if offset is None:
            offset = 0
            for instruction in dis.get_instructions(code):
                if instruction.opname == "RESUME":
                    offset = instruction.offset
                    break
            self._entry_offsets[code] = offset
        return offset

    def classify(self, frame) -> str:
        """The layer a sample taken in ``frame`` is charged to."""
        if frame is not None and frame.f_lasti <= self._entry_offset(frame.f_code):
            frame = frame.f_back  # delivered at entry: the caller was running
        if frame is not None and self.recorder is not None:
            layer = self.recorder.layer_in_call(frame)
            if layer is not None:
                return layer
        while frame is not None:
            layer = module_layer(frame.f_globals.get("__name__", ""))
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _handle(self, signum, frame) -> None:
        now = time.process_time()
        layer = self.classify(frame)
        self.counts[layer] += 1
        self.weights[layer] += now - self._last
        self._last = now

    def start(self) -> None:
        self._last = time.process_time()
        self._previous = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "LayerSampler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def shares(self) -> dict[str, float]:
        """Each layer's share of the sampled CPU time (``other`` included
        in the total)."""
        total = sum(self.weights.values())
        return {layer: (self.weights[layer] / total if total else 0.0) for layer in LAYERS}
