"""Optional compiled accelerators (DESIGN.md sections 12 and 14).

``repro.accel`` builds the package's C sources into one CPython extension
on first use (see :mod:`repro.accel.build`) and hands out two kernel
classes from it:

* ``MeshKernel`` (phase 1): the epoch ring-buffer bandwidth accounting
  behind ``MeshNetwork.traverse_path``;
* ``SchedKernel`` (phase 2): the simulator's columnar record walk -
  cursors, min-clock heap, the inline L1-hit fast path and the native
  shapes (Neat's version-gated read hit, the DLS resident word access).
  ``Simulator._execute`` is the one trampoline for synchronization
  records; it drives this class or, without it, the pure-Python twin in
  :mod:`repro.sim.multicore`, which exports the same methods.

Selection rules, per kernel and in order:

1. ``REPRO_NO_ACCEL=1`` (any non-empty value) forces the pure-Python
   implementations of *both* kernels; ``REPRO_NO_ACCEL_MESH`` /
   ``REPRO_NO_ACCEL_SCHED`` force one kernel's fallback independently.
   All three are checked per construction, so tests can flip them with
   ``monkeypatch.setenv`` without reloading modules.
2. Otherwise the module is compiled/loaded once per process and each
   kernel resolved once; **any** failure (no compiler, no headers,
   compile error, import error, constant mismatch with the Python
   definitions, an ``accel.build_fail`` fault at that kernel's gate) logs
   one warning per kernel and pins that kernel's fallback for the rest of
   the process.
3. The pure-Python implementations are the ungated fallback either way -
   bit-identical by the property/fixture suites, just slower.  For the
   scheduler that covers the record walk only: barriers, locks, deadlock
   detection and the counter folds are shared code.

``status()`` is the introspection payload behind ``repro accel-info``.
"""

from __future__ import annotations

import logging
import os
from typing import Any

from repro.accel import build
from repro.accel.build import CACHE_ENV, NO_ACCEL_ENV

__all__ = [
    "CACHE_ENV",
    "NO_ACCEL_ENV",
    "NO_ACCEL_MESH_ENV",
    "NO_ACCEL_SCHED_ENV",
    "active_impl",
    "kernel_impl",
    "mesh_kernel_class",
    "reset",
    "sched_kernel_class",
    "status",
]

log = logging.getLogger("repro.accel")

#: Force one kernel's pure-Python fallback without touching the other.
NO_ACCEL_MESH_ENV = "REPRO_NO_ACCEL_MESH"
NO_ACCEL_SCHED_ENV = "REPRO_NO_ACCEL_SCHED"

#: One-shot module load state: ``None`` = not attempted yet,
#: ``(module, info)`` afterwards (``module`` is None when the build/load
#: failed).
_state: tuple[Any, dict] | None = None

#: One-shot per-kernel resolution: name -> (cls_or_None, reason_or_None).
_kernels: dict[str, tuple[Any, str | None]] = {}


def _mesh_constants() -> dict[str, int]:
    from repro.network import mesh

    return {
        "EPOCH_CYCLES": mesh.EPOCH_CYCLES,
        "EPOCH_SHIFT": mesh.EPOCH_SHIFT,
        "WINDOW_EPOCHS": mesh.WINDOW_EPOCHS,
        "SLOT_SHIFT": mesh._SLOT_SHIFT,
    }


def _sched_constants() -> dict[str, int]:
    from repro.common import addr
    from repro.common.types import MissType, Op
    from repro.protocol import base

    return {
        "OP_READ": int(Op.READ),
        "OP_WRITE": int(Op.WRITE),
        "OP_BARRIER": int(Op.BARRIER),
        "OP_LOCK": int(Op.LOCK),
        "OP_UNLOCK": int(Op.UNLOCK),
        "OP_WORK": int(Op.WORK),
        "LINE_BITS": addr.LINE_BITS,
        # The native DLS word path's address split, miss typing and
        # history flags (protocol/base.py).
        "WORD_BITS": addr.WORD_BITS,
        "MISS_COLD": int(MissType.COLD),
        "MISS_CAPACITY": int(MissType.CAPACITY),
        "MISS_SHARING": int(MissType.SHARING),
        "MISS_WORD": int(MissType.WORD),
        "MISS_TYPES": len(MissType),
        "EVER_CACHED": base._EVER_CACHED,
        "LAST_REMOVAL_INVAL": base._LAST_REMOVAL_INVAL,
        "EVER_REMOTE": base._EVER_REMOTE,
    }


#: kernel name -> (module attribute, constants to cross-check, label).
_KERNEL_SPECS = {
    "mesh": ("MeshKernel", _mesh_constants, "mesh accelerator"),
    "sched": ("SchedKernel", _sched_constants, "scheduler accelerator"),
}


def _load_module() -> tuple[Any, dict]:
    global _state
    if _state is not None:
        return _state
    artifact, info = build.build_artifact()
    module = None
    if artifact is not None:
        try:
            module = build.load_module(artifact)
        except (ImportError, OSError) as exc:
            info["reason"] = f"built kernel failed to import: {exc}"
        else:
            info["abi_version"] = getattr(module, "ABI_VERSION", None)
    _state = (module, info)
    return _state


def _kernel(name: str) -> tuple[Any, str | None]:
    """Resolve one kernel class once per process (None = fallback)."""
    cached = _kernels.get(name)
    if cached is not None:
        return cached
    module, info = _load_module()
    attr, constants_fn, label = _KERNEL_SPECS[name]
    cls = None
    reason = info.get("reason")
    if module is not None:
        from repro.faults import FAULTS

        if FAULTS.active and FAULTS.trigger("accel.build_fail", kernel=name) is not None:
            # Per-kernel chaos gate: `args={"kernel": "sched"}` forces only
            # this kernel's fallback while the other stays compiled.
            reason = f"fault injected: accel.build_fail (kernel={name})"
        else:
            mismatch = {
                const: (value, getattr(module, const, None))
                for const, value in constants_fn().items()
                if getattr(module, const, None) != value
            }
            if mismatch:
                reason = f"kernel constant mismatch ({name}): {mismatch}"
            else:
                cls = getattr(module, attr, None)
                if cls is None:
                    reason = f"built module exports no {attr}"
    if cls is None:
        log.warning(
            "%s unavailable, using pure-Python fallback: %s", label, reason
        )
    _kernels[name] = (cls, reason)
    return _kernels[name]


def reset() -> None:
    """Forget the cached load attempt (build-cache tests only)."""
    global _state
    _state = None
    _kernels.clear()


def mesh_kernel_class() -> Any | None:
    """The compiled ``MeshKernel`` class, or ``None`` to use the fallback.

    Honors ``REPRO_NO_ACCEL``/``REPRO_NO_ACCEL_MESH`` on every call; the
    expensive build/load is attempted at most once per process.
    """
    if os.environ.get(NO_ACCEL_ENV) or os.environ.get(NO_ACCEL_MESH_ENV):
        return None
    return _kernel("mesh")[0]


def sched_kernel_class() -> Any | None:
    """The compiled ``SchedKernel`` class, or ``None`` to use the fallback.

    Honors ``REPRO_NO_ACCEL``/``REPRO_NO_ACCEL_SCHED`` on every call; the
    expensive build/load is attempted at most once per process.
    """
    if os.environ.get(NO_ACCEL_ENV) or os.environ.get(NO_ACCEL_SCHED_ENV):
        return None
    return _kernel("sched")[0]


def active_impl() -> str:
    """The implementation a ``MeshNetwork`` built right now would select."""
    return kernel_impl("mesh")


def kernel_impl(name: str) -> str:
    """``"accel"``/``"fallback"`` for one kernel, as selected right now."""
    getter = mesh_kernel_class if name == "mesh" else sched_kernel_class
    return "accel" if getter() is not None else "fallback"


_KERNEL_ENVS = {"mesh": NO_ACCEL_MESH_ENV, "sched": NO_ACCEL_SCHED_ENV}


def status() -> dict:
    """JSON-ready kernel status (the ``repro accel-info`` payload).

    Top-level ``implementation``/``compiled``/``reason`` describe the mesh
    kernel (schema-2 compatibility); ``kernels`` carries the per-kernel
    form the bench provenance and the CI matrix assert on.
    """
    disabled_all = bool(os.environ.get(NO_ACCEL_ENV))
    kernels: dict[str, dict] = {}
    for name, env in _KERNEL_ENVS.items():
        disabled = disabled_all or bool(os.environ.get(env))
        if name in _kernels:
            cls, reason = _kernels[name]
        elif not disabled:
            cls, reason = _kernel(name)
        else:
            cls, reason = None, None
        compiled = cls is not None
        if disabled_all:
            reason = f"{NO_ACCEL_ENV} is set"
        elif disabled:
            reason = f"{env} is set"
        kernels[name] = {
            "implementation": "fallback" if (disabled or not compiled) else "accel",
            "compiled": compiled,
            "disabled_by_env": disabled,
            "reason": reason,
        }
    info = _state[1] if _state is not None else {}
    mesh = kernels["mesh"]
    return {
        "implementation": mesh["implementation"],
        "compiled": mesh["compiled"],
        "disabled_by_env": disabled_all,
        "cache_dir": info.get("cache_dir", str(build.cache_dir())),
        "artifact": info.get("artifact"),
        "compiler": info.get("compiler"),
        "reason": mesh["reason"],
        "source": info.get(
            "source", ", ".join(str(s) for s in build.kernel_sources())
        ),
        "kernels": kernels,
    }
