"""The mesh kernels' own surface: routes, argument checks, build modes.

Both kernels - the compiled ``MeshKernel`` and its pure-Python twin
``_PyMeshKernel`` - resolve XY routes themselves.  Every route either one
resolves must be ``Mesh2D.route`` mapped to the dense ids of
``Mesh2D.directed_links()``, for every tile pair of 1-, 4-, 16- and 64-tile
meshes.

The compiled kernel checks every argument before its first side effect.
Each of its error returns is reached here: a rejected call raises a typed
error and leaves the slot table, the overflow map and every counter as they
were.  The twin checks its tiles the same way (its flat route memo would
otherwise alias an out-of-range pair onto another pair's route).
"""

from __future__ import annotations

import math

import pytest

from repro import accel
from repro.accel import build
from repro.common.params import ArchConfig, dls_protocol
from repro.network.mesh import CROSSING_ENTRIES, EPOCH_CYCLES, WINDOW_EPOCHS, _PyMeshKernel
from repro.network.messages import MsgType, message_flits
from repro.network.topology import Mesh2D
from repro.protocol.dls import DLSEngine
from repro.protocol.engine import make_engine
from repro.sim.multicore import Simulator
from repro.workloads.registry import load_workload

ARCH16 = ArchConfig(num_cores=16, num_memory_controllers=4)
FLITS = tuple(message_flits(msg, ARCH16) for msg in MsgType)
COUNTERS = (
    "link_flit_traversals", "messages_sent", "flits_sent", "slot_recycles",
    *(f"calls_{entry}" for entry in CROSSING_ENTRIES),
)


def compiled_class():
    cls = accel.mesh_kernel_class()
    if cls is None:
        pytest.skip("compiled mesh kernel unavailable")
    return cls


def make_kernel(impl: str, num_tiles: int):
    if impl == "accel":
        return compiled_class()(num_tiles, 2.0, FLITS)
    return _PyMeshKernel(Mesh2D(num_tiles), 0, 2, FLITS)


@pytest.mark.parametrize("impl", ["fallback", "accel"])
@pytest.mark.parametrize("num_tiles", [1, 4, 16, 64])
def test_every_route_is_mesh2d_route_in_dense_ids(impl, num_tiles):
    kernel = make_kernel(impl, num_tiles)
    mesh = Mesh2D(num_tiles)
    links = mesh.directed_links()
    dense = {mesh.link_id(src, dst): i for i, (src, dst) in enumerate(links)}
    assert kernel.num_links == len(links)
    assert kernel.link_bits == (len(links) - 1).bit_length()
    for src in range(num_tiles):
        for dst in range(num_tiles):
            want = tuple(dense[link] for link in mesh.route(src, dst))
            assert kernel.route(src, dst) == want, (src, dst)
        assert kernel.route(src, src) == ()
    # A second pass reads the memo, not a fresh resolution.
    assert kernel.route(num_tiles - 1, 0) == tuple(
        dense[link] for link in mesh.route(num_tiles - 1, 0)
    )


# ----------------------------------------------------------------------
# Error returns of the compiled kernel
# ----------------------------------------------------------------------
def loaded_kernel(impl: str = "accel"):
    """A 16-tile kernel with window and overflow occupancy.  Route 1 -> 0
    is memoized: in a flat memo, pair (0, 16) would alias it."""
    kernel = make_kernel(impl, 16)
    kernel.unicast(1, 0, MsgType.LINE_REPLY, 100.0)
    for i in range(24):
        kernel.unicast(i % 16, (5 * i) % 16, MsgType.LINE_REPLY, float(3 * i))
    kernel.traverse_chain(0, 15, MsgType.READ_REQ, 9e5, 9e5 + 40.0, 7.0, MsgType.LINE_REPLY)
    # One window later on the same links: the slots recycle and the
    # retired occupancy moves to the overflow map.
    kernel.unicast(0, 15, MsgType.LINE_REPLY, 0.0)
    kernel.unicast(0, 15, MsgType.LINE_REPLY, float(WINDOW_EPOCHS * EPOCH_CYCLES))
    kernel.traverse_many(3, [0, 3, 12], MsgType.INV_REQ, 11.0)
    kernel.broadcast(6, MsgType.INV_BROADCAST, 13.0)
    assert kernel.overflow_len() > 0
    return kernel


def snapshot(kernel) -> tuple:
    if isinstance(kernel, _PyMeshKernel):
        state = (tuple(kernel.slots), tuple(kernel._routes))
    else:
        state = bytes(memoryview(kernel))
    return (
        state,
        sorted(kernel.overflow_items()),
        tuple(getattr(kernel, name) for name in COUNTERS),
    )


NAN = math.nan
BAD_CALLS = {
    # unicast(src, dst, msg, start)
    "unicast-src-high": ("unicast", (16, 0, 3, 0.0), ValueError),
    "unicast-src-negative": ("unicast", (-1, 0, 3, 0.0), ValueError),
    "unicast-dst-high": ("unicast", (0, 16, 3, 0.0), ValueError),
    "unicast-tile-float": ("unicast", (0.5, 1, 3, 0.0), TypeError),
    "unicast-msg-high": ("unicast", (0, 1, len(MsgType), 0.0), ValueError),
    "unicast-msg-negative": ("unicast", (0, 1, -1, 0.0), ValueError),
    "unicast-time-str": ("unicast", (0, 1, 3, "0.0"), TypeError),
    "unicast-time-none": ("unicast", (0, 1, 3, None), TypeError),
    "unicast-time-negative": ("unicast", (0, 1, 3, -1.0), ValueError),
    "unicast-time-nan": ("unicast", (0, 1, 3, NAN), ValueError),
    "unicast-time-huge": ("unicast", (0, 1, 3, 2.0**52), ValueError),
    "unicast-arity": ("unicast", (0, 1, 3), TypeError),
    # traverse_chain(src, dst, msg1, t0, busy_until, gap, msg2): a bad
    # reply argument must not leave the request leg reserved.
    "chain-reply-msg": ("traverse_chain", (0, 15, 0, 1.0, 0.0, 7.0, 99), ValueError),
    "chain-dst": ("traverse_chain", (0, 16, 0, 1.0, 0.0, 7.0, 3), ValueError),
    "chain-busy-str": ("traverse_chain", (0, 15, 0, 1.0, "busy", 7.0, 3), TypeError),
    "chain-gap-nan": ("traverse_chain", (0, 15, 0, 1.0, 0.0, NAN, 3), ValueError),
    "chain-arity": ("traverse_chain", (0, 15, 0, 1.0, 0.0, 7.0), TypeError),
    # traverse_many(src, dsts, msg, t_head): a bad last target must not
    # leave the earlier ones reserved.
    "many-last-target": ("traverse_many", (0, [1, 2, 16], 6, 0.0), ValueError),
    "many-target-type": ("traverse_many", (0, [1, "2"], 6, 0.0), TypeError),
    "many-not-sequence": ("traverse_many", (0, 5, 6, 0.0), TypeError),
    "many-src": ("traverse_many", (-1, [1], 6, 0.0), ValueError),
    "many-time": ("traverse_many", (0, [1], 6, "t"), TypeError),
    "many-arity": ("traverse_many", (0, [1], 6), TypeError),
    # broadcast(root, msg, start)
    "broadcast-root": ("broadcast", (16, 7, 0.0), ValueError),
    "broadcast-msg": ("broadcast", (0, 99, 0.0), ValueError),
    "broadcast-time": ("broadcast", (0, 7, "t"), TypeError),
    "broadcast-arity": ("broadcast", (0, 7), TypeError),
    # route(src, dst) and traverse(links, t_head, flits)
    "route-tile": ("route", (0, 16), ValueError),
    "route-type": ("route", ("a", 0), TypeError),
    "route-arity": ("route", (0,), TypeError),
    "traverse-link": ("traverse", ((0, 999), 0.0, 1), ValueError),
    "traverse-link-type": ("traverse", ((0, None), 0.0, 1), TypeError),
    "traverse-links-type": ("traverse", (5, 0.0, 1), TypeError),
    "traverse-flits": ("traverse", ((0,), 0.0, 0), ValueError),
    "traverse-flits-type": ("traverse", ((0,), 0.0, "9"), TypeError),
    "traverse-time": ("traverse", ((0,), -3.0, 1), ValueError),
    "traverse-arity": ("traverse", ((0,), 0.0), TypeError),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_rejected_call_raises_typed_and_changes_nothing(case):
    method, args, error = BAD_CALLS[case]
    kernel = loaded_kernel()
    before = snapshot(kernel)
    with pytest.raises(error):
        getattr(kernel, method)(*args)
    assert snapshot(kernel) == before


#: The tile cases of BAD_CALLS, which the twin must refuse the same way.
TILE_CASES = (
    "unicast-src-high", "unicast-src-negative", "unicast-dst-high", "chain-dst",
    "many-last-target", "many-src", "broadcast-root", "route-tile",
)


@pytest.mark.parametrize("case", TILE_CASES)
def test_twin_rejects_out_of_range_tiles_and_changes_nothing(case):
    method, args, error = BAD_CALLS[case]
    kernel = loaded_kernel("fallback")
    before = snapshot(kernel)
    with pytest.raises(error, match="tile"):
        getattr(kernel, method)(*args)
    assert snapshot(kernel) == before


def test_long_sequences_take_the_heap_path():
    """More than 64 targets or links: the argument buffers come from the
    heap, with the same checks and results."""
    kernel = compiled_class()(16, 2.0, FLITS)
    twin = make_kernel("fallback", 16)
    targets = [i % 16 for i in range(100)]
    assert kernel.traverse_many(0, targets, MsgType.INV_REQ, 5.0) == twin.traverse_many(
        0, targets, MsgType.INV_REQ, 5.0
    )
    before = snapshot(kernel)
    with pytest.raises(ValueError):
        kernel.traverse_many(0, targets + [16], MsgType.INV_REQ, 5.0)
    with pytest.raises(ValueError):
        kernel.traverse(tuple(range(70)) + (999,), 5.0, 1)
    assert snapshot(kernel) == before
    links = tuple(i % kernel.num_links for i in range(70))
    assert kernel.traverse(links, 5.0, 1) == twin.traverse(links, 5.0, 1)


@pytest.mark.parametrize(
    "args, error",
    [
        ((15, 2.0, FLITS), ValueError),          # not a square
        ((0, 2.0, FLITS), ValueError),           # no tiles
        ((1 << 22, 2.0, FLITS), ValueError),     # square, but too large
        ((16, 2.5, FLITS), ValueError),          # fractional hop latency
        ((16, 0.0, FLITS), ValueError),          # non-positive hop latency
        ((16, 2.0, ()), ValueError),             # empty flit table
        ((16, 2.0, (1,) * 65), ValueError),      # flit table too long
        ((16, 2.0, (1, 0)), ValueError),         # zero-flit message
        ((16, 2.0, (1, "2")), TypeError),        # non-integer flit count
        ((16, 2.0, 5), TypeError),               # flit table not a sequence
        ((16, "2", FLITS), TypeError),           # hop latency not a number
    ],
)
def test_constructor_rejects_bad_geometry(args, error):
    with pytest.raises(error):
        compiled_class()(*args)


def test_geometry_is_read_only_and_counters_are_not_deletable():
    kernel = compiled_class()(4, 2.0, FLITS)
    with pytest.raises(AttributeError):
        kernel.num_tiles = 9
    with pytest.raises(TypeError):
        del kernel.messages_sent
    kernel.messages_sent = 7
    assert kernel.messages_sent == 7


def test_word_path_chain_rejects_a_foreign_mesh(monkeypatch):
    """The scheduler kernel's DLS word path reserves through the exported
    chain entry, which checks its tiles too: handed a 1-tile mesh kernel
    for a 16-core run, the first remote word access raises a typed error
    and nothing is reserved on that kernel."""
    if accel.sched_kernel_class() is None:
        pytest.skip("compiled scheduler kernel unavailable")
    foreign = compiled_class()(1, 2.0, FLITS)
    original = DLSEngine.scheduler_word_path

    def with_foreign_mesh(self):
        word = original(self)
        assert word is not None, "the word path needs both compiled kernels"
        return {**word, "mesh": foreign}

    monkeypatch.setattr(DLSEngine, "scheduler_word_path", with_foreign_mesh)
    trace = load_workload("radix", ARCH16, scale="tiny")
    with pytest.raises(ValueError, match="mesh chain argument out of range"):
        Simulator(ARCH16, dls_protocol()).run(trace)
    assert foreign.messages_sent == foreign.flits_sent == 0
    assert foreign.link_flit_traversals == 0
    assert foreign.overflow_len() == 0


def test_reset_stats_zeroes_kernel_counters(monkeypatch):
    """``ProtocolEngineBase.reset_stats`` zeroes the traffic counters and
    the per-entry call counts through ``MeshNetwork``'s properties, on
    whichever kernel the engine's network holds."""
    for disabled in ("", "1"):
        monkeypatch.setenv(accel.NO_ACCEL_MESH_ENV, disabled)
        engine = make_engine(ARCH16, dls_protocol())
        network = engine.network
        network.unicast(0, 5, MsgType.LINE_REPLY, 0.0)
        network.traverse_chain(1, 9, MsgType.READ_REQ, 3.0, 0.0, 7.0, MsgType.WORD_REPLY)
        network.traverse_many(2, [0, 2, 7], MsgType.INV_REQ, 4.0)
        network.broadcast(3, MsgType.INV_BROADCAST, 5.0)
        network.traverse_path(network.resolve_path(0, 3), 6.0, 2)
        assert network.messages_sent == 7
        assert network.flits_sent > 0 and network.link_flit_traversals > 0
        assert all(calls == 1 for calls in network.crossings.values())
        engine.reset_stats()
        assert network.messages_sent == network.flits_sent == 0
        assert network.link_flit_traversals == network.router_flit_traversals == 0
        assert network.slot_recycles == 0
        assert set(network.crossings.values()) == {0}
        assert network.reserved_flits() > 0  # reservations stay warm


def test_sanitize_mode_has_its_own_artifact_and_flags(monkeypatch, tmp_path):
    monkeypatch.setenv(build.CACHE_ENV, str(tmp_path))
    monkeypatch.delenv(build.SANITIZE_ENV, raising=False)
    plain = build.artifact_paths()
    assert not set(build.SANITIZE_FLAGS) & set(build.compile_flags())
    monkeypatch.setenv(build.SANITIZE_ENV, "1")
    sanitized = build.artifact_paths()
    assert sanitized[0] != plain[0] and sanitized[1] != plain[1]
    assert sanitized[0].parent == plain[0].parent
    assert set(build.SANITIZE_FLAGS) <= set(build.compile_flags())
