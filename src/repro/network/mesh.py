"""Mesh timing and traffic accounting.

Implements the Table-1 network model: 2-cycle hop latency (1 router +
1 link), 64-bit flits, wormhole-style serialization and *link contention
only* (infinite input buffers).  The tail of an ``F``-flit message arrives
``F - 1`` cycles after its head.

Contention uses **epoch-based bandwidth accounting**: each directed link
carries at most one flit per cycle, tracked in fixed-width epochs.  A
message consumes capacity in the epochs it traverses and is delayed to the
first epoch with spare capacity.  Unlike a single "next-free-time" high-water
mark, this lets messages use a link *before* reservations made further in
the future (the simulator schedules some events, e.g. DRAM replies, ahead of
time), so transient bursts don't cascade into phantom chip-wide congestion
while sustained saturation still queues realistically.

Storage is a **windowed ring buffer** (DESIGN.md section 8): one contiguous
``WINDOW_EPOCHS x num_links`` slot table indexed ``(epoch % WINDOW) *
num_links + link`` over *dense* link ids.  Each slot packs the epoch it
currently represents and that epoch's occupancy into a single small int
(``epoch * 64 + flits``), so the hottest loop in the simulator does one
list index, one subtraction and one compare per link instead of a dict
probe per link.  A traversal in a newer epoch recycles its slot lazily; the
retired occupancy is flushed into an overflow dict, and epochs a slot does
not currently represent (far-future DRAM reservations, long-retired epochs)
are read and written there.  The combination (slots + overflow) always
encodes exactly the same epoch -> occupancy map as the flat-dict model it
replaces - same reservations, same departure times, bit-identical runs.

**Kernels.**  Everything per message - route resolution and the route
memo, the flit table, the ring buffer, the traffic counters and the calls
per entry point - lives in a *mesh kernel*.  Callers address messages by
tile id and message type only: ``unicast`` (one leg), ``traverse_chain``
(a request and its reply), ``traverse_many`` (one message per target) and
``broadcast``.  ``MeshNetwork``'s methods are one-line forwards to its
kernel: the compiled ``MeshKernel`` when :mod:`repro.accel` can build its
C extension (and ``REPRO_NO_ACCEL``/``REPRO_NO_ACCEL_MESH`` are unset),
else :class:`_PyMeshKernel` below, a pure-Python twin with the same
methods.  The twin is the ungated fallback and the semantic reference:
the compiled kernel replicates it bit for bit (same per-link float
accumulation, same recycle/overflow hand-off), pinned by the contention
property tests run against both (DESIGN.md section 12).  Only the
epoch-accounting link model is compiled; the naive and no-contention
ablations always run the twin.

The mesh also counts router and link flit traversals, which the energy model
converts into dynamic energy (DSENT-like, Section 4.2).
"""

from __future__ import annotations

from repro import accel as _accel
from repro.common.params import ArchConfig
from repro.network.messages import MsgType, message_flits
from repro.network.topology import Mesh2D

#: Cycles per bandwidth-accounting epoch.  One flit per cycle per link,
#: so each epoch holds EPOCH_CYCLES flits of capacity.  Must stay a power
#: of two: the hot path computes epochs as ``int(t) >> EPOCH_SHIFT``.
EPOCH_CYCLES = 32
EPOCH_SHIFT = 5
assert EPOCH_CYCLES == 1 << EPOCH_SHIFT
_EPOCH_MASK = EPOCH_CYCLES - 1

#: Ring-buffer window width in epochs (power of two).  128 epochs x 32
#: cycles = 4096 cycles of in-window coverage per ring position; epochs a
#: slot does not currently represent spill to the overflow dict (exact,
#: just slower).
WINDOW_EPOCHS = 128
_WINDOW_MASK = WINDOW_EPOCHS - 1
assert WINDOW_EPOCHS & _WINDOW_MASK == 0

#: Slot packing: ``value = epoch * _SLOT_STRIDE + occupancy``.  Occupancy
#: never exceeds EPOCH_CYCLES (32), so 6 bits suffice.
_SLOT_SHIFT = 6
_SLOT_STRIDE = 1 << _SLOT_SHIFT
_SLOT_OCC_MASK = _SLOT_STRIDE - 1
assert EPOCH_CYCLES < _SLOT_STRIDE

#: The kernels' message entry points, as counted per call
#: (``calls_<entry>``) and emitted by the simulator's telemetry as
#: ``mesh.crossings.<entry>``.
CROSSING_ENTRIES = ("unicast", "chain", "many", "broadcast")


class _PyMeshKernel:
    """Pure-Python twin of the compiled ``MeshKernel``: the same methods,
    counters and results, bit for bit (DESIGN.md section 12).

    Owns the route memo, the flit table, the ring buffer (``slots`` list
    plus ``overflow`` dict), the traffic counters and the per-entry call
    counters of one :class:`MeshNetwork`.  Also runs the naive and
    no-contention link models, which have no compiled form.  Slotted: the
    counters and the ring buffer are read on every message.
    """

    __slots__ = (
        "topology",
        "num_tiles",
        "num_links",
        "link_bits",
        "_mode",
        "_dense_link",
        "slots",
        "overflow",
        "_link_free_at",
        "_routes",
        "_bcast_edges",
        "_flits",
        "_hop",
        "slot_recycles",
        "link_flit_traversals",
        "messages_sent",
        "flits_sent",
        "calls_unicast",
        "calls_chain",
        "calls_many",
        "calls_broadcast",
    )

    def __init__(
        self, topology: Mesh2D, mode: int, hop_latency: int, flits: tuple[int, ...]
    ) -> None:
        self.topology = topology
        num_tiles = topology.num_tiles
        self.num_tiles = num_tiles
        #: 0 = epoch accounting (the default), 1 = naive, 2 = no contention.
        self._mode = mode
        #: Dense link numbering: position in ``topology.directed_links()``.
        #: ``_dense_link`` maps the sparse ``src * num_tiles + dst`` encoding
        #: to the dense id (-1 for non-links).
        links = topology.directed_links()
        self.num_links = len(links)
        self._dense_link = [-1] * (num_tiles * num_tiles)
        for dense, (src, dst) in enumerate(links):
            self._dense_link[src * num_tiles + dst] = dense
        self.link_bits = (self.num_links - 1).bit_length()
        #: Ring-buffer slot table: position ``(epoch % WINDOW) * num_links
        #: + link`` holds ``epoch * 64 + occupancy`` for the epoch that
        #: currently owns the slot.  A plain list, not an ``array``: slot
        #: values are ints either way, and list indexing skips the
        #: box/unbox step of ``array('q')`` on the hot path.
        self.slots: list[int] = [0] * (WINDOW_EPOCHS * self.num_links)
        #: Exact spill storage for epochs a slot does not currently
        #: represent, keyed ``(epoch << link_bits) | link``: far-future
        #: reservations (e.g. DRAM replies scheduled ahead) and retired
        #: occupancy flushed on slot recycling.  Invariant: an entry for
        #: (epoch, link) exists only while the owning slot's epoch is newer
        #: than ``epoch``, so the slot table and the overflow dict always
        #: partition the epoch -> occupancy map exactly.
        self.overflow: dict[int, int] = {}
        self._link_free_at: dict[int, float] = {}
        #: Flat (src * num_tiles + dst) route memo of reserved-path
        #: descriptors (see ``_path``), filled on first use.
        self._routes: list[tuple | None] = [None] * (num_tiles * num_tiles)
        #: Per-root broadcast tree with pre-resolved dense link ids.
        self._bcast_edges: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._flits = flits
        self._hop = hop_latency
        #: Ring-buffer slots recycled for a newer epoch (telemetry: how
        #: often the window wrapped past live occupancy; not in RunStats).
        self.slot_recycles = 0
        # Traffic counters (inputs to the energy model).  Router traversals
        # are derived: every flit that crosses H links visits H + 1 routers,
        # so router = link + flits summed over messages (holds for the
        # broadcast tree too: num_tiles routers, num_tiles - 1 edges).
        self.link_flit_traversals = 0
        self.messages_sent = 0
        self.flits_sent = 0
        self.calls_unicast = 0
        self.calls_chain = 0
        self.calls_many = 0
        self.calls_broadcast = 0

    # ------------------------------------------------------------------
    def _descriptor(self, links: tuple[int, ...]) -> tuple:
        """The reserved-path descriptor ``(links, hops, span, phase_limit)``:
        the dense link ids, their count, the total hop latency and the
        largest arrival-epoch phase for which every head of the message
        stays inside the arrival epoch - everything :meth:`_walk` would
        otherwise recompute per message."""
        hops = len(links)
        hop = self._hop
        return (links, hops, hops * hop, EPOCH_CYCLES - 1 - (hops - 1) * hop)

    def _path(self, src: int, dst: int) -> tuple:
        """The memoized descriptor of the XY route src -> dst; ``src ==
        dst`` yields the empty route (a same-tile "message" never enters
        the network)."""
        key = src * self.num_tiles + dst
        path = self._routes[key]
        if path is None:
            dense = self._dense_link
            path = self._descriptor(
                tuple(dense[link] for link in self.topology.route(src, dst))
            )
            self._routes[key] = path
        return path

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """The XY route src -> dst as dense link ids (memoized)."""
        num_tiles = self.num_tiles
        if not (0 <= src < num_tiles and 0 <= dst < num_tiles):
            self._bad_tile(src, dst)
        return self._path(src, dst)[0]

    def _bad_tile(self, *tiles: int) -> None:
        """Raise for the first tile outside the mesh.  Every entry point
        checks its tiles before its first side effect, as the compiled
        kernel does: the flat route memo would alias an out-of-range pair
        onto another pair's route."""
        for tile in tiles:
            if not 0 <= tile < self.num_tiles:
                raise ValueError(f"tile {tile} outside 0..{self.num_tiles - 1}")

    def traverse(self, links, t_head: float, flits: int) -> float:
        """Send ``flits`` along an explicit link sequence; return the tail
        arrival."""
        return self._walk(self._descriptor(tuple(links)), t_head, flits)

    def unicast(self, src: int, dst: int, msg: MsgType, start: float) -> float:
        num_tiles = self.num_tiles
        if not (0 <= src < num_tiles and 0 <= dst < num_tiles):
            self._bad_tile(src, dst)
        self.calls_unicast += 1
        path = self._routes[src * num_tiles + dst] or self._path(src, dst)
        return self._walk(path, start, self._flits[msg])

    def traverse_chain(
        self,
        src: int,
        dst: int,
        msg1: MsgType,
        t0: float,
        busy_until: float,
        gap: float,
        msg2: MsgType,
    ) -> tuple[float, float]:
        num_tiles = self.num_tiles
        if not (0 <= src < num_tiles and 0 <= dst < num_tiles):
            self._bad_tile(src, dst)
        self.calls_chain += 1
        routes = self._routes
        path1 = routes[src * num_tiles + dst] or self._path(src, dst)
        path2 = routes[dst * num_tiles + src] or self._path(dst, src)
        t1 = self._walk(path1, t0, self._flits[msg1])
        start = busy_until if busy_until > t1 else t1
        return t1, self._walk(path2, start + gap, self._flits[msg2])

    def traverse_many(
        self, src: int, dsts: list[int], msg: MsgType, t_head: float
    ) -> list[float]:
        num_tiles = self.num_tiles
        if not 0 <= src < num_tiles or not all(0 <= dst < num_tiles for dst in dsts):
            self._bad_tile(src, *dsts)
        self.calls_many += 1
        routes = self._routes
        row = src * num_tiles
        flits = self._flits[msg]
        walk = self._walk
        return [
            walk(routes[row + dst] or self._path(src, dst), t_head, flits)
            for dst in dsts
        ]

    def broadcast(self, root: int, msg: MsgType, start: float) -> dict[int, float]:
        if not 0 <= root < self.num_tiles:
            self._bad_tile(root)
        self.calls_broadcast += 1
        flits = self._flits[msg]
        arrival: dict[int, float] = {root: start}
        edges = self._bcast_edges.get(root)
        if edges is None:
            dense = self._dense_link
            num_tiles = self.num_tiles
            edges = tuple(
                (src, dst, dense[src * num_tiles + dst])
                for src, dst in self.topology.broadcast_tree(root)
            )
            self._bcast_edges[root] = edges
        hop = self._hop
        tail = flits - 1
        contended = self._mode != 2
        traverse = self._traverse_link
        for src, dst, link in edges:
            t_head = arrival[src] - tail if src != root else start
            if t_head < start:
                t_head = start
            if contended:
                t_head = traverse(link, t_head, flits) + hop
            else:
                t_head = t_head + hop
            arrival[dst] = t_head + tail
        # router traversals (flits * num_tiles) are derived: link
        # traversals (flits * (num_tiles - 1) tree edges) + flits_sent.
        self.link_flit_traversals += flits * len(edges)
        self.messages_sent += 1
        self.flits_sent += flits
        return arrival

    def reset(self) -> None:
        """Forget all link reservations, in place (the owning network's
        slot view stays valid)."""
        self.slots[:] = [0] * len(self.slots)
        self.overflow.clear()
        self._link_free_at.clear()

    def overflow_len(self) -> int:
        return len(self.overflow)

    def overflow_items(self) -> list[tuple[int, int]]:
        return list(self.overflow.items())

    # ------------------------------------------------------------------
    # Occupancy plumbing (slow paths): one (link, epoch) cell at a time,
    # window slot or overflow dict as the slot's epoch tag dictates.
    # ------------------------------------------------------------------
    def _occ_load(self, link: int, epoch: int) -> int:
        value = self.slots[(epoch & _WINDOW_MASK) * self.num_links + link]
        if value >> _SLOT_SHIFT == epoch:
            return value & _SLOT_OCC_MASK
        return self.overflow.get((epoch << self.link_bits) | link, 0)

    def _occ_store(self, link: int, epoch: int, occupancy: int) -> None:
        slot = (epoch & _WINDOW_MASK) * self.num_links + link
        value = self.slots[slot]
        tag = value >> _SLOT_SHIFT
        if tag == epoch:
            self.slots[slot] = (epoch << _SLOT_SHIFT) | occupancy
        elif tag < epoch:
            # Recycle the slot for the newer epoch; the retired occupancy
            # stays exactly readable through the overflow dict.
            self.slot_recycles += 1
            old = value & _SLOT_OCC_MASK
            if old:
                self.overflow[(tag << self.link_bits) | link] = old
            self.slots[slot] = (epoch << _SLOT_SHIFT) | occupancy
        else:
            # The slot belongs to a newer epoch (a reservation further in
            # the future already claimed it): this epoch lives in overflow.
            self.overflow[(epoch << self.link_bits) | link] = occupancy

    def _traverse_naive(self, link: int, t_head: float, flits: int) -> float:
        """Single next-free-time per link (the ablation model).

        A reservation made for the *future* (e.g. a DRAM reply scheduled
        ahead) pushes the high-water mark forward and blocks earlier traffic
        on an idle link; the ablation bench quantifies the resulting phantom
        congestion against the epoch model.
        """
        free_at = self._link_free_at.get(link, 0.0)
        depart = t_head if t_head >= free_at else free_at
        self._link_free_at[link] = depart + flits
        return depart

    def _traverse_link(self, link: int, t_head: float, flits: int) -> float:
        """Reserve ``flits`` of bandwidth on one link; return head depart time."""
        if self._mode == 1:
            return self._traverse_naive(link, t_head, flits)
        # Times are non-negative, so ``int(t) >> EPOCH_SHIFT`` equals
        # ``int(t // EPOCH_CYCLES)`` without the float division.
        epoch = int(t_head) >> EPOCH_SHIFT
        slots = self.slots
        slot = (epoch & _WINDOW_MASK) * self.num_links + link
        value = slots[slot]
        ebase = epoch << _SLOT_SHIFT
        if value <= ebase + EPOCH_CYCLES - flits:
            if value >= ebase:
                slots[slot] = value + flits
                return t_head
            if flits <= EPOCH_CYCLES:
                self.slot_recycles += 1
                old = value & _SLOT_OCC_MASK
                if old:
                    self.overflow[((value >> _SLOT_SHIFT) << self.link_bits) | link] = old
                slots[slot] = ebase | flits
                return t_head
        return self._traverse_congested(link, epoch, t_head, flits)

    def _traverse_congested(self, link: int, epoch: int, t_head: float, flits: int) -> float:
        """Slow path: the arrival epoch cannot hold the whole message."""
        first = epoch
        while self._occ_load(link, epoch) >= EPOCH_CYCLES:
            epoch += 1
        depart = t_head if epoch == first else float(epoch * EPOCH_CYCLES)
        remaining = flits
        while remaining > 0:
            used = self._occ_load(link, epoch)
            take = EPOCH_CYCLES - used
            if take > remaining:
                take = remaining
            self._occ_store(link, epoch, used + take)
            remaining -= take
            epoch += 1
        return depart

    # ------------------------------------------------------------------
    def _walk(
        self,
        path: tuple,
        t_head: float,
        flits: int,
        # Module constants bound as defaults: local loads on the hottest
        # code in the simulator instead of global lookups per call.
        _eshift: int = EPOCH_SHIFT,
        _emask: int = _EPOCH_MASK,
        _ecap: int = EPOCH_CYCLES,
        _wmask: int = _WINDOW_MASK,
        _sshift: int = _SLOT_SHIFT,
        _omask: int = _SLOT_OCC_MASK,
    ) -> float:
        """Send ``flits`` along a reserved-path descriptor; return the TAIL
        arrival.

        The empty route is a same-tile "message": it arrives instantly,
        consumes no network energy and is not counted - exactly why R-NUCA
        locates private data at the requester's own slice.

        This is the fallback's hottest loop.  The common shape - every hop
        lands in the head's arrival epoch (paths are <= 2W-2 hops of 2
        cycles against 32-cycle epochs) and every link has capacity - runs
        as a single pass of one list index, one subtract, two compares and
        one float add per link, with the epoch row resolved once for the
        whole path.  The head time accumulates ``+= hop`` per link (NOT one
        ``hops * hop`` add at the end: float addition of the hop latency is
        not associative for fractional times, and bit-identity to the
        per-link walk is contractual).  Epoch-crossing paths and contended
        or recycled slots fall back to the generic walk, which reserves
        identically.
        """
        links, hops, span, phase_limit = path
        if not hops:
            return t_head
        self.link_flit_traversals += flits * hops
        self.messages_sent += 1
        self.flits_sent += flits
        hop = self._hop
        mode = self._mode
        if mode:
            if mode == 2:
                return t_head + span + (flits - 1)
            traverse = self._traverse_naive
            for link in links:
                t_head = traverse(link, t_head, flits) + hop
            return t_head + (flits - 1)
        slots = self.slots
        num_links = self.num_links
        t_int = int(t_head)
        # Single-epoch fast pass: the last head departs at
        # t_int + (hops - 1) * hop, still inside the arrival epoch.
        if (t_int & _emask) <= phase_limit and flits <= _ecap:
            epoch = t_int >> _eshift
            row = (epoch & _wmask) * num_links
            ebase = epoch << _sshift
            spare = ebase + _ecap - flits
            for link in links:
                j = row + link
                value = slots[j]
                if value <= spare:
                    if value >= ebase:
                        # In-epoch slot with capacity: reserve and move on.
                        slots[j] = value + flits
                        t_head += hop
                        continue
                    # Stale slot: recycle it for this epoch (the retired
                    # occupancy stays readable through the overflow dict).
                    self.slot_recycles += 1
                    old = value & _omask
                    if old:
                        self.overflow[((value >> _sshift) << self.link_bits) | link] = old
                    slots[j] = ebase | flits
                    t_head += hop
                    continue
                break
            else:
                # Every head departed on arrival.
                return t_head + (flits - 1)
            # ``link`` was full or owned by a newer epoch: links before it
            # are already reserved and ``t_head`` is its head-arrival time;
            # resume the generic walk there, carrying the shadow integer
            # clock forward (XY routes never repeat a link, so index() is
            # unambiguous).
            i = links.index(link)
            t_int += i * hop
            links = links[i:]
        epoch = -1  # sentinel: the generic walk recomputes the row first
        row = -1
        ebase = 0
        spare = 0
        overflow = self.overflow
        link_bits = self.link_bits
        claim_ok = flits <= _ecap
        for link in links:
            e = t_int >> _eshift
            if e != epoch:
                epoch = e
                row = (e & _wmask) * num_links
                ebase = e << _sshift
                spare = ebase + _ecap - flits
            j = row + link
            value = slots[j]
            if value <= spare:
                if value >= ebase:
                    slots[j] = value + flits
                    t_head += hop
                    t_int += hop
                    continue
                if claim_ok:
                    self.slot_recycles += 1
                    old = value & _omask
                    if old:
                        overflow[((value >> _sshift) << link_bits) | link] = old
                    slots[j] = ebase | flits
                    t_head += hop
                    t_int += hop
                    continue
            t_head = self._traverse_congested(link, epoch, t_head, flits) + hop
            t_int = int(t_head)
            epoch = -1  # force a row recompute on the next link
        return t_head + (flits - 1)


def _kernel_attribute(name: str, doc: str) -> property:
    """A read/write property that lives on the network's kernel."""

    def get(self: MeshNetwork) -> int:
        return getattr(self._kernel, name)

    def set_(self: MeshNetwork, value: int) -> None:
        setattr(self._kernel, name, value)

    return property(get, set_, doc=doc)


class MeshNetwork:
    """Timing + traffic model for the electrical 2-D mesh.

    A thin front over one mesh kernel (see the module docstring): every
    message entry point is a single forward, and the traffic counters are
    properties over the kernel's.  The entry points stay methods of this
    class so that tools can wrap them at class level.
    """

    __slots__ = (
        "arch",
        "topology",
        "model_contention",
        "naive_contention",
        "num_links",
        "_link_bits",
        "_slots",
        "_kernel",
    )

    link_flit_traversals = _kernel_attribute(
        "link_flit_traversals", "Flits times links crossed (energy-model input)."
    )
    messages_sent = _kernel_attribute(
        "messages_sent", "Messages that entered the network (same-tile ones do not)."
    )
    flits_sent = _kernel_attribute("flits_sent", "Flits of those messages.")
    slot_recycles = _kernel_attribute(
        "slot_recycles",
        "Ring-buffer slots recycled for a newer epoch (telemetry; not in RunStats).",
    )

    def __init__(
        self,
        arch: ArchConfig,
        model_contention: bool | None = None,
        accel: bool | None = None,
    ) -> None:
        self.arch = arch
        self.topology = Mesh2D(arch.num_cores)
        #: ``model_contention`` overrides ``arch.link_model`` when given
        #: (kept for tests that construct networks directly).
        if model_contention is None:
            self.model_contention = arch.link_model != "none"
        else:
            self.model_contention = model_contention
        self.naive_contention = arch.link_model == "naive"
        if not self.model_contention:
            mode = 2
        elif self.naive_contention:
            mode = 1
        else:
            mode = 0
        # Flit count per message type (``message_flits`` depends only on
        # the type and the arch constants), handed to the kernel once.
        flits = tuple(message_flits(msg, arch) for msg in MsgType)
        # ``accel`` overrides the automatic kernel selection for tests:
        # ``False`` forces the twin, ``True`` demands the compiled kernel
        # (raising if it is unavailable), ``None`` follows ``repro.accel``
        # (compiled-and-loadable unless REPRO_NO_ACCEL).  Only the
        # epoch-accounting mode is compiled.
        kernel = None
        if mode == 0 and accel is not False:
            kernel_cls = _accel.mesh_kernel_class()
            if kernel_cls is not None:
                kernel = kernel_cls(
                    self.topology.num_tiles, float(arch.hop_latency), flits
                )
                #: The same memory the kernel mutates, viewed as flat
                #: int64 - the introspection methods below read slots
                #: identically in both implementations.
                self._slots = memoryview(kernel).cast("q")
            elif accel is True:
                raise RuntimeError(
                    "mesh accelerator requested but unavailable: "
                    f"{_accel.status()['reason']}"
                )
        if kernel is None:
            kernel = _PyMeshKernel(self.topology, mode, arch.hop_latency, flits)
            self._slots = kernel.slots
        self._kernel = kernel
        self.num_links = kernel.num_links
        self._link_bits = kernel.link_bits

    # ------------------------------------------------------------------
    @property
    def router_flit_traversals(self) -> int:
        """Derived traffic counter (see ``_PyMeshKernel.__init__``); kept in
        sync with the other counters by construction, including across
        ``reset_stats``."""
        return self.link_flit_traversals + self.flits_sent

    @property
    def crossings(self) -> dict[str, int]:
        """Calls per kernel entry point (see ``CROSSING_ENTRIES``)."""
        kernel = self._kernel
        return {entry: getattr(kernel, f"calls_{entry}") for entry in CROSSING_ENTRIES}

    def reset_crossings(self) -> None:
        """Zero the per-entry call counters (the warmup/measure boundary)."""
        for entry in CROSSING_ENTRIES:
            setattr(self._kernel, f"calls_{entry}", 0)

    @property
    def overflow_entries(self) -> int:
        """Entries in the ring buffer's overflow map."""
        return self._kernel.overflow_len()

    @property
    def implementation(self) -> str:
        """Which mesh kernel this instance runs."""
        return "fallback" if isinstance(self._kernel, _PyMeshKernel) else "accel"

    def reset_contention(self) -> None:
        """Forget all link reservations (used between independent runs)."""
        self._kernel.reset()

    def resolve_path(self, src: int, dst: int) -> tuple[int, ...]:
        """The XY route src -> dst as dense link ids (memoized by the
        kernel); ``src == dst`` yields the empty route."""
        return self._kernel.route(src, dst)

    # ------------------------------------------------------------------
    def traverse_path(self, path, t_head: float, flits: int) -> float:
        """Send ``flits`` along ``path`` (dense link ids, e.g. from
        :meth:`resolve_path`); return the TAIL arrival.  An empty path
        arrives at ``t_head``, uncounted."""
        return self._kernel.traverse(path, t_head, flits)

    def traverse_chain(
        self,
        src: int,
        dst: int,
        msg1: MsgType,
        t0: float,
        busy_until: float,
        gap: float,
        msg2: MsgType,
    ) -> tuple[float, float]:
        """Reserve the round trip src -> dst -> src in one call.

        Exactly equivalent to the composed sequence::

            t1 = unicast(src, dst, msg1, t0)              # request tail
            start = max(t1, busy_until)                   # wait out the line
            t2 = unicast(dst, src, msg2, start + gap)     # reply tail

        and returns ``(t1, t2)`` so the caller can still account the
        waiting time (``busy_until - t1``).  A same-tile round trip takes
        two empty routes and returns ``(t0, max(t0, busy_until) + gap)``.
        """
        return self._kernel.traverse_chain(src, dst, msg1, t0, busy_until, gap, msg2)

    def traverse_many(
        self, src: int, dsts: list[int], msg: MsgType, t_head: float
    ) -> list[float]:
        """Reserve one ``msg`` from ``src`` to each tile of ``dsts``, all
        departing at ``t_head``, in list order; return the per-target tail
        arrivals.

        The invalidation rounds of the directory families reserve one INV
        per sharer back to back - reservation *order* is contractual (it
        decides who gets the contended slot), and this preserves it in one
        kernel call for the whole round.
        """
        return self._kernel.traverse_many(src, dsts, msg, t_head)

    def unicast(self, src: int, dst: int, msg: MsgType, start: float) -> float:
        """Send one message; return the arrival time of its tail flit.

        A same-tile message takes the empty route: it arrives at ``start``,
        consumes no network energy and is not counted - exactly why R-NUCA
        locates private data at the requester's own slice.
        """
        return self._kernel.unicast(src, dst, msg, start)

    def broadcast(self, root: int, msg: MsgType, start: float) -> dict[int, float]:
        """Broadcast from ``root``; return per-tile tail arrival times.

        Each router replicates the message on its tree output links
        (``Mesh2D.broadcast_tree``), so the network carries exactly one
        copy per tree edge (``num_tiles - 1`` link traversals per flit) -
        the single-injection broadcast of Section 3.1.  Every tree edge
        reserves bandwidth through the same ring-buffer slot logic as
        unicast.
        """
        return self._kernel.broadcast(root, msg, start)

    # ------------------------------------------------------------------
    # Introspection (property tests / debugging; not on any hot path).
    # ------------------------------------------------------------------
    def reserved_flits(self) -> int:
        """Total bandwidth reserved across all epochs and links.

        Conservation invariant (pinned by the contention property tests):
        with the epoch model active this always equals
        ``link_flit_traversals`` - every flit crossing a link reserves
        exactly one cycle of capacity, wherever the window placed it.
        """
        return sum(value & _SLOT_OCC_MASK for value in self._slots) + sum(
            value for _key, value in self._kernel.overflow_items()
        )

    def occupancy_map(self) -> dict[tuple[int, int], int]:
        """The full (epoch, link) -> reserved-flits map, slots + overflow.

        Reconstructs exactly the mapping the PR-3 flat dict stored; the
        equivalence property test diffs it against a reference model.
        """
        out: dict[tuple[int, int], int] = {}
        num_links = self.num_links
        for position, value in enumerate(self._slots):
            occupancy = value & _SLOT_OCC_MASK
            if occupancy:
                out[(value >> _SLOT_SHIFT, position % num_links)] = occupancy
        mask = (1 << self._link_bits) - 1
        for key, value in self._kernel.overflow_items():
            if value:
                out[(key >> self._link_bits, key & mask)] = value
        return out
