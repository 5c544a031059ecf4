"""Victim Replication baseline (Zhang & Asanovic, ISCA'05; paper Section 2.1).

Victim Replication (VR) starts from the same Private-L1 / Shared-L2
organization and uses the **local L2 slice as a victim cache** for lines
evicted from the L1: a subsequent miss on the victim hits the local slice
and is serviced without a network round-trip to the home.  The paper calls
out VR's central weakness - it "places all L1 cache victims into the local
L2 cache irrespective of whether they will be re-used in the future" - and
the comparison bench quantifies exactly that against the locality-aware
protocol.

Implementation notes (documented substitutions, see DESIGN.md):

* **Replicas are clean.**  A MODIFIED victim writes its data back to the
  home (EVICT_DIRTY, as in the baseline) and keeps a clean local replica;
  the original VR keeps dirty replicas locally.  This sidesteps remote
  ownership tracking while preserving VR's defining behaviour - local
  re-use of L1 victims - at the cost of charging write-back traffic the
  original would sometimes defer.
* **Sharer semantics.**  A replica counts as the core's copy: the core
  stays in the home directory's sharer set, so exclusive requests
  invalidate replicas exactly like L1 copies (one ack per true copy).
  A SHARED victim therefore replicates with *zero* network traffic.
* **Replacement preference.**  A replica may claim a free way, another
  replica (LRU) or an idle home line (no sharers; clean preferred).  It
  never displaces a home line with active sharers - the original VR's
  rule - and the victim is simply not replicated when no candidate exists.
"""

from __future__ import annotations

from repro.common.errors import CoherenceError
from repro.common.types import MESIState
from repro.mem.l2 import L2Line, L2Slice
from repro.network.messages import MsgType
from repro.protocol.base import _EVER_CACHED, _LAST_REMOVAL_INVAL, AccessResult
from repro.protocol.directory import DirectoryEngine


class VictimReplicationEngine(DirectoryEngine):
    """Protocol engine with victim replication in the local L2 slices."""

    __slots__ = (
        "replicas_created",
        "replica_hits",
        "replica_invalidations",
        "replica_evictions",
        "replication_failures",
    )

    def __init__(self, arch, proto, verify: bool = False) -> None:
        super().__init__(arch, proto, verify)
        # Statistics.
        self.replicas_created = 0
        self.replica_hits = 0
        self.replica_invalidations = 0
        self.replica_evictions = 0
        self.replication_failures = 0

    def reset_stats(self) -> None:
        """Also zero the replica counters for warmup/measure runs."""
        super().reset_stats()
        self.replicas_created = 0
        self.replica_hits = 0
        self.replica_invalidations = 0
        self.replica_evictions = 0
        self.replication_failures = 0

    def export_stats(self, stats) -> None:
        stats.replicas_created = self.replicas_created
        stats.replica_hits = self.replica_hits
        stats.replica_invalidations = self.replica_invalidations
        stats.replica_evictions = self.replica_evictions

    # ------------------------------------------------------------------
    # Fast path: L1 miss that hits a local replica.
    # ------------------------------------------------------------------
    def _service_miss(self, core, is_write, line, word, now, upgrade):
        if not is_write and not upgrade:
            local = self.l2[core]
            entry = local.lookup(line)
            if entry is not None and entry.is_replica:
                return self._replica_hit(core, line, word, entry, local, now)
        return super()._service_miss(core, is_write, line, word, now, upgrade)

    def _replica_hit(
        self,
        core: int,
        line: int,
        word: int,
        replica: L2Line,
        local: L2Slice,
        now: float,
    ) -> AccessResult:
        """Service a read miss from the local replica: no network traffic.

        The replica is promoted back into the L1 (and freed); the home
        directory still lists this core as a sharer, so no message is
        needed.  This is VR's entire benefit: a shared-L2 hit at private-L2
        latency.
        """
        self.replica_hits += 1
        local.hits += 1
        local.line_reads += 1
        self.energy.l2_tag_accesses += 1
        self.energy.l2_line_reads += 1
        t = now + self._l2_latency
        local.touch(replica, t)

        result = AccessResult()
        flags = self._history[core].get(line, 0)
        result.miss_type = self._classify_miss(flags, upgrade=False, serviced_remote=False)
        self.miss_stats.record_miss(result.miss_type)
        self._history[core][line] = flags | _EVER_CACHED

        data = list(replica.data) if self.verify and replica.data is not None else None
        local.remove(line)
        evicted = self.l1d[core].fill(line, MESIState.SHARED, t, data)
        self.energy.l1d_line_fills += 1
        if evicted is not None:
            self._handle_l1_eviction(core, evicted[0], evicted[1], t)
        self.energy.l1d_reads += 1
        if self.verify:
            l1entry = self.l1d[core].lookup(line)
            self.golden.check_read(line, word, l1entry.data[word], f"replica hit core {core}")
        result.latency = t - now
        result.l1_to_l2 = result.latency
        return result

    # ------------------------------------------------------------------
    # L1 evictions: try to keep the victim as a local replica.
    # ------------------------------------------------------------------
    def _handle_l1_eviction(self, core, vline, ventry, t):
        vhome = self._home_of_line.get(vline)
        if vhome is None:
            raise CoherenceError(f"evicting line {vline:#x} with unknown home")
        if vhome == core:
            # The home slice is local: a replica would duplicate it.
            super()._handle_l1_eviction(core, vline, ventry, t)
            return
        local = self.l2[core]
        if not self._make_room_for_replica(core, vline, local, t):
            self.replication_failures += 1
            super()._handle_l1_eviction(core, vline, ventry, t)
            return

        self.evict_histogram.record(ventry.utilization)
        hist = self._history[core]
        hist[vline] = (hist.get(vline, 0) | _EVER_CACHED) & ~_LAST_REMOVAL_INVAL

        vslice = self.l2[vhome]
        vl2 = vslice.lookup(vline)
        if vl2 is None:
            raise CoherenceError(f"inclusion violation: L1 evicts {vline:#x} absent from L2")
        dirent = vl2.directory
        if ventry.state is MESIState.MODIFIED:
            # Write the dirty data home; the local replica stays clean.
            self.network.unicast(core, vhome, MsgType.EVICT_DIRTY, t)
            self.energy.l1d_line_reads += 1
            self.energy.l2_line_writes += 1
            vl2.dirty = True
            if self.verify:
                vl2.data = list(ventry.data)
            self.sharer_policy.clear_owner(dirent)
        elif ventry.state is MESIState.EXCLUSIVE:
            # Tell the home it lost its exclusive owner (kept as a sharer).
            self.network.unicast(core, vhome, MsgType.EVICT_NOTIFY, t)
            self.sharer_policy.clear_owner(dirent)
        # SHARED victims replicate silently: the home already lists the core
        # as a sharer and nothing else changes - zero traffic.

        replica = L2Line()
        replica.is_replica = True
        replica.last_access = t
        if self.verify:
            replica.data = list(ventry.data) if ventry.data is not None else None
        displaced = local.store.insert(vline, replica)
        if displaced is not None:  # cannot happen: room was made above
            raise CoherenceError("replica insert displaced a line after making room")
        self.energy.l2_line_writes += 1
        self.replicas_created += 1

    # ------------------------------------------------------------------
    def _make_room_for_replica(self, core: int, vline: int, local: L2Slice, t: float) -> bool:
        """Free a way for a replica of ``vline``; True when one is available.

        Preference order (the original VR's rule): free way > LRU replica >
        idle clean home line > idle dirty home line.  Home lines with
        sharers are never displaced.
        """
        store = local.store
        if store.has_free_way(vline):
            return True
        entries = store.entries_in_set(vline)
        replicas = [(ln, e) for ln, e in entries if e.is_replica]
        if replicas:
            ln, entry = min(replicas, key=lambda item: item[1].last_use)
            self._drop_replica(core, ln, entry, t)
            return True
        idle = [
            (ln, e)
            for ln, e in entries
            if not e.is_replica and not e.directory.sharers
        ]
        if not idle:
            return False
        clean_idle = [(ln, e) for ln, e in idle if not e.dirty]
        ln, entry = min(clean_idle or idle, key=lambda item: item[1].last_use)
        self._evict_l2_line(core, ln, entry, t)
        store.pop(ln)
        return True

    def _drop_replica(self, core: int, line: int, replica: L2Line, t: float) -> None:
        """Discard a local replica, releasing its sharer slot at the home."""
        home = self._home_of_line.get(line)
        if home is None:
            raise CoherenceError(f"replica of line {line:#x} with unknown home")
        self.l2[core].store.pop(line)
        self.network.unicast(core, home, MsgType.EVICT_NOTIFY, t)
        homeline = self.l2[home].lookup(line)
        if homeline is None:
            raise CoherenceError(f"replica of {line:#x} outlived its home line")
        self.sharer_policy.remove_sharer(homeline.directory, core)
        self.energy.directory_updates += 1
        self.replica_evictions += 1

    # ------------------------------------------------------------------
    # Coherence: replicas answer invalidations like L1 copies.
    # ------------------------------------------------------------------
    def _purge_target_copy(self, core, line, l2line, merge_into_l2):
        l1entry = self.l1d[core].lookup(line)
        if l1entry is not None:
            return super()._purge_target_copy(core, line, l2line, merge_into_l2)
        replica = self.l2[core].lookup(line)
        if replica is None or not replica.is_replica:
            raise CoherenceError(
                f"directory lists core {core} for line {line:#x} but it holds "
                "neither an L1 copy nor a replica"
            )
        self.l2[core].remove(line)
        self.replica_invalidations += 1
        hist = self._history[core]
        hist[line] = hist.get(line, 0) | _LAST_REMOVAL_INVAL
        return MsgType.INV_ACK  # replicas are clean: never any data to return

    # ------------------------------------------------------------------
    # The requester's own replica dies when it receives a private copy.
    # (_grant_private: every private miss runs it once its reply leg is
    # reserved, chained or not.)
    # ------------------------------------------------------------------
    def _grant_private(self, core, is_write, line, word, l2line, slice_, upgrade, reply_t):
        own = self.l2[core].lookup(line)
        if own is not None and own.is_replica:
            self.l2[core].remove(line)
            self.replica_evictions += 1
        super()._grant_private(core, is_write, line, word, l2line, slice_, upgrade, reply_t)

    # ------------------------------------------------------------------
    # L2 victim selection may hit a replica (it has no directory state).
    # ------------------------------------------------------------------
    def _evict_l2_line(self, home, vline, ventry, t):
        if ventry.is_replica:
            self._drop_replica(home, vline, ventry, t)
            return
        super()._evict_l2_line(home, vline, ventry, t)
