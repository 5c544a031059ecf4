"""Neat: low-complexity coherence without sharer tracking (Zhang et al.;
PAPERS.md).

Neat belongs to the self-invalidation / self-downgrade family: the home
never tracks sharers and never sends invalidations.  Instead, writers make
their stores visible at the home themselves (self-downgrade) and readers
discard possibly-stale private copies themselves (self-invalidation).  This
removes the directory - the entire sharer-tracking and invalidation machinery
- at the cost of extra write traffic and reload misses on write-shared data.

Modeling substitutions (documented in DESIGN.md, "Comparison-baseline
protocol families"):

* **Eager self-downgrade.**  Every store is written through to the home L2
  at word granularity (``WRITE_REQ`` carries the word; the home answers with
  a ``WORD_WRITE_ACK``).  The original defers the downgrade flush to release
  boundaries and batches dirty words; eager write-through is the
  conservative endpoint of that spectrum and keeps the home word-accurate at
  every instant.  A writer that still holds a clean copy refreshes it in
  place, so its own reads keep hitting.
* **Version-checked self-invalidation.**  The original invalidates all
  shared lines at acquire boundaries, relying on data-race-freedom for
  correctness.  Our synthetic traces carry no DRF annotations, so we model
  the *effect* precisely instead of the trigger: the engine keeps one global
  version per line, bumped on every write; an L1 copy records the version it
  was fetched at, and a read hit on an out-of-date copy is treated as the
  self-invalidation (the copy is discarded and reloaded from the home, a
  SHARING miss).  Read-shared data therefore caches perfectly and
  write-shared data pays a reload per remote write - the same asymptotic
  behaviour, without ever serving stale data (which would break golden
  verification).
* **No coherence traffic, no inclusion.**  L1 copies are always clean
  SHARED, evictions are silent (no notification - there is nobody to
  notify), and an L2 eviction leaves L1 copies in place: they stay correct
  until the next write bumps the line version.
* **Release-boundary batching** (``neat_downgrade="release"``).  The
  published Neat defers the downgrade flush to release boundaries; with
  this mode the writer buffers dirty words in its own L1 copy
  (write-allocating on a write miss) and flushes each dirty line as ONE
  batched ``WB_DATA`` message when the simulator signals a release
  (unlock or barrier arrival, via :meth:`sync_boundary_hook`), bumping the
  line version once per flushed line.  A line with pending words is
  flushed early if its copy must die first (self-invalidation, L1
  eviction), and every core flushes at the end of the trace.  Flushes are
  fire-and-forget (off the critical path, like evictions).  Golden-memory
  verification models release visibility faithfully: a buffered word is
  ahead of the golden image only inside its writer (whose read hits skip
  the check for exactly those words), and the flush updates the home line
  and the golden image at the same simulation point - so readers verify
  even across the benign races the synthetic traces contain.

The net effect mirrors Neat's published trade-off: directory storage goes to
zero and invalidation rounds disappear, while store-heavy sharing patterns
pay per-word write-through traffic and reload misses.
"""

from __future__ import annotations

from repro.common import addr as addrmod
from repro.common.types import MESIState, MissType
from repro.network.messages import MsgType
from repro.protocol.base import (
    _EVER_CACHED,
    _EVER_REMOTE,
    _LAST_REMOVAL_INVAL,
    AccessResult,
    ProtocolEngineBase,
)


class NeatEngine(ProtocolEngineBase):
    """Self-invalidation / self-downgrade engine without sharer tracking."""

    __slots__ = (
        "_line_version",
        "_copy_version",
        "_release_batching",
        "_pending",
        "_flush_result",
        "self_invalidations",
        "write_throughs",
    )

    def __init__(self, arch, proto, verify: bool = False) -> None:
        super().__init__(arch, proto, verify)
        #: Global per-line write version; an L1 copy is valid while its
        #: recorded fetch version still matches.
        self._line_version: dict[int, int] = {}
        #: Per-core {line: version-at-fetch} for resident L1 copies.
        self._copy_version: list[dict[int, int]] = [dict() for _ in range(arch.num_cores)]
        #: Release-boundary self-downgrade batching (see module docstring).
        self._release_batching = proto.neat_downgrade == "release"
        #: Per-core {line: dirty-word bitmask} of buffered (unflushed) stores.
        self._pending: list[dict[int, int]] = [dict() for _ in range(arch.num_cores)]
        #: Scratch result for flush deliveries: _request_at_home records
        #: serialization/off-chip latency into it, and a flush (being off
        #: the critical path) discards both.
        self._flush_result = AccessResult()
        # Statistics.
        self.self_invalidations = 0
        self.write_throughs = 0

    def reset_stats(self) -> None:
        """Also zero the Neat counters for warmup/measure runs."""
        super().reset_stats()
        self.self_invalidations = 0
        self.write_throughs = 0

    def export_stats(self, stats) -> None:
        stats.self_invalidations = self.self_invalidations
        stats.write_throughs = self.write_throughs

    # ------------------------------------------------------------------
    def access(self, core: int, is_write: bool, address: int, now: float) -> AccessResult:
        """Service one load/store: version-checked read caching, write-through."""
        line = address >> addrmod.LINE_BITS
        word = (address >> addrmod.WORD_BITS) & (self._words_per_line - 1)
        l1 = self.l1d[core]
        entry = l1.lookup(line)

        if is_write and self._release_batching:
            return self._buffered_write(core, line, word, now, l1, entry)

        if entry is not None and not is_write:
            if self._copy_version[core].get(line) == self._line_version.get(line, 0):
                # Valid read hit: the copy is as fresh as the home.
                l1.hit(entry, now)
                self.miss_stats.record_hit()
                self.energy.l1d_reads += 1
                if self.verify:
                    # A word this core has buffered but not yet flushed
                    # (release mode) is ahead of the golden image by
                    # design: the writer sees its own store, the world
                    # sees it at the release flush.
                    if not (self._pending[core].get(line, 0) >> word) & 1:
                        self.golden.check_read(
                            line, word, entry.data[word], f"Neat hit core {core}"
                        )
                return self._hit_result
            # Stale copy: self-invalidate and reload from the home.
            self._self_invalidate(core, line, now)

        return self._service_at_home(core, is_write, line, word, now)

    def scheduler_fast_path(self) -> dict | None:
        """The L1 descriptor plus the version gate of :meth:`access`'s
        valid read hit: a resident read whose fetch version still matches
        the line version is pure tag-side bookkeeping, so the scheduler
        may service it inline.  Writes always call :meth:`access` (they
        write through or buffer).  Verify mode checks every hit against
        the golden memory and must take the full path."""
        if self.verify:
            return None
        return self._l1_fast_path(versions=(self._copy_version, self._line_version))

    # ------------------------------------------------------------------
    def _self_invalidate(self, core: int, line: int, t: float) -> None:
        """Discard ``core``'s (stale) copy of ``line``, recording the
        invalidation in the histogram and the miss-history flags.  Buffered
        stores of the dying copy (release mode) are flushed home first -
        they must not be lost."""
        if self._pending[core].get(line):
            self._flush_line(core, line, t)
        removed = self.l1d[core].remove(line)
        self._copy_version[core].pop(line, None)
        self.self_invalidations += 1
        self.inval_histogram.record(removed.utilization)
        hist = self._history[core]
        hist[line] = hist.get(line, 0) | _LAST_REMOVAL_INVAL

    # ------------------------------------------------------------------
    def _service_at_home(
        self, core: int, is_write: bool, line: int, word: int, now: float
    ) -> AccessResult:
        l1 = self.l1d[core]
        l1.misses += 1
        self.energy.l1d_tag_accesses += 1
        result = AccessResult()

        # ---- request to the home slice (writes carry the data word), and
        # the reply: WORD_WRITE_ACK for the eager downgrade, LINE_REPLY for
        # the line fetch.  The home-side bookkeeping below is
        # time-independent, so it runs after the reply leg is reserved.
        if is_write:
            req_msg, reply_msg = MsgType.WRITE_REQ, MsgType.WORD_WRITE_ACK
        else:
            req_msg, reply_msg = MsgType.READ_REQ, MsgType.LINE_REPLY
        slice_, l2line, t, reply_t = self._request_reply(
            core, line, req_msg, reply_msg, now, result
        )

        flags = self._history[core].get(line, 0)
        if is_write:
            # Classify against the copy the writer holds RIGHT NOW, before
            # _downgrade_settle refreshes or discards it: a write to a held
            # fresh copy is the upgrade case (store to a read-only line), a
            # write to a held stale copy is a sharing event (another core's
            # write killed the copy), and a copy-less write falls back to
            # the remote-access classification.
            held = self.l1d[core].lookup(line)
            if held is not None:
                fresh = self._copy_version[core].get(line) == self._line_version.get(line, 0)
                result.miss_type = MissType.UPGRADE if fresh else MissType.SHARING
            else:
                result.miss_type = self._classify_miss(flags, upgrade=False, serviced_remote=True)
            # Eager self-downgrade: the word is written at the home (no
            # allocate).  The bookkeeping issues this write's token (verify
            # mode); _downgrade_settle refreshes the writer's copy with it.
            self._word_service_bookkeeping(core, True, line, word, l2line, slice_)
            self._downgrade_settle(core, line, word, reply_t)
            result.remote = True
            # History is re-read rather than taken from the pre-service
            # flags: _downgrade_settle may have self-invalidated a stale
            # copy, setting _LAST_REMOVAL_INVAL.
            self._history[core][line] = self._history[core].get(line, 0) | _EVER_REMOTE
            l2line.busy_until = t
        else:
            self._fill_line(core, line, word, l2line, slice_, reply_t)
            result.miss_type = self._classify_miss(flags, upgrade=False, serviced_remote=False)
            self._history[core][line] = flags | _EVER_CACHED
            # Reads take no home-side ownership: pipeline through the bank.
            busy = t - self._l2_latency + 1.0
            if busy > l2line.busy_until:
                l2line.busy_until = busy
        self.miss_stats.record_miss(result.miss_type)
        slice_.touch(l2line, t)

        result.latency = reply_t - now
        result.l1_to_l2 = result.latency - result.l2_waiting - result.l2_offchip
        return result

    # ------------------------------------------------------------------
    def _downgrade_settle(self, core: int, line: int, word: int, reply_t: float) -> None:
        """Version bump + own-copy refresh of an eager write-through.

        A resident *fresh* copy is refreshed in place so the writer's own
        reads keep hitting; a stale resident copy is discarded (refreshing
        one word of it would revalidate its other, stale words).  Every
        other core's copy goes stale and self-invalidates on its next use.
        Runs after the reply leg is reserved; nothing here touches the
        network before ``reply_t``.
        """
        self.write_throughs += 1
        old_version = self._line_version.get(line, 0)
        self._line_version[line] = old_version + 1
        l1 = self.l1d[core]
        entry = l1.lookup(line)
        if entry is not None:
            if self._copy_version[core].get(line) == old_version:
                l1.store.touch(entry)
                entry.utilization += 1
                entry.last_access = reply_t
                self.energy.l1d_writes += 1
                if self.verify:
                    entry.data[word] = self._write_token
                self._copy_version[core][line] = old_version + 1
            else:
                self._self_invalidate(core, line, reply_t)

    # ------------------------------------------------------------------
    def _install_line(self, core: int, line: int, l2line, slice_, reply_t: float) -> None:
        """Install the fetched line clean SHARED (counter half of the
        fetch, shared by :meth:`_fill_line` and the buffered-write
        allocate; runs after the reply leg is reserved either way)."""
        slice_.line_reads += 1
        self.energy.l2_line_reads += 1
        l1 = self.l1d[core]
        data = list(l2line.data) if self.verify else None
        evicted = l1.fill(line, MESIState.SHARED, reply_t, data)
        self.energy.l1d_line_fills += 1
        if evicted is not None:
            self._handle_l1_eviction(core, evicted[0], evicted[1], reply_t)

    def _fill_line(
        self, core: int, line: int, word: int, l2line, slice_, reply_t: float
    ) -> None:
        """Read miss: install the fetched line clean SHARED at the current
        line version and read the word.  Runs after the reply leg is
        reserved: ``reply_t`` timestamps the L1 fill."""
        self._install_line(core, line, l2line, slice_, reply_t)
        self._copy_version[core][line] = self._line_version.get(line, 0)
        self.energy.l1d_reads += 1
        if self.verify:
            entry = self.l1d[core].lookup(line)
            self.golden.check_read(line, word, entry.data[word], f"Neat fill read core {core}")

    # ------------------------------------------------------------------
    # Release-boundary self-downgrade batching (neat_downgrade="release").
    # ------------------------------------------------------------------
    def _buffered_write(
        self, core: int, line: int, word: int, now: float, l1, entry
    ) -> AccessResult:
        """Release-mode store: buffer the dirty word in the writer's copy.

        A fresh resident copy makes the store a pure L1 hit (zero latency,
        zero traffic now - the word rides the next release flush).  A stale
        or absent copy write-allocates: the stale copy is flushed-and-
        discarded, the line is fetched like a read miss and the store lands
        in the fresh copy.
        """
        versions = self._copy_version[core]
        if entry is not None and versions.get(line) == self._line_version.get(line, 0):
            l1.hit(entry, now)
            self.miss_stats.record_hit()
            self.energy.l1d_writes += 1
            pending = self._pending[core]
            pending[line] = pending.get(line, 0) | (1 << word)
            if self.verify:
                # Mint the token into the local copy only; the golden image
                # is written at the flush, atomically with the home update,
                # so home and golden never disagree (racy readers verify).
                entry.data[word] = self._issue_write_token(core)
            return self._hit_result
        result = AccessResult()
        flags = self._history[core].get(line, 0)
        if entry is not None:
            result.miss_type = MissType.SHARING  # another core's flush killed it
            self._self_invalidate(core, line, now)
        else:
            result.miss_type = self._classify_miss(flags, upgrade=False, serviced_remote=False)
        l1.misses += 1
        self.energy.l1d_tag_accesses += 1
        slice_, l2line, t, reply_t = self._request_reply(
            core, line, MsgType.READ_REQ, MsgType.LINE_REPLY, now, result
        )
        self._install_line(core, line, l2line, slice_, reply_t)
        versions[line] = self._line_version.get(line, 0)
        self.energy.l1d_writes += 1
        pending = self._pending[core]
        pending[line] = pending.get(line, 0) | (1 << word)
        if self.verify:
            # Token into the local copy only; golden is written at the
            # flush (see _flush_line).
            self.l1d[core].lookup(line).data[word] = self._issue_write_token(core)
        self._history[core][line] = flags | _EVER_CACHED
        self.miss_stats.record_miss(result.miss_type)
        # The fetch is a read at the home: no ownership, bank-pipelined.
        busy = t - self._l2_latency + 1.0
        if busy > l2line.busy_until:
            l2line.busy_until = busy
        slice_.touch(l2line, t)
        result.latency = reply_t - now
        result.l1_to_l2 = result.latency - result.l2_waiting - result.l2_offchip
        return result

    def _flush_line(self, core: int, line: int, t: float, entry=None) -> None:
        """Self-downgrade one line's buffered words: a single batched
        ``WB_DATA`` message to the home, one version bump, fire-and-forget
        (off the critical path, like evictions)."""
        mask = self._pending[core].pop(line)
        result = self._flush_result
        result.l2_waiting = 0.0
        result.l2_offchip = 0.0
        home, slice_, l2line, t_at_home = self._request_at_home(
            core, line, MsgType.WB_DATA, t, result
        )
        if entry is None:
            entry = self.l1d[core].lookup(line)
        word = 0
        bits = mask
        while bits:
            if bits & 1:
                slice_.word_writes += 1
                self.energy.l2_word_writes += 1
                l2line.dirty = True
                l2line.dirty_words |= 1 << word
                if self.verify and entry is not None and entry.data is not None:
                    # Home and golden update at the same simulation point:
                    # any read serviced at the home always matches golden,
                    # even for (benign) races the trace may contain.
                    l2line.data[word] = entry.data[word]
                    self.golden.write_word(line, word, entry.data[word])
            bits >>= 1
            word += 1
        self.write_throughs += 1  # one downgrade message per flushed line
        old_version = self._line_version.get(line, 0)
        version = old_version + 1
        self._line_version[line] = version
        if entry is not None and self._copy_version[core].get(line) == old_version:
            # The writer's copy was fresh up to this flush, so it is exactly
            # the flushed image: still fresh.  A copy that went stale before
            # the flush (another core's flush intervened after our fetch)
            # must STAY stale - its non-pending words predate that flush,
            # and revalidating it here would resurrect them.  Found by the
            # exhaustive tier: W0(w0) W1(w4) flush0 flush1 R1(w0) read 0
            # where w0 held core 0's store.
            self._copy_version[core][line] = version
        l2line.busy_until = t_at_home
        slice_.touch(l2line, t_at_home)

    def _release_flush(self, core: int, t: float) -> None:
        """Release boundary: flush every line with buffered stores."""
        pending = self._pending[core]
        for line in list(pending):
            self._flush_line(core, line, t)

    def sync_boundary_hook(self):
        """Release-boundary callback (see ``ProtocolEngineBase``): flush
        buffered self-downgrades at unlock/barrier/end-of-trace."""
        return self._release_flush if self._release_batching else None

    # ------------------------------------------------------------------
    def _handle_l1_eviction(self, core: int, vline: int, ventry, t: float) -> None:
        """Silent eviction: copies are clean and nobody tracks them.
        Buffered stores of the victim (release mode) are flushed first."""
        if self._pending[core].get(vline):
            self._flush_line(core, vline, t, entry=ventry)
        self.evict_histogram.record(ventry.utilization)
        hist = self._history[core]
        hist[vline] = (hist.get(vline, 0) | _EVER_CACHED) & ~_LAST_REMOVAL_INVAL
        self._copy_version[core].pop(vline, None)

    # ------------------------------------------------------------------
    # L2 evictions leave L1 copies alone: they are clean, and the version
    # check retires them the moment the line is written again.
    # (_purge_copies_for_l2_eviction inherits the base no-op.)
