"""Sharer-tracking directory entries: ACKwise_p and full-map.

ACKwise (Section 3.1) maintains a limited set of ``p`` hardware pointers.
While the sharer count is <= p it behaves like a full-map directory and
invalidations are unicast to the known sharers.  When the count exceeds p the
identities are dropped: the directory only tracks *how many* sharers exist
and an exclusive request triggers a broadcast invalidation, with
acknowledgements collected only from the true sharers.

The simulator keeps the ground-truth sharer set in every entry (it must, to
operate the L1 caches); the ACKwise policy models the *knowledge limit*: the
``overflowed`` flag decides unicast vs broadcast invalidation.
"""

from __future__ import annotations

from repro.common.errors import CoherenceError
from repro.common.params import ProtocolConfig
from repro.common.types import DirState


class DirectoryEntry:
    """Directory state for one L2-resident cache line."""

    __slots__ = ("sharers", "owner", "overflowed")

    def __init__(self) -> None:
        self.sharers: set[int] = set()  # all cores holding a valid L1 copy
        self.owner: int = -1  # core holding E/M, or -1
        self.overflowed = False  # ACKwise pointers exceeded

    @property
    def state(self) -> DirState:
        if self.owner >= 0:
            return DirState.EXCLUSIVE
        if self.sharers:
            return DirState.SHARED
        return DirState.UNCACHED

    def foreign_copies(self, core: int, is_write: bool) -> bool:
        """True when a request by ``core`` must first resolve another
        core's copy: for a write, any sharer other than ``core`` (an
        invalidation round); for a read, an exclusive owner other than
        ``core`` (a synchronous write-back)."""
        if is_write:
            sharers = self.sharers
            return bool(sharers) and not (len(sharers) == 1 and core in sharers)
        return self.owner >= 0 and self.owner != core

    def check_invariants(self) -> None:
        """SWMR: an exclusive owner is the *only* core with a valid copy."""
        if self.owner >= 0 and self.sharers != {self.owner}:
            raise CoherenceError(
                f"SWMR violation: owner {self.owner} but sharers {sorted(self.sharers)}"
            )


class SharerTrackingPolicy:
    """Base class: full-map tracking (identities always known)."""

    name = "fullmap"

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        # Statistics.
        self.broadcast_invalidations = 0
        self.unicast_invalidations = 0

    # ------------------------------------------------------------------
    def add_sharer(self, entry: DirectoryEntry, core: int) -> None:
        entry.sharers.add(core)

    def remove_sharer(self, entry: DirectoryEntry, core: int) -> None:
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = -1

    def set_owner(self, entry: DirectoryEntry, core: int) -> None:
        entry.owner = core
        entry.sharers.add(core)

    def clear_owner(self, entry: DirectoryEntry) -> None:
        entry.owner = -1

    def use_broadcast(self, entry: DirectoryEntry) -> bool:
        """True when an invalidation must be broadcast (identities unknown)."""
        return False

    def storage_bits_per_entry(self) -> int:
        """Sharer-tracking bits per directory entry (for Section 3.6 math)."""
        return self.num_cores


class FullMapPolicy(SharerTrackingPolicy):
    """Classic full-map directory: one presence bit per core."""


class NullSharerPolicy(SharerTrackingPolicy):
    """No sharer tracking at all (``directory="none"``).

    Used by the directoryless protocol families (DLS, Neat): the home keeps
    no per-line coherence state, so every tracking operation is a no-op and
    the Section 3.6 storage accounting reports zero bits per entry.  An
    engine wired to this policy must never rely on sharer identities -
    ``use_broadcast`` is unreachable because no invalidation is ever sent.
    """

    name = "none"

    def add_sharer(self, entry: DirectoryEntry, core: int) -> None:
        pass

    def remove_sharer(self, entry: DirectoryEntry, core: int) -> None:
        pass

    def set_owner(self, entry: DirectoryEntry, core: int) -> None:
        pass

    def clear_owner(self, entry: DirectoryEntry) -> None:
        pass

    def storage_bits_per_entry(self) -> int:
        return 0


class AckwisePolicy(SharerTrackingPolicy):
    """ACKwise_p limited directory."""

    name = "ackwise"

    def __init__(self, num_cores: int, pointers: int) -> None:
        super().__init__(num_cores)
        self.pointers = pointers

    def add_sharer(self, entry: DirectoryEntry, core: int) -> None:
        entry.sharers.add(core)
        if not entry.overflowed and len(entry.sharers) > self.pointers:
            entry.overflowed = True

    def remove_sharer(self, entry: DirectoryEntry, core: int) -> None:
        super().remove_sharer(entry, core)
        # Identities cannot be re-learned until the sharer count drains;
        # once no sharers remain the pointers start fresh.
        if entry.overflowed and not entry.sharers:
            entry.overflowed = False

    def use_broadcast(self, entry: DirectoryEntry) -> bool:
        return entry.overflowed

    def storage_bits_per_entry(self) -> int:
        """p pointers of log2(num_cores) bits (Section 3.6: 24 bits for
        ACKwise_4 at 64 cores)."""
        core_id_bits = max(1, (self.num_cores - 1).bit_length())
        return self.pointers * core_id_bits


def make_sharer_policy(proto: ProtocolConfig, num_cores: int, pointers: int) -> SharerTrackingPolicy:
    """Instantiate the configured sharer-tracking policy."""
    if proto.directory == "none":
        return NullSharerPolicy(num_cores)
    if proto.directory == "fullmap":
        return FullMapPolicy(num_cores)
    return AckwisePolicy(num_cores, pointers)
