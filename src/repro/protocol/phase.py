"""Phase-priority directory coherence (Li & An, arXiv 1305.3038; PAPERS.md).

The phase-priority idea: a directory line's service policy should follow the
line's current *access phase* rather than a per-sharer utilization estimate.
The engine tracks one of three phases per line at the home:

* **PRIVATE** - one core is accessing the line; classic directory service
  (full line grants, E/M states, invalidation rounds on writes).
* **READ_SHARED** - several cores read the line; still serviced with line
  grants (read copies are harmless), but the phase records that the line is
  actively shared so a subsequent write promotes it straight to
  WRITE_SHARED.
* **WRITE_SHARED** - the line migrates between writers; it is pinned at the
  home and every access (read or write) is serviced as a word access there,
  exactly the "remote sharer" service of the locality-aware protocol.  A
  write entering this phase first runs the normal invalidation round, so the
  single-writer/multiple-reader invariant is preserved and the home copy is
  authoritative from then on.

Modeling substitutions (documented in DESIGN.md section 11; the source paper
describes a NoC-priority mechanism, not a full protocol table, so this is a
behavioural interpretation behind the common ``ProtocolEngine`` interface):

* **Phase detection is at the home, on misses.**  A miss by a core other
  than the line's last accessor promotes PRIVATE -> READ_SHARED (reads) or
  any phase -> WRITE_SHARED (writes that find other private sharers or a
  different last accessor).  Same-core streaks never promote.
* **Phases decay at release epochs.**  One epoch is ``num_cores`` release
  boundaries (unlock/barrier completions, counted through
  :meth:`sync_boundary_hook`).  A line untouched for ``k`` full epochs
  decays ``k`` phase levels on its next access, so data that stops being
  write-shared eventually earns private copies again.  Decay is lazy (at
  the next touch), costing no sweep.
* **Timing reuses the directory machinery unchanged**: line grants, the
  invalidation round, the synchronous write-back and the word access at the
  home are the same paths (and latencies) the baseline/adaptive families
  use, so the family comparison isolates the phase *policy*.

Functional verification runs unchanged: WRITE_SHARED word writes follow an
invalidation round (SWMR holds), word accesses use the shared golden-checked
home service, and the base :meth:`final_line_value` authority order (MODIFIED
L1 > home L2 > DRAM) remains correct because the directory semantics are
untouched.
"""

from __future__ import annotations

from repro.coherence.directory import DirectoryEntry
from repro.protocol.directory import DirectoryEngine

# Line phases, ordered so decay is a subtraction.
PHASE_PRIVATE = 0
PHASE_READ_SHARED = 1
PHASE_WRITE_SHARED = 2


class PhaseEngine(DirectoryEngine):
    """Directory engine with phase-priority service policy."""

    __slots__ = (
        "_line_phase",
        "_epoch",
        "_release_count",
        "_releases_per_epoch",
        "phase_promotions",
        "phase_demotions",
        "phase_word_accesses",
    )

    def __init__(self, arch, proto, verify: bool = False) -> None:
        super().__init__(arch, proto, verify)
        #: line -> [phase, last accessing core, epoch of last phase change].
        self._line_phase: dict[int, list[int]] = {}
        self._epoch = 0
        self._release_count = 0
        self._releases_per_epoch = arch.num_cores
        # Statistics.
        self.phase_promotions = 0
        self.phase_demotions = 0
        self.phase_word_accesses = 0

    def reset_stats(self) -> None:
        """Also zero the phase counters for warmup/measure runs."""
        super().reset_stats()
        self.phase_promotions = 0
        self.phase_demotions = 0
        self.phase_word_accesses = 0

    def export_stats(self, stats) -> None:
        stats.phase_promotions = self.phase_promotions
        stats.phase_demotions = self.phase_demotions
        stats.phase_word_accesses = self.phase_word_accesses

    def _home_word_gate(self) -> dict:
        """A write-shared line is serviced as a word access at its home
        (its ``_classify_requester`` branch): the row retires an L1 miss
        on a line resident at its memoized home, with no foreign copy,
        whose phase is WRITE_SHARED with no decay due
        (``_epoch <= info[2]``).  It records the requester as the line's
        last accessor."""
        return {
            "gate": "phase",
            "homes": self._line_home_cache,
            "directory_type": DirectoryEntry,
            "phases": self._line_phase,
            "write_shared": PHASE_WRITE_SHARED,
        }

    # ------------------------------------------------------------------
    # Release epochs drive phase decay.
    # ------------------------------------------------------------------
    def _on_release(self, core: int, t: float) -> None:
        self._release_count += 1
        self._epoch = self._release_count // self._releases_per_epoch

    def sync_boundary_hook(self):
        """Count release boundaries; ``num_cores`` of them close an epoch."""
        return self._on_release

    # ------------------------------------------------------------------
    def _resolve_phase(self, core: int, is_write: bool, line: int, dirent) -> int:
        """Decay, then promote, the line's phase for this miss; return it."""
        info = self._line_phase.get(line)
        epoch = self._epoch
        if info is None:
            info = [PHASE_PRIVATE, core, epoch]
            self._line_phase[line] = info
        elif info[0] != PHASE_PRIVATE and epoch > info[2]:
            # Lazy decay: one level per full epoch without a phase change.
            decayed = info[0] - (epoch - info[2])
            info[0] = decayed if decayed > PHASE_PRIVATE else PHASE_PRIVATE
            info[2] = epoch
            self.phase_demotions += 1
        phase = info[0]
        if is_write:
            shared_write = info[1] != core or dirent.foreign_copies(core, True)
            if shared_write and phase != PHASE_WRITE_SHARED:
                info[0] = phase = PHASE_WRITE_SHARED
                info[2] = epoch
                self.phase_promotions += 1
        elif info[1] != core and phase == PHASE_PRIVATE:
            info[0] = phase = PHASE_READ_SHARED
            info[2] = epoch
            self.phase_promotions += 1
        info[1] = core
        return phase

    # ==================================================================
    # Miss path: DirectoryEngine._service_miss, with the phase policy as
    # its classification step (the utilization classifier is None for
    # this family, so the parent's classifier hooks are never called).
    # ==================================================================
    def _classify_requester(
        self, l1, l2line, core: int, line: int, is_write: bool, upgrade: bool
    ) -> tuple[bool, bool]:
        """Service the requester remotely iff the line is write-shared."""
        phase = self._resolve_phase(core, is_write, line, l2line.directory)
        if phase != PHASE_WRITE_SHARED:
            return False, upgrade
        if upgrade:
            # The line just entered (or already was in) the write-shared
            # phase while this core still holds an S copy: fold the copy
            # back before servicing at the home.
            self._remove_own_copy(core, line, l2line)
        self.phase_word_accesses += 1
        return True, False

    # ------------------------------------------------------------------
    # Introspection helper used by tests.
    # ------------------------------------------------------------------
    def line_phase(self, line: int) -> int:
        """Current phase of ``line`` (before any lazy decay it has earned)."""
        info = self._line_phase.get(line)
        return info[0] if info is not None else PHASE_PRIVATE
