"""Property-based tests for the locality classifier state machine.

These check Figure 4's transition diagram holds under arbitrary event
sequences: modes only change through the defined promotion/demotion arcs,
remote utilization stays within its hardware field width, and RAT levels
move only as Section 3.3 prescribes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.classifier.complete import CompleteClassifier
from repro.coherence.classifier.limited import LimitedClassifier
from repro.common.params import ProtocolConfig
from repro.common.types import RemovalReason, SharerMode
from repro.mem.l2 import L2Line

#: Abstract classifier events: (kind, core, value).
events = st.lists(
    st.tuples(
        st.sampled_from(["remote_access", "removal_evict", "removal_inval", "write", "grant"]),
        st.integers(min_value=0, max_value=7),  # core
        st.integers(min_value=0, max_value=12),  # private utilization at removal
    ),
    min_size=1,
    max_size=60,
)

configs = st.builds(
    ProtocolConfig,
    pct=st.integers(min_value=1, max_value=8),
    classifier=st.sampled_from(["limited", "complete"]),
    limited_k=st.integers(min_value=1, max_value=4),
    remote_policy=st.sampled_from(["rat", "timestamp"]),
    rat_max=st.just(16),
    n_rat_levels=st.integers(min_value=1, max_value=4),
    one_way=st.booleans(),
)


def make_classifier(proto: ProtocolConfig):
    if proto.classifier == "complete":
        return CompleteClassifier(proto)
    return LimitedClassifier(proto)


def drive(classifier, l2line: L2Line, kind: str, core: int, putil: int) -> None:
    if kind == "remote_access":
        # The directory's decision: the tracked entry's mode, else the vote.
        entry = classifier.locality_entry(l2line, core, allocate=True)
        mode = entry.mode if entry is not None else classifier.majority_vote(l2line)
        if mode is SharerMode.REMOTE:
            classifier.on_remote_access(l2line, entry, None, True)
    elif kind == "removal_evict":
        classifier.on_removal(l2line, core, putil, RemovalReason.EVICTION)
    elif kind == "removal_inval":
        classifier.on_removal(l2line, core, putil, RemovalReason.INVALIDATION)
    elif kind == "write":
        classifier.on_write(l2line, core)
    else:  # grant
        classifier.note_private_grant(l2line, core)


class TestStateMachineInvariants:
    @settings(max_examples=60, deadline=None)
    @given(proto=configs, seq=events)
    def test_bounded_counters_and_levels(self, proto, seq):
        classifier = make_classifier(proto)
        l2line = L2Line()
        max_level = len(proto.rat_levels()) - 1
        for kind, core, putil in seq:
            drive(classifier, l2line, kind, core, putil)
            for entry in classifier.tracked_entries(l2line):
                # Remote utilization never exceeds the largest threshold
                # (the counter is reset at promotion/demotion time).
                assert 0 <= entry.remote_util <= proto.rat_max
                assert 0 <= entry.rat_level <= max_level
                assert entry.mode in (SharerMode.PRIVATE, SharerMode.REMOTE)

    @settings(max_examples=60, deadline=None)
    @given(proto=configs, seq=events)
    def test_one_way_complete_never_promotes(self, proto, seq):
        # Remote is terminal under Adapt1-way.  The strict version of this
        # invariant holds for the Complete classifier only: Limited_k may
        # *forget* a demoted core through slot replacement, after which the
        # returning core is legitimately re-initialized by majority vote
        # (the paper's one-way variant keeps per-core mode bits precisely
        # to avoid this, Section 3.7).
        proto = proto.replaced(one_way=True, classifier="complete")
        classifier = make_classifier(proto)
        l2line = L2Line()
        demoted: set[int] = set()
        for kind, core, putil in seq:
            drive(classifier, l2line, kind, core, putil)
            for entry in classifier.tracked_entries(l2line):
                if entry.mode is SharerMode.REMOTE:
                    demoted.add(entry.core)
                elif entry.core in demoted:
                    raise AssertionError(
                        f"one-way: core {entry.core} returned to private mode"
                    )
        assert classifier.promotions == 0

    @settings(max_examples=60, deadline=None)
    @given(proto=configs, seq=events)
    def test_one_way_limited_never_counts_promotions(self, proto, seq):
        # The promotion *counter* invariant holds for Limited_k too: slot
        # replacement re-initializes state, it never promotes.
        proto = proto.replaced(one_way=True, classifier="limited")
        classifier = make_classifier(proto)
        l2line = L2Line()
        for kind, core, putil in seq:
            drive(classifier, l2line, kind, core, putil)
        assert classifier.promotions == 0

    @settings(max_examples=60, deadline=None)
    @given(proto=configs, seq=events)
    def test_limited_k_never_tracks_more_than_k(self, proto, seq):
        proto = proto.replaced(classifier="limited")
        classifier = make_classifier(proto)
        l2line = L2Line()
        for kind, core, putil in seq:
            drive(classifier, l2line, kind, core, putil)
            assert len(classifier.tracked_entries(l2line)) <= proto.limited_k

    @settings(max_examples=60, deadline=None)
    @given(proto=configs, seq=events)
    def test_demotion_iff_utilization_below_pct(self, proto, seq):
        proto = proto.replaced(one_way=False)
        classifier = make_classifier(proto)
        l2line = L2Line()
        for kind, core, putil in seq:
            if kind.startswith("removal"):
                entry = classifier.locality_entry(l2line, core, allocate=False)
                remote_util = entry.remote_util if entry is not None else 0
                reason = (
                    RemovalReason.EVICTION
                    if kind == "removal_evict"
                    else RemovalReason.INVALIDATION
                )
                new_mode = classifier.on_removal(l2line, core, putil, reason)
                if entry is not None:
                    # Section 3.2: classify on private + remote utilization.
                    expected = (
                        SharerMode.PRIVATE
                        if putil + remote_util >= proto.pct
                        else SharerMode.REMOTE
                    )
                    assert new_mode is expected
            else:
                drive(classifier, l2line, kind, core, putil)

    @settings(max_examples=60, deadline=None)
    @given(proto=configs, seq=events)
    def test_write_zeroes_other_remote_sharers(self, proto, seq):
        classifier = make_classifier(proto)
        l2line = L2Line()
        for kind, core, putil in seq:
            drive(classifier, l2line, kind, core, putil)
        classifier.on_write(l2line, writer=0)
        for entry in classifier.tracked_entries(l2line):
            if entry.core != 0 and entry.mode is SharerMode.REMOTE:
                assert entry.remote_util == 0
                assert not entry.active


class TestRatLadder:
    @given(
        pct=st.integers(min_value=1, max_value=8),
        n_levels=st.integers(min_value=1, max_value=8),
    )
    def test_ladder_monotone_from_pct_to_max(self, pct, n_levels):
        proto = ProtocolConfig(pct=pct, rat_max=16, n_rat_levels=n_levels)
        levels = proto.rat_levels()
        assert len(levels) == n_levels
        assert levels[0] == pct
        assert list(levels) == sorted(levels)
        if n_levels > 1:
            assert levels[-1] == 16

    @given(seq=events)
    def test_eviction_demotions_climb_invalidation_demotions_hold(self, seq):
        proto = ProtocolConfig(pct=4, rat_max=16, n_rat_levels=4)
        classifier = CompleteClassifier(proto)
        l2line = L2Line()
        core = 0
        classifier.note_private_grant(l2line, core)
        entry = classifier.locality_entry(l2line, core, allocate=True)
        # Eviction-demotion raises the RAT level...
        classifier.on_removal(l2line, core, 0, RemovalReason.EVICTION)
        level_after_evict = entry.rat_level
        assert level_after_evict == 1
        # ...an invalidation-demotion leaves it alone...
        classifier.on_removal(l2line, core, 0, RemovalReason.INVALIDATION)
        assert entry.rat_level == level_after_evict
        # ...and a private classification resets it.
        classifier.on_removal(l2line, core, proto.pct, RemovalReason.EVICTION)
        assert entry.rat_level == 0
