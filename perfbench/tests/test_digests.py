"""Reference digests and how the checker counts failures."""

from __future__ import annotations

from perfbench import digests
from perfbench.measure import Checker


def test_digest_is_stable_and_sensitive():
    stats = {"completion_time": 1.5, "miss": {"hits": 3}}
    assert digests.digest(stats) == digests.digest({"miss": {"hits": 3}, "completion_time": 1.5})
    assert digests.digest(stats) != digests.digest({**stats, "completion_time": 1.5000000000000002})


def test_digest_mismatch_counts_as_failure():
    checker = Checker({"a/baseline": "1111", "b/baseline": "2222", "c/baseline": "3333"})
    checker.check({"a/baseline": "1111", "b/baseline": "9999", "c/baseline": None}, "sweep")
    assert (checker.attempted, checker.failed) == (3, 2)
    assert "b/baseline" in checker.problems[0] and "c/baseline" in checker.problems[0]


def test_without_reference_later_sweeps_must_repeat_the_first():
    checker = Checker(None)
    checker.check({"a/dls": "1111"}, "first sweep")
    checker.check({"a/dls": "1111"}, "second sweep")
    assert checker.failed == 0
    checker.check({"a/dls": "2222"}, "third sweep")
    assert (checker.attempted, checker.failed) == (3, 1)


def test_reference_round_trip(tmp_path):
    assert digests.load_reference("w", 0, tmp_path) is None
    assert digests.write_reference("w", 0, {"x/neat": "aa"}, tmp_path) == 1
    assert digests.write_reference("w", 0, {"x/neat": "aa"}, tmp_path) == 0
    assert digests.write_reference("w", 3, {"x/neat": "bb"}, tmp_path) == 1
    assert digests.load_reference("w", 0, tmp_path) == {"x/neat": "aa"}
    assert digests.load_reference("w", 3, tmp_path) == {"x/neat": "bb"}


def test_committed_references_cover_seed_zero_and_the_held_out_seed():
    from perfbench import workloads

    for name in workloads.NAMES:
        labels = {workloads.label(job) for job in workloads.jobs(name, 0)}
        for seed in (0, digests.HELD_OUT_SEED):
            reference = digests.load_reference(name, seed)
            assert reference is not None and set(reference) == labels, (name, seed)
