"""Unit tests for multiversion objects."""

import pytest

from repro.adt import Counter
from repro.errors import EngineError
from repro.mvto.mv_object import MVObject, Version, _TreeBuffer


@pytest.fixture
def mv_object():
    return MVObject(Counter("c"))


class TestVersionChain:
    def test_initial_version(self, mv_object):
        assert mv_object.version_before(100).value == 0
        assert mv_object.version_before(0).wts == 0

    def test_version_before_picks_latest_at_or_before(self, mv_object):
        mv_object.versions.append(Version(5, "five"))
        mv_object.versions.append(Version(9, "nine"))
        assert mv_object.version_before(5).value == "five"
        assert mv_object.version_before(8).value == "five"
        assert mv_object.version_before(9).value == "nine"

    def test_later_committed_write(self, mv_object):
        mv_object.versions.append(Version(5, "five"))
        assert mv_object.later_committed_write(4)
        assert not mv_object.later_committed_write(5)

    def test_pending_writers(self, mv_object):
        mv_object.pending_writers.update({3, 7})
        assert mv_object.earlier_pending_writers(5) == {3}
        assert mv_object.earlier_pending_writers(10) == {3, 7}
        assert mv_object.earlier_pending_writers(2) == set()


class _CountingChain(list):
    """A version chain that counts how often it is walked whole."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestChainIsNotWalked:
    """A read or a commit probes the chain; it never copies or walks
    it, so MVTO's cost per access does not grow with history."""

    def test_version_before_and_commit_tree_do_not_iterate(
        self, mv_object
    ):
        for ts in range(1, 65):
            mv_object.buffer_for(ts, base=0).install((0,), ts)
            mv_object.commit_tree(ts)
        chain = mv_object.versions = _CountingChain(mv_object.versions)
        assert mv_object.version_before(40).value == 40
        assert mv_object.version_before(1000).wts == 64
        mv_object.buffer_for(70, base=0).install((0,), 7)
        mv_object.commit_tree(70)
        assert mv_object.version_before(69).wts == 64
        assert chain.walks == 0
        assert [v.wts for v in chain] == list(range(65)) + [70]


class TestTreeBuffer:
    def test_current_falls_back_to_base(self):
        buffer = _TreeBuffer(base=10)
        assert buffer.current() == 10

    def test_install_and_deepest_wins(self):
        buffer = _TreeBuffer(base=0)
        buffer.install((0,), 1)
        buffer.install((0, 2), 2)
        assert buffer.current() == 2

    def test_promote_moves_up(self):
        buffer = _TreeBuffer(base=0)
        buffer.install((0, 2), 2)
        buffer.promote((0, 2))
        assert buffer.by_node == {(0,): 2}

    def test_discard_subtree(self):
        buffer = _TreeBuffer(base=0)
        buffer.install((0, 1), 1)
        buffer.install((0, 2), 2)
        buffer.discard_subtree((0, 1))
        assert buffer.by_node == {(0, 2): 2}


class TestCommitAbort:
    def test_commit_installs_sorted_version(self, mv_object):
        buffer = mv_object.buffer_for(4, base=0)
        buffer.install((0,), 40)
        mv_object.pending_writers.add(4)
        mv_object.commit_tree(4)
        assert [v.wts for v in mv_object.versions] == [0, 4]
        assert mv_object.version_before(4).value == 40
        assert 4 not in mv_object.pending_writers

    def test_commit_clean_tree_installs_nothing(self, mv_object):
        mv_object.buffer_for(4, base=0)
        mv_object.commit_tree(4)
        assert [v.wts for v in mv_object.versions] == [0]

    def test_abort_discards(self, mv_object):
        buffer = mv_object.buffer_for(4, base=0)
        buffer.install((0,), 40)
        mv_object.pending_writers.add(4)
        mv_object.abort_tree(4)
        assert [v.wts for v in mv_object.versions] == [0]
        assert 4 not in mv_object.pending_writers
