"""Regression tests for ``ThreadSafeEngine.abort_top``.

``abort_top`` is the service front-end's orphan-cleanup primitive: it
kills a top-level tree *by name*, from any thread, without holding the
tree's handle.  The contracts pinned here:

* idempotent -- a second abort (or an abort after commit) returns
  False and changes nothing;
* safe from a non-owner thread, racing the owner's own commit/abort;
* releases the tree's locks so blocked transactions proceed;
* identical behaviour for both ``stripes`` spellings the constructor
  still accepts (the default, and ``0`` as the perf ladder passes it);
  the facade has one locking regime, so the two must not differ.
"""

import threading

import pytest

from repro.adt import Counter, IntRegister
from repro.engine.threadsafe import ThreadSafeEngine
from repro.errors import LockDenied, TransactionAborted


# The ids name the regimes these spellings once selected.
@pytest.fixture(params=["striped", "global"])
def facade(request):
    return ThreadSafeEngine(
        [Counter("c"), IntRegister("r")],
        policy="moss-rw",
        stripes=None if request.param == "striped" else 0,
    )


class TestBasics:
    def test_aborts_a_live_tree(self, facade):
        top = facade.begin_top()
        child = top.begin_child()
        child.perform("c", Counter.increment(5))
        assert facade.abort_top(top.name) is True
        assert not top.is_active
        assert not child.is_active
        assert facade.object_value("c") == 0

    def test_accepts_any_name_of_the_tree(self, facade):
        top = facade.begin_top()
        child = top.begin_child()
        # Naming a child aborts its top-level tree.
        assert facade.abort_top(child.name) is True
        assert not top.is_active

    def test_double_abort_is_false(self, facade):
        top = facade.begin_top()
        assert facade.abort_top(top.name) is True
        assert facade.abort_top(top.name) is False

    def test_abort_after_commit_is_false(self, facade):
        top = facade.begin_top()
        top.perform("r", IntRegister.write(7))
        top.commit()
        assert facade.abort_top(top.name) is False
        assert facade.object_value("r") == 7  # commit stands

    def test_abort_after_handle_abort_is_false(self, facade):
        top = facade.begin_top()
        top.abort()
        assert facade.abort_top(top.name) is False

    def test_unknown_and_empty_names_are_false(self, facade):
        assert facade.abort_top((404,)) is False
        assert facade.abort_top(()) is False

    def test_releases_locks_for_waiters(self, facade):
        holder = facade.begin_top()
        holder.perform("r", IntRegister.write(1))
        waiter = facade.begin_top()
        with pytest.raises(LockDenied):
            # Wound-wait: the younger waiter cannot wound the older
            # holder, so without the abort this would block.
            waiter.perform("r", IntRegister.write(2), timeout=0.05)
        assert facade.abort_top(holder.name) is True
        waiter.perform("r", IntRegister.write(2), timeout=1.0)
        waiter.commit()
        assert facade.object_value("r") == 2

    def test_aborted_handle_raises_on_use(self, facade):
        top = facade.begin_top()
        facade.abort_top(top.name)
        with pytest.raises(Exception):
            top.perform("c", Counter.increment(1))


class TestRaces:
    """abort_top from a non-owner thread vs the owner's own finish."""

    def test_race_against_owner_commit(self, facade):
        # Whatever the interleaving, exactly one of {owner commit,
        # remote abort} wins, and the engine agrees with the winner.
        for _ in range(50):
            top = facade.begin_top()
            top.perform("c", Counter.increment(1))
            results = {}
            barrier = threading.Barrier(2)

            def owner():
                barrier.wait()
                try:
                    top.commit()
                    results["commit"] = True
                except TransactionAborted:
                    results["commit"] = False

            def killer():
                barrier.wait()
                results["abort"] = facade.abort_top(top.name)

            threads = [
                threading.Thread(target=owner),
                threading.Thread(target=killer),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results["commit"] != results["abort"]
            assert top.is_active is False
        # Counter value equals the number of commits that won.
        expected = facade.engine.stats["commits"]
        assert facade.object_value("c") == expected

    def test_race_against_owner_abort(self, facade):
        for _ in range(50):
            top = facade.begin_top()
            results = {}
            barrier = threading.Barrier(2)

            def owner():
                barrier.wait()
                top.abort()  # idempotent via the facade

            def killer():
                barrier.wait()
                results["abort"] = facade.abort_top(top.name)

            threads = [
                threading.Thread(target=owner),
                threading.Thread(target=killer),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not top.is_active

    def test_concurrent_abort_top_single_winner(self, facade):
        for _ in range(25):
            top = facade.begin_top()
            top.perform("c", Counter.increment(1))
            wins = []
            barrier = threading.Barrier(4)

            def killer():
                barrier.wait()
                if facade.abort_top(top.name):
                    wins.append(1)

            threads = [
                threading.Thread(target=killer) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(wins) == 1
        assert facade.object_value("c") == 0

    def test_abort_cause_reaches_observer(self):
        from repro.obs import Observer

        observer = Observer()
        facade = ThreadSafeEngine(
            [Counter("c")], policy="moss-rw", observer=observer
        )
        top = facade.begin_top()
        assert facade.abort_top(top.name, cause="disconnect")
