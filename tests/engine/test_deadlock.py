"""Unit tests for deadlock resolution: the collapsed waits-for graph and
the one victim rule.

Each detection case lists its waits as ``(waiter, blockers)`` pairs, the
way the simulator's detector recomputes them from the live lock tables.
Ages are key callables over top-level names; a larger key is younger.
"""

from repro.engine.deadlock import (
    choose_victim,
    find_deadlock,
    top_level,
    wound_victims,
)


def ages(table):
    """An age key reading *table*, ties broken on the name."""
    return lambda top: (table.get(top, 0.0), top)


class TestTopLevel:
    def test_collapses_to_first_component(self):
        assert top_level((3, 1, 4)) == (3,)
        assert top_level((2,)) == (2,)


class TestCycleDetection:
    def test_no_cycle_on_chain(self):
        waits = [((0, 0), [(1, 0)]), ((1, 0), [(2, 0)])]
        assert find_deadlock(waits, (0, 0)) is None
        assert find_deadlock(waits, (1, 0)) is None

    def test_two_cycle(self):
        waits = [((0, 0), [(1, 0)]), ((1, 0), [(0, 5)])]
        cycle = find_deadlock(waits, (1, 0))
        assert cycle == [(1,), (0,), (1,)]

    def test_three_cycle(self):
        waits = [((0,), [(1,)]), ((1,), [(2,)]), ((2,), [(0,)])]
        cycle = find_deadlock(waits, (2,))
        assert cycle is not None
        assert set(cycle) == {(0,), (1,), (2,)}
        assert cycle[0] == cycle[-1] == (2,)

    def test_intra_tree_waits_ignored(self):
        # Parent waits on its own child: not a cross-tree deadlock.
        assert find_deadlock([((0,), [(0, 1)])], (0,)) is None

    def test_only_cycles_reachable_from_start(self):
        waits = [((5,), [(6,)]), ((6,), [(5,)]), ((7,), [(8,)])]
        assert find_deadlock(waits, (7,)) is None
        assert find_deadlock(waits, (5,)) == [(5,), (6,), (5,)]


class TestCollapsedGraphEdgeCases:
    def test_deep_same_tree_wait_collapses_away(self):
        # A deep descendant waiting on a cousin in its own tree maps
        # both endpoints to (0,) when collapsed; the would-be self-loop
        # is dropped so no spurious deadlock is reported.
        waits = [((0, 1, 2), [(0, 3)]), ((0, 3), [(0, 1)])]
        assert find_deadlock(waits, (0, 3)) is None

    def test_nested_waiters_collapse_into_cross_tree_cycle(self):
        # Edges given between deep descendants still form a cycle on
        # the collapsed graph: (0,) -> (1,) -> (0,).
        waits = [((0, 1, 2), [(1, 0)]), ((1, 4), [(0, 2, 2)])]
        cycle = find_deadlock(waits, (1, 4))
        assert cycle is not None
        assert set(cycle) == {(0,), (1,)}

    def test_mixed_waits_only_cross_tree_edges_count(self):
        # A parent waiting on its own child AND a foreign tree: only
        # the cross-tree edge survives collapsing.
        waits = [((0,), [(0, 1), (1, 0)]), ((1, 0, 0), [(0, 7)])]
        assert find_deadlock(waits[:1], (0,)) is None
        cycle = find_deadlock(waits, (1, 0, 0))
        assert cycle is not None
        assert set(cycle) == {(0,), (1,)}

    def test_cycle_broken_by_victim_abort(self):
        waits = [((0, 1), [(1,)]), ((1, 0), [(0, 1)])]
        cycle = find_deadlock(waits, (1, 0))
        assert cycle is not None
        victim = choose_victim(cycle, ages({(0,): 1.0, (1,): 2.0}))
        assert victim == (1,)
        # Aborting the victim's subtree ends its waits; the survivor can
        # keep waiting on a third tree without re-deadlocking.
        survivors = [
            (waiter, blockers)
            for waiter, blockers in waits
            if top_level(waiter) != victim
        ]
        assert find_deadlock(survivors, (0, 1)) is None
        assert find_deadlock(survivors + [((0, 1), [(2,)])], (0, 1)) is None


class TestVictimSelection:
    def test_youngest_loses(self):
        cycle = [(0,), (1,), (0,)]
        started = {(0,): 1.0, (1,): 5.0}
        assert choose_victim(cycle, ages(started)) == (1,)

    def test_tie_breaks_deterministically(self):
        cycle = [(0,), (1,), (0,)]
        assert choose_victim(cycle, ages({})) == (1,)

    def test_takes_any_key_callable(self):
        # The key decides alone: here the *lower* name is younger.
        cycle = [(3,), (7,), (5,), (3,)]
        assert choose_victim(cycle, lambda top: -top[0]) == (3,)
        assert choose_victim({(4,), (9,)}, lambda top: top[0]) == (9,)


class TestWoundVictims:
    AGE = staticmethod(lambda top: top[0])

    def test_own_tree_blockers_are_skipped(self):
        # Relatives at any depth are waited for, never wounded.
        blockers = [(2, 0), (2, 1, 3), (2,)]
        assert wound_victims((2,), blockers, self.AGE) == []
        assert wound_victims((2,), blockers + [(5, 1)], self.AGE) == [
            (5,)
        ]

    def test_older_and_equal_keys_are_skipped(self):
        table = {(1,): 10.0, (2,): 20.0, (3,): 20.0, (4,): 30.0}
        age = table.__getitem__
        # (1,) is older and (3,) is as old as (2,): only (4,) dies.
        victims = wound_victims((2,), [(1, 0), (3, 0), (4, 0)], age)
        assert victims == [(4,)]

    def test_tree_named_by_several_blockers_comes_back_once(self):
        blockers = [(6, 0), (6, 1, 2), (6,), (6, 0)]
        assert wound_victims((1,), blockers, self.AGE) == [(6,)]

    def test_input_order_is_kept(self):
        blockers = [(9, 1), (4,), (7, 0), (9, 0), (5, 2)]
        victims = wound_victims((3,), blockers, self.AGE)
        assert victims == [(9,), (4,), (7,), (5,)]

    def test_key_is_the_only_notion_of_age(self):
        # Admission order survives a restart: (8,) is the retry of the
        # oldest program, so the fresh-looking name wins its conflict.
        admitted = {(8,): (0.0, 1), (2,): (1.0, 2), (5,): (1.0, 3)}
        victims = wound_victims((8,), [(2,), (5, 0)], admitted.get)
        assert victims == [(2,), (5,)]
        assert wound_victims((5,), [(8,), (2, 4)], admitted.get) == []
