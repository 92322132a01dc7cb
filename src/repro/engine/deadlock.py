"""Deadlock resolution: one victim rule, one collapsed-graph detector.

Locking with blocking introduces deadlocks the paper leaves to the
scheduler ("in practice, the scheduler must have some power to decide to
abort transactions, as when it detects deadlocks").  The engine itself
never blocks and keeps no waits-for graph: a conflicting access raises
:class:`~repro.errors.LockDenied` naming its blockers, and the driver that
parks the access decides whom to abort.  :func:`wound_victims` is the
one wound-wait rule (the facade, the sharded coordinator and the
simulator all call it); the simulator's ``detect`` discipline recomputes
the waits from the live lock tables and asks :func:`find_deadlock` for a
cycle, then :func:`choose_victim` for the tree to abort.  Ages are key
callables over top-level names (larger is younger), so each driver keeps
its own: the handles' ``age`` (the facade and the sharded coordinator,
whose tree is the scheme's engine), the simulator's admission order,
which survives a restart.

With nesting, the unit that can wait is any transaction in the tree, and a
conflict's real adversaries are *top-level* subtrees: a lock held by a
descendant of the waiter's own top-level ancestor cannot be waited out
(the holder may itself be waiting inside the same tree).  Edges are
therefore given between transactions but cycles are sought on the graph
collapsed to top-level ancestors, with same-tree edges dropped; cycles
among one tree's own siblings are the simulator's separate intra-tree
check.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core import digraph
from repro.core.names import TransactionName


def top_level(name: TransactionName) -> TransactionName:
    """The top-level ancestor of *name* (its first path component)."""
    return name[:1]


def find_deadlock(
    waits: Iterable[Tuple[TransactionName, Iterable[TransactionName]]],
    start: TransactionName,
) -> Optional[List[TransactionName]]:
    """A waits-for cycle through top-level trees reachable from *start*.

    *waits* pairs each waiting transaction with the transactions blocking
    it.  Both ends of every edge are collapsed to their top-level
    ancestors and same-tree edges are dropped; the cycle comes back as a
    closed list of top-level names (``[a, b, a]``), or ``None``.
    """
    grouped: Dict[TransactionName, Set[TransactionName]] = {}
    for waiter, blockers in waits:
        source = top_level(waiter)
        targets = grouped.setdefault(source, set())
        for blocker in blockers:
            target = top_level(blocker)
            if target != source:
                targets.add(target)
    return digraph.find_cycle(
        [top_level(start)], lambda node: grouped.get(node, ())
    )


#: Orders top-level names by age: a larger key is a younger tree.
AgeKey = Callable[[TransactionName], object]


def wound_victims(
    my_top: TransactionName,
    blockers: Iterable[TransactionName],
    age: AgeKey,
) -> List[TransactionName]:
    """The trees a transaction of *my_top* wounds for *blockers*.

    Blockers collapse to their top-level trees.  The own tree (relatives
    are waited for, never killed) and trees not strictly younger than
    *my_top* are dropped; each younger tree comes back once, in blocker
    order.  The caller checks a victim is alive before aborting it.
    """
    mine = age(my_top)
    victims: Dict[TransactionName, None] = {}
    for target in map(top_level, blockers):
        if target != my_top and target not in victims and age(target) > mine:
            victims[target] = None
    return list(victims)


def choose_victim(
    cycle: Iterable[TransactionName], age: AgeKey
) -> TransactionName:
    """Pick the deadlock victim: the youngest top-level in *cycle*.

    Youngest-first minimises wasted work; *age* must break ties itself
    (e.g. on the name) for the choice to be deterministic.
    """
    return max(cycle, key=age)
