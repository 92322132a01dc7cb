"""Deadlock detection over the waits-for graph collapsed to top-level trees.

Locking with blocking introduces deadlocks the paper leaves to the
scheduler ("in practice, the scheduler must have some power to decide to
abort transactions, as when it detects deadlocks").  The engine itself
never blocks and keeps no waits-for graph: a conflicting access raises
:class:`~repro.errors.LockDenied` naming its blockers, and the driver that
parks the access (the simulator's ``detect`` discipline) recomputes the
waits from the live lock tables and asks :func:`find_deadlock` for a
cycle, then :func:`choose_victim` for the transaction to abort.

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

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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


def choose_victim(
    cycle: Sequence[TransactionName],
    started_at: Dict[TransactionName, float],
) -> TransactionName:
    """Pick the deadlock victim: the youngest top-level in the cycle.

    Youngest-first minimises wasted work; ties break on the name so the
    choice is deterministic.
    """
    members = list(dict.fromkeys(cycle))
    return max(
        members,
        key=lambda name: (started_at.get(name, 0.0), name),
    )
