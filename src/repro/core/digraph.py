"""Generic directed-graph cycle utilities shared by every checker.

Several consumers build a graph over transactions and ask the same
questions of it: the classical offline precedence graph
(:mod:`repro.core.serializability`), the streaming serialization graph
of the online auditor (:mod:`repro.audit.graph`), the offline anomaly
checker built on it (:mod:`repro.checking.anomalies`), and the
simulator's deadlock detector (:func:`repro.engine.deadlock.find_deadlock`
for cross-tree waits, :func:`shortest_cycle_through` for a tree's own
parallel siblings in :mod:`repro.sim.runner`).  This
module is their one cycle/topology core, deliberately free of any
transaction vocabulary: nodes are opaque sortable hashables, adjacency
is a callable, and every traversal visits successors in sorted order so
results are deterministic across runs and platforms.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    TypeVar,
)

Node = TypeVar("Node")

#: Adjacency: maps a node to its successors (any iterable; the
#: traversals sort it, so sets and dicts are fine).
Successors = Callable[[Node], Iterable[Node]]


def find_cycle(
    nodes: Iterable[Node], successors: Successors
) -> Optional[List[Node]]:
    """One cycle as a closed node list (``[a, b, a]``), or ``None``.

    Iterative colouring DFS from every node in sorted order, visiting
    successors in sorted order: the returned cycle is a deterministic
    function of the graph, and deep graphs cannot overflow the
    recursion limit.
    """
    state: Dict[Node, int] = {}
    for root in sorted(nodes):
        if state.get(root, 0) != 0:
            continue
        path: List[Node] = []
        # Each frame is (node, iterator over its sorted successors).
        stack = [(root, iter(sorted(successors(root))))]
        state[root] = 1
        path.append(root)
        while stack:
            node, targets = stack[-1]
            advanced = False
            for target in targets:
                mark = state.get(target, 0)
                if mark == 1:
                    return path[path.index(target):] + [target]
                if mark == 0:
                    state[target] = 1
                    path.append(target)
                    stack.append(
                        (target, iter(sorted(successors(target))))
                    )
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                path.pop()
                stack.pop()
    return None


def shortest_cycle_through(
    node: Node, successors: Successors
) -> Optional[List[Node]]:
    """The shortest cycle containing *node*, closed, or ``None``.

    BFS from *node* back to itself, expanding successors in sorted
    order, so among equally short cycles the lexicographically first
    one is returned.  This is what makes a freshly closed cycle a
    *minimal* witness: when the caller knows every new cycle passes
    through *node* (the vertex it just added), the BFS shortest path
    back to *node* has no shortcut through other vertices.
    """
    parents: Dict[Node, Node] = {}
    queue = deque([node])
    seen = {node}
    while queue:
        current = queue.popleft()
        for target in sorted(successors(current)):
            if target == node:
                cycle = [current]
                while current != node:
                    current = parents[current]
                    cycle.append(current)
                cycle.reverse()
                return cycle + [node]
            if target not in seen:
                seen.add(target)
                parents[target] = current
                queue.append(target)
    return None


def topological_order(
    nodes: Iterable[Node], successors: Successors
) -> List[Node]:
    """A deterministic topological order of an acyclic graph.

    Iterative DFS postorder, reversed; nodes and successors are visited
    in sorted order, matching :func:`find_cycle`'s traversal.  Raises
    :class:`ValueError` on a cycle -- callers that want the cycle
    itself run :func:`find_cycle` first.
    """
    order: List[Node] = []
    state: Dict[Node, int] = {}
    for root in sorted(nodes):
        if state.get(root, 0) != 0:
            continue
        stack = [(root, iter(sorted(successors(root))))]
        state[root] = 1
        while stack:
            node, targets = stack[-1]
            advanced = False
            for target in targets:
                mark = state.get(target, 0)
                if mark == 1:
                    raise ValueError(
                        "graph has a cycle through %r" % (target,)
                    )
                if mark == 0:
                    state[target] = 1
                    stack.append(
                        (target, iter(sorted(successors(target))))
                    )
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                order.append(node)
                stack.pop()
    order.reverse()
    return order
