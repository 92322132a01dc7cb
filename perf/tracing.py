"""The benchmark's own spans, recorded around each public call.

Nothing inside ``src/`` is instrumented: :class:`TracedTxn` wraps any
transaction handle the ladder drives (engine, facade, sharded, or the
wire adapter) and times ``begin_child`` / ``perform`` / ``commit`` /
``abort`` from outside.  A span is the list
``[id, parent, name, rung, txn, start_ns, end_ns]``:

* *call* spans -- one per public call, named ``begin_top``,
  ``begin_child``, ``read``, ``write``, ``commit_child``,
  ``commit_top``, ``abort_child`` or ``abort_top``;
* *container* spans -- ``txn`` for a top-level transaction and
  ``subtxn`` for each subtransaction, covering begin to commit/abort.
  A call's parent is the container of the handle it was made on; a
  container's parent is the enclosing container.

``txn`` is the transaction's index in the workload list, shared by all
of its spans.  Spans stay in memory; the ladder writes them out when
the run ends.
"""

from __future__ import annotations

from time import perf_counter_ns as now
from typing import Any, Callable, List

SPAN_FIELDS = ("id", "parent", "name", "rung", "txn", "start_ns", "end_ns")


class Tracer:
    """Span sink for one traced round of one rung."""

    def __init__(self) -> None:
        self.rung = ""
        self.spans: List[list] = []
        #: ``(name, duration_ns)`` of every call span, in call order.
        #: The workload is deterministic, so position *k* is the same
        #: call site in every round -- which is what lets the floor
        #: estimator work per call.
        self.calls: List[tuple] = []
        self.txn = -1
        self.max_depth = 0

    def start_round(self, rung: str) -> None:
        self.rung = rung
        self.spans = []
        self.calls = []
        self.txn = -1

    def open(self, name: str, parent: int, started: int) -> int:
        """Open a container span; returns its id."""
        span_id = len(self.spans)
        self.spans.append(
            [span_id, parent, name, self.rung, self.txn, started, 0]
        )
        return span_id

    def close(self, span_id: int, ended: int) -> None:
        self.spans[span_id][6] = ended

    def call(self, name: str, parent: int, started: int, ended: int) -> None:
        self.spans.append(
            [len(self.spans), parent, name, self.rung, self.txn,
             started, ended]
        )
        self.calls.append((name, ended - started))

    def begin_top(self, begin: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap a rung's ``begin_top`` so it yields traced handles."""

        def traced_begin_top() -> "TracedTxn":
            self.txn += 1
            started = now()
            inner = begin()
            ended = now()
            container = self.open("txn", -1, started)
            self.call("begin_top", container, started, ended)
            return TracedTxn(inner, self, container, 1)

        return traced_begin_top


class TracedTxn:
    """A transaction handle whose public calls record spans."""

    __slots__ = ("_inner", "_tracer", "_span", "_depth")

    def __init__(self, inner, tracer: Tracer, span: int, depth: int):
        self._inner = inner
        self._tracer = tracer
        self._span = span
        self._depth = depth
        if depth > tracer.max_depth:
            tracer.max_depth = depth

    def begin_child(self) -> "TracedTxn":
        started = now()
        inner = self._inner.begin_child()
        ended = now()
        tracer = self._tracer
        container = tracer.open("subtxn", self._span, started)
        tracer.call("begin_child", container, started, ended)
        return TracedTxn(inner, tracer, container, self._depth + 1)

    def perform(self, object_name, operation):
        started = now()
        result = self._inner.perform(object_name, operation)
        ended = now()
        self._tracer.call(
            "read" if operation.is_read else "write",
            self._span, started, ended,
        )
        return result

    def _finish(self, verb: str, finish: Callable[[], Any]) -> None:
        started = now()
        finish()
        ended = now()
        tracer = self._tracer
        scope = "top" if self._depth == 1 else "child"
        tracer.call("%s_%s" % (verb, scope), self._span, started, ended)
        tracer.close(self._span, ended)

    def commit(self) -> None:
        self._finish("commit", self._inner.commit)

    def abort(self) -> None:
        self._finish("abort", self._inner.abort)
