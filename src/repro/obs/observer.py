"""The observer: the event spine's metrics, span and contention subscriber.

An :class:`Observer` bundles the three collectors of :mod:`repro.obs`
-- span tracer, metrics registry, lock-contention profiler -- behind the
engine event spine's vocabulary (:mod:`repro.engine.spine`): transaction
begin/commit/abort, access granted, access denied, lock wait, wound,
deadlock, abort cause.  It is a plain spine subscriber: pass it as
``observer=`` to an engine, the thread-safe facade, a simulation runner
or the sharded coordinator, and they subscribe it; nothing calls it any
other way.  Components outside the spine (the write-ahead log, the
distributed runner, recovery) feed its generic :meth:`~Observer.count`
and :meth:`~Observer.observe` instruments.

The observer is written for one thread at a time: threaded drivers
serialise the spine's dispatch to it.  The generic instruments take a
lock of their own, because their callers run beside that dispatch.

The per-event instruments are bound once per closed label value
(``scope`` top or child, ``mode`` read or write) when first touched, so
snapshots still list exactly the instruments a run used.

The observer owns the clock.  Wall-clock layers leave the default
(:func:`time.perf_counter`); the discrete-event runners re-point it at
the simulated clock via :meth:`use_clock`, and every span and wait is
then measured in simulated time units instead of seconds.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional, Union

from repro.core.names import TransactionName
from repro.obs.contention import ContentionProfiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, SpanTracer


class _Bound(dict):
    """One metric's instruments by label value, each made on first use:
    ``bound["top"]`` is ``make(name, scope="top")`` when *label* is
    ``"scope"``; with no label, ``bound[None]`` is ``make(name)``."""

    __slots__ = ("_make", "_name", "_label")

    def __init__(self, make, name: str, label: Optional[str] = None):
        super().__init__()
        self._make = make
        self._name = name
        self._label = label

    def __missing__(self, value):
        labels = {} if self._label is None else {self._label: value}
        instrument = self[value] = self._make(self._name, **labels)
        return instrument


def _scope(name: TransactionName) -> str:
    return "top" if len(name) == 1 else "child"


class Observer:
    """Receives spine events; fans out to tracer/metrics/profiler.

    Parameters
    ----------
    trace:
        When True (default), collect spans in a :class:`SpanTracer`;
        when False, a :class:`NullTracer` drops them and only metrics
        and contention aggregation remain.
    clock:
        Zero-argument callable returning the current time.  Replaceable
        later with :meth:`use_clock` (the simulator does).
    """

    def __init__(
        self,
        trace: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.tracer: Union[SpanTracer, NullTracer] = (
            SpanTracer() if trace else NullTracer()
        )
        self.metrics = MetricsRegistry()
        self.contention = ContentionProfiler()
        self._clock = clock
        self._started: Dict[TransactionName, float] = {}
        self._abort_causes: Dict[TransactionName, str] = {}
        self._generic_lock = threading.Lock()
        # The per-event instruments, bound once per closed label value.
        counter = self.metrics.counter
        self._begins = _Bound(counter, "txn.begin", "scope")
        self._commits = _Bound(counter, "txn.commit", "scope")
        self._latencies = _Bound(
            self.metrics.histogram, "txn.commit_latency", "scope"
        )
        self._active = _Bound(self.metrics.gauge, "txn.active")
        self._accesses = _Bound(counter, "access", "mode")

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock()

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Re-point the observer at a different clock (e.g. sim time)."""
        self._clock = clock

    # ------------------------------------------------------------------
    # Spine subscriber: transaction lifecycle
    # ------------------------------------------------------------------
    def on_began(self, event) -> None:
        name = event.name
        now = self._clock()
        self._started[name] = now
        self._begins[_scope(name)].inc()
        self._active[None].add(1)
        self.tracer.begin_txn(name, now)

    def on_committed(self, event) -> None:
        name = event.name
        now = self._clock()
        scope = _scope(name)
        self._commits[scope].inc()
        self._active[None].add(-1)
        started = self._started.pop(name, None)
        if started is not None:
            self._latencies[scope].observe(now - started)
        self._abort_causes.pop(name, None)
        self.tracer.end_txn(name, now, "commit")
        if event.moved is not None and scope == "child":
            # Moss lock *inheritance*: each moved object, counted.
            self.metrics.counter("lock.inherited").inc(len(event.moved))

    def on_aborted(self, event) -> None:
        cause = event.cause
        for name in event.doomed:
            now = self._clock()
            cause = self._abort_causes.pop(name, cause)
            self.metrics.counter(
                "txn.abort", scope=_scope(name), cause=cause
            ).inc()
            self._active[None].add(-1)
            self._started.pop(name, None)
            self.tracer.end_txn(name, now, "abort", cause=cause)
            cause = "ancestor-abort"
        if event.moved is not None:
            self.metrics.counter("lock.released_abort").inc(len(event.moved))

    def on_tagged(self, event) -> None:
        """Pre-tag the cause of an abort about to be driven by a runner.

        The engine's abort transition does not know *why* it was asked
        to abort; layers that do (wound-wait, deadlock detection, fault
        injection) tag the victim first, and the abort picks the tag
        up.  The first tag wins: a wound-wait tag placed by the
        conflict path is not overwritten by the generic victim-abort
        path that follows it.
        """
        self._abort_causes.setdefault(event.name, event.cause)

    # ------------------------------------------------------------------
    # Spine subscriber: accesses and locks
    # ------------------------------------------------------------------
    def on_granted(self, event) -> None:
        """One granted (and immediately committed) access leaf."""
        is_read = event.is_read
        self._accesses["read" if is_read else "write"].inc()
        if self.tracer.enabled:
            object_name = event.object_name
            self.tracer.instant(
                "%s %s" % ("r" if is_read else "w", object_name),
                "access",
                self._clock(),
                txn=event.txn,
                object=object_name,
                op=event.operation.kind,
            )

    def on_denied(self, event) -> None:
        self.metrics.counter("lock.denials").inc()
        self.contention.record_denial(
            event.object_name, event.txn, tuple(event.blockers)
        )

    def on_waited(self, event) -> None:
        """One finished wait for an object (granted or given up)."""
        started = event.started
        waited = max(0.0, event.ended - started)
        self.metrics.counter("lock.waits").inc()
        self.metrics.histogram("lock.wait_time").observe(waited)
        self.contention.record_wait(event.object_name, event.txn, waited)
        if self.tracer.enabled:
            self.tracer.add_span(
                "wait %s" % event.object_name,
                "wait",
                started,
                event.ended,
                txn=event.txn,
                object=event.object_name,
            )

    # ------------------------------------------------------------------
    # Spine subscriber: conflict resolution
    # ------------------------------------------------------------------
    def on_wounded(self, event) -> None:
        """Wound-wait chose a (younger) victim to die for an older tree."""
        victim = event.victim
        self.metrics.counter("woundwait.victims").inc()
        self._abort_causes.setdefault(victim[:1], "wound-wait")
        if self.tracer.enabled:
            self.tracer.instant(
                "wound", "conflict", self._clock(), txn=victim[:1]
            )

    def on_deadlocked(self, event) -> None:
        self.metrics.counter("deadlocks").inc()
        if event.victim is not None:
            self._abort_causes.setdefault(event.victim[:1], "deadlock")

    # ------------------------------------------------------------------
    # Generic instruments (distribution costs, driver-specific counts)
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1, **labels: Any) -> None:
        with self._generic_lock:
            self.metrics.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        with self._generic_lock:
            self.metrics.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close any still-open spans (call once, after the run)."""
        self.tracer.finish(self.now())
