"""The event spine: one emission point per engine transition.

A transition -- begin, access granted, access denied, commit, abort --
and each note a driver makes on the engine's behalf -- wound, deadlock,
lock wait, abort cause -- hands one typed event to the subscribers of
that kind, and no engine announces anything any other way.  A
subscriber has an ``on_<kind>(event)`` method for each kind it wants.
With no subscriber for a kind an emission point builds nothing: it
reads the kind's handler tuple and tests it.  See
``docs/OBSERVABILITY.md`` (the event spine) for the vocabulary, the
subscribers, the costs and threaded dispatch.
"""

from __future__ import annotations

from dataclasses import make_dataclass
from typing import Any, Optional, Tuple

from repro.core.names import TransactionName
from repro.core.object_spec import Operation
from repro.engine.trace import TraceRecorder


def _kind(kind: str, doc: str, /, **fields):
    """A dataclass event kind, delivered to ``on_<kind, lower-cased>``."""
    return make_dataclass(
        kind,
        list(fields.items()),
        namespace={
            "__doc__": doc,
            "__module__": __name__,
            "__slots__": tuple(fields),
            "handler": "on_" + kind.lower(),
        },
    )


Began = _kind(
    "Began", "Transaction *name* was created (top or child).",
    name=TransactionName,
)
Granted = _kind(
    "Granted",
    "One access ran and committed at once (Moss' instantaneous leaf).",
    txn=TransactionName,
    access=Optional[TransactionName],
    object_name=str,
    operation=Operation,
    is_read=bool,
    result=Any,
    generation=Optional[int],
)
Denied = _kind(
    "Denied", "*txn*'s access to *object_name* met *blockers*.",
    txn=TransactionName, object_name=str, blockers=Any,
)
Committed = _kind(
    "Committed", "*name* committed with *value*.",
    name=TransactionName, value=Any, moved=Optional[Tuple[str, ...]],
)
Aborted = _kind(
    "Aborted", "The subtree rooted at *name* aborted.",
    name=TransactionName,
    doomed=Tuple[TransactionName, ...],
    moved=Optional[Tuple[str, ...]],
    cause=str,
)
Wounded = _kind(
    "Wounded", "Wound-wait chose *victim* to die for *by*.",
    victim=TransactionName, by=TransactionName,
)
Deadlocked = _kind(
    "Deadlocked", "A deadlock was resolved (victim tree, if chosen).",
    victim=Optional[TransactionName],
)
Waited = _kind(
    "Waited", "*txn* waited for *object_name* from *started* to *ended*.",
    txn=TransactionName, object_name=str, started=float, ended=float,
)
Tagged = _kind(
    "Tagged", "The next abort of *name* is for *cause*.",
    name=TransactionName, cause=str,
)

#: Every event kind.
EVENTS = (
    Began, Granted, Denied, Committed, Aborted,
    Wounded, Deadlocked, Waited, Tagged,
)


def emit(handlers, event) -> None:
    """Hand *event* to each of *handlers* (a kind's handler tuple)."""
    for handler in handlers:
        handler(event)


def _serialised(lock, handlers):
    def dispatch(event):
        with lock:
            for handler in handlers:
                handler(event)

    return dispatch


class Spine:
    """Subscriber registry and emission points, mixed into an engine.

    The ``_on_<kind>`` attributes are the handler tuples the emission
    points read.  Subscribe before driving transactions: a subscriber
    attached mid-run sees only what happens after it.
    """

    _subscribers: Tuple[Any, ...] = ()
    _dispatch_lock = None
    _on_began = _on_granted = _on_denied = _on_committed = ()
    _on_aborted = _on_wounded = _on_deadlocked = _on_waited = ()
    _on_tagged: Tuple = ()

    @property
    def subscribers(self) -> Tuple[Any, ...]:
        """Everything subscribed, in subscription order."""
        return self._subscribers

    def subscribe(self, subscriber):
        """Add *subscriber* (idempotent); returns it."""
        if subscriber not in self._subscribers:
            self._subscribers += (subscriber,)
            self._wire()
        return subscriber

    def subscriber(self, kind) -> Optional[Any]:
        """The first subscriber that is a *kind* instance, or None."""
        for sub in self._subscribers:
            if isinstance(sub, kind):
                return sub
        return None

    @property
    def recorder(self) -> Optional[TraceRecorder]:
        """The model-alphabet recorder (``trace=True``), or None."""
        return self.subscriber(TraceRecorder)

    def serialise_dispatch(self, lock) -> None:
        """Run each event's fan-out under *lock* (threaded drivers)."""
        self._dispatch_lock = lock
        self._wire()

    def _wire(self) -> None:
        lock = self._dispatch_lock
        for kind in EVENTS:
            subs = [s for s in self._subscribers if hasattr(s, kind.handler)]
            handlers = tuple(getattr(sub, kind.handler) for sub in subs)
            if lock is not None and not all(
                getattr(sub, "THREAD_SAFE", False) for sub in subs
            ):
                handlers = (_serialised(lock, handlers),)
            setattr(self, "_" + kind.handler, handlers)

    def note(self, kind, *fields) -> None:
        """Emit a *kind* event of *fields*, if anything subscribes.

        The emission point for what a driver knows and the engine does
        not: a wound, a resolved deadlock, a lock wait, an abort cause.
        """
        on = getattr(self, "_" + kind.handler)
        if on:
            emit(on, kind(*fields))

    def attach_auditor(self, auditor=None, config=None):
        """Subscribe an online serializability auditor; returns it.

        With no *auditor* given one is built from *config*, defaulting
        to the capability-gated trust dial
        (:meth:`repro.audit.AuditConfig.for_capabilities`): a
        model-conformant scheme gets sampled auditing, anything
        experimental a full audit.
        """
        from repro.audit import AuditConfig, OnlineAuditor

        if auditor is None:
            if config is None:
                config = AuditConfig.for_capabilities(self.capabilities)
            auditor = OnlineAuditor(config)
        return self.subscribe(auditor)
