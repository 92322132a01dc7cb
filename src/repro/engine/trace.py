"""Model-alphabet trace recording for engine runs.

With ``trace=True`` an engine subscribes a :class:`TraceRecorder` to its
event spine (:mod:`repro.engine.spine`).  The recorder is the one place
in :mod:`repro.engine` that builds the formal model's operation alphabet
(:mod:`repro.core.events`): it expands each engine event into that
transition's model actions, in the model's order.  It also keeps enough
structure (tree shape, access classification, commit values) to rebuild a
:class:`~repro.core.names.SystemType` after the fact, so a finished run can
be replayed against the R/W Locking system automata and checked for serial
correctness -- the engine-conformance pipeline of
:mod:`repro.checking.conformance`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.events import (
    Abort,
    Commit,
    Create,
    Event,
    InformAbortAt,
    InformCommitAt,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.names import (
    ROOT,
    AccessSpec,
    SystemType,
    TransactionName,
)
from repro.core.object_spec import ObjectSpec


class TraceRecorder:
    """Collects an engine run's events and its emergent system type.

    With ``max_events`` set, the recorder runs in bounded ring-buffer
    mode: only the newest *max_events* events are retained
    (:attr:`dropped_events` counts the evicted head), so long fuzz or
    soak runs can keep tracing without unbounded memory growth.  A
    truncated trace still supports tail inspection and debugging, but
    not conformance replay -- the replay needs the events from the
    very first CREATE, so leave ``max_events`` unset for checking runs.

    *moves_locks* says whether the engine's policy passes an access
    leaf's lock to its parent (Moss' policies do; flat 2PL re-homes
    it), which decides whether an access ends in INFORM_COMMIT_AT.
    """

    def __init__(
        self, max_events: Optional[int] = None, moves_locks: bool = True
    ):
        if max_events is not None and max_events < 1:
            raise ValueError(
                "max_events must be positive, got %r" % (max_events,)
            )
        self.max_events = max_events
        self.moves_locks = moves_locks
        self.events: "deque[Event]" = deque(maxlen=max_events)
        self.dropped_events = 0
        self._children: Dict[TransactionName, List[TransactionName]] = {
            ROOT: []
        }
        self._accesses: Dict[TransactionName, AccessSpec] = {}
        self.commit_values: Dict[TransactionName, Any] = {}

    @classmethod
    def for_policy(
        cls, policy, max_events: Optional[int] = None
    ) -> "TraceRecorder":
        """A recorder for an engine running *policy*, from its start.

        The model's environment transaction T0 is created by the
        scheduler before anything else; the trace opens with it.
        """
        recorder = cls(max_events=max_events, moves_locks=policy.moves_locks)
        recorder.record(Create(ROOT))
        return recorder

    @property
    def bounded(self) -> bool:
        return self.max_events is not None

    def record(self, event: Event) -> None:
        """Append one event to the trace (evicting the head if bounded)."""
        if (
            self.max_events is not None
            and len(self.events) == self.max_events
        ):
            self.dropped_events += 1
        self.events.append(event)

    # ------------------------------------------------------------------
    # Spine subscriber: engine events -> model actions
    # ------------------------------------------------------------------
    def on_began(self, event) -> None:
        name = event.name
        self._children.setdefault(name[:-1], []).append(name)
        self._children.setdefault(name, [])
        self.record(RequestCreate(name))
        self.record(Create(name))

    def on_granted(self, event) -> None:
        access = event.access
        object_name = event.object_name
        result = event.result
        # Record the classification the policy actually used: under
        # "exclusive" every access is designated a write, so the
        # replayed M(X) takes write locks exactly like the engine did.
        operation = event.operation
        if operation.is_read and not event.is_read:
            operation = replace(operation, is_read=False)
        self._children.setdefault(access[:-1], []).append(access)
        self._accesses[access] = AccessSpec(object_name, operation)
        self.record(RequestCreate(access))
        self.record(Create(access))
        self.record(RequestCommit(access, result))
        self.record(Commit(access))
        self.record(ReportCommit(access, result))
        if self.moves_locks:
            self.record(InformCommitAt(object_name, access))

    def on_committed(self, event) -> None:
        name = event.name
        value = event.value
        self.commit_values[name] = value
        self.record(RequestCommit(name, value))
        self.record(Commit(name))
        self.record(ReportCommit(name, value))
        for object_name in event.moved or ():
            self.record(InformCommitAt(object_name, name))

    def on_aborted(self, event) -> None:
        name = event.name
        self.record(Abort(name))
        self.record(ReportAbort(name))
        for object_name in event.moved or ():
            self.record(InformAbortAt(object_name, name))

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def schedule(self) -> Tuple[Event, ...]:
        """The recorded events as an immutable schedule."""
        return tuple(self.events)

    def system_type(self, specs: Dict[str, ObjectSpec]) -> SystemType:
        """Rebuild the concrete system type this run inhabited."""
        return SystemType(self._children, self._accesses, specs)

    def analyze(self, specs: Dict[str, ObjectSpec]):
        """Run the schedule linter and race detector on this trace.

        Returns ``(schedule_report, race_report)``; see
        :mod:`repro.analysis`.  Imported lazily so plain engine runs do
        not pay for the analysis machinery.
        """
        from repro.analysis import analyze_trace

        return analyze_trace(self.schedule(), self.system_type(specs))
