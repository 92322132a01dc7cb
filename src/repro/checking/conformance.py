"""Engine-to-model conformance checking.

An engine run with tracing enabled produces a schedule over the formal
model's alphabet.  Conformance means two things, both checked here:

1. **Refinement**: the trace is literally a schedule of the R/W Locking
   system automata for the run's emergent system type -- every event is
   replayed through the composition of transaction automata, M(X) objects
   and the generic scheduler, which must accept each step.
2. **Serial correctness**: the trace passes the Theorem 34 checker, i.e.
   it is serially correct for every non-orphan transaction.

Transaction behaviour for the replay is reconstructed from the trace by
:class:`TraceLogic`: each transaction may request exactly the children it
requested in the run, and commits with exactly the value it reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.correctness import ScheduleReport, check_schedule
from repro.core.events import RequestCommit, RequestCreate
from repro.core.names import TransactionName
from repro.core.systems import RWLockingSystem, SerialSystem
from repro.core.transaction import LocalView, TransactionLogic
from repro.engine.engine import Engine
from repro.errors import EngineError, NotEnabledError, TruncatedTrace


class TraceLogic(TransactionLogic):
    """Replays one transaction's recorded behaviour.

    Permissive where it can be: children may be requested in any order the
    surrounding schedule asks for (projection equality pins the order
    anyway), and the commit value is offered whenever the transaction has
    been created.
    """

    def __init__(
        self,
        wanted: Tuple[TransactionName, ...],
        commit_value: Any = None,
        has_commit: bool = False,
    ):
        self.wanted = wanted
        self.commit_value = commit_value
        self.has_commit = has_commit

    def request_candidates(self, view: LocalView):
        requested = set(view.requested)
        return tuple(
            child for child in self.wanted if child not in requested
        )

    def commit_values(self, view: LocalView):
        if self.has_commit:
            return (self.commit_value,)
        return ()


def trace_logic_factory(alpha, commit_values: Dict[TransactionName, Any]):
    """Build a logic factory reproducing the behaviour recorded in *alpha*."""
    requested: Dict[TransactionName, List[TransactionName]] = {}
    committed_value: Dict[TransactionName, Any] = dict(commit_values)
    has_commit: Dict[TransactionName, bool] = {}
    for event in alpha:
        if isinstance(event, RequestCreate):
            mother = event.transaction[:-1]
            requested.setdefault(mother, []).append(event.transaction)
        elif isinstance(event, RequestCommit):
            has_commit[event.transaction] = True
            committed_value.setdefault(event.transaction, event.value)

    def factory(name: TransactionName) -> TransactionLogic:
        return TraceLogic(
            tuple(requested.get(name, ())),
            commit_value=committed_value.get(name),
            has_commit=has_commit.get(name, False),
        )

    return factory


@dataclass
class ConformanceReport:
    """Result of replaying one engine trace against the model."""

    refinement_ok: bool
    rejection: Optional[str]
    correctness: Optional[ScheduleReport]
    trace_length: int
    #: Rule-level findings from the schedule linter explaining a
    #: failure (populated only when the replay rejects or Theorem 34 is
    #: violated; empty tuple when the linter found nothing to blame).
    diagnosis: Optional[Tuple] = None
    #: Engine/M(X) lock-table lockstep: after a successful replay the
    #: engine's live holder sets must equal the replayed automata's,
    #: object for object.  Guards the lock-grant fast path -- any
    #: divergence between the optimised tables and the paper's rules
    #: shows up here bit-for-bit.
    lockstep_ok: bool = True
    lockstep_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (
            self.refinement_ok
            and self.lockstep_ok
            and (self.correctness is not None and bool(self.correctness))
        )

    def __bool__(self) -> bool:
        return self.ok


def replay_trace(
    system_type, alpha, factory
) -> Tuple[RWLockingSystem, Optional[str]]:
    """Replay *alpha* through the R/W Locking system automata.

    Returns the system (in the state after the last accepted event)
    and the first rejection, or None when every event was accepted.
    """
    rw_system = RWLockingSystem(system_type, logic_factory=factory)
    for index, event in enumerate(alpha):
        try:
            rw_system.apply(event)
        except NotEnabledError as exc:
            return rw_system, "event %d (%s) rejected: %s" % (
                index, event, exc
            )
    return rw_system, None


def check_lockstep(
    engine: Engine, rw_system: RWLockingSystem
) -> Tuple[bool, Optional[str]]:
    """Compare live engine lock tables against the replayed M(X) state.

    Uses the engine objects' zero-copy ``holders_view()`` (read-only
    inspection; nothing is mutated and nothing runs concurrently here).
    """
    for object_name, managed in engine.locks.objects.items():
        view = getattr(managed, "holders_view", None)
        if view is None:
            # Non-Moss managed objects (e.g. semantic locking) have no
            # holder sets to compare; they are also not model
            # conformant, so check_engine_trace rejects them earlier.
            continue
        write_holders, read_holders = view()
        mx = rw_system.locking_object(object_name)
        if write_holders != mx.write_lockholders:
            return False, (
                "%s: engine write holders %r != M(X) %r"
                % (
                    object_name,
                    sorted(write_holders),
                    sorted(mx.write_lockholders),
                )
            )
        if read_holders != mx.read_lockholders:
            return False, (
                "%s: engine read holders %r != M(X) %r"
                % (
                    object_name,
                    sorted(read_holders),
                    sorted(mx.read_lockholders),
                )
            )
    return True, None


def check_engine_trace(engine: Engine) -> ConformanceReport:
    """Run the full conformance pipeline on a traced engine.

    The engine must have been constructed with ``trace=True`` and run a
    scheme whose capabilities declare ``model_conformant`` (``moss-rw``
    or ``exclusive``); flat 2PL and MVTO do not refine Moss' automata
    and are rejected up front.  A recorder that dropped events (ring
    buffer) kept only a suffix, which no replay from a fresh system can
    judge: :class:`~repro.errors.TruncatedTrace`.
    """
    if not engine.capabilities.model_conformant:
        raise EngineError(
            "scheme %r does not refine the Moss model" % engine.scheme_name
        )
    recorder = engine.recorder
    if recorder is None:
        raise EngineError("engine was not constructed with trace=True")
    if recorder.dropped_events:
        raise TruncatedTrace(
            "the trace recorder dropped %d event(s); only a complete "
            "trace can be judged" % recorder.dropped_events
        )
    alpha = recorder.schedule()
    system_type = recorder.system_type(engine.specs)
    factory = trace_logic_factory(alpha, recorder.commit_values)

    rw_system, rejection = replay_trace(system_type, alpha, factory)
    refinement_ok = rejection is None

    correctness: Optional[ScheduleReport] = None
    if refinement_ok:
        serial_system = SerialSystem(system_type, logic_factory=factory)
        correctness = check_schedule(
            system_type, alpha, serial_system=serial_system
        )

    lockstep_ok = True
    lockstep_error: Optional[str] = None
    if refinement_ok:
        # With the complete trace replayed, the engine's live lock
        # tables and the replayed M(X) automata describe the same
        # moment; they must agree holder-for-holder.  This pins the
        # engine's grant fast path and depth-indexed aborts to the
        # unoptimised model rules.
        lockstep_ok, lockstep_error = check_lockstep(engine, rw_system)

    report = ConformanceReport(
        refinement_ok=refinement_ok,
        rejection=rejection,
        correctness=correctness,
        trace_length=len(alpha),
        lockstep_ok=lockstep_ok,
        lockstep_error=lockstep_error,
    )
    if not report.ok:
        # Hand the failing trace to the schedule linter so every replay
        # failure comes with a rule-level diagnosis.
        from repro.analysis import lint_schedule

        report.diagnosis = tuple(lint_schedule(alpha, system_type).findings)
    return report
