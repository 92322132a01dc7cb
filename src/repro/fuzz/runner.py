"""Run one fuzz case; search for failing ones; report reproducers.

A *case* is fully described by ``(FuzzConfig, choice list)``: the config
seeds the worker programs and the fault streams, the choice list pins
the interleaving (an empty/absent list means seeded random search).
:func:`run_case` executes the case under the
:class:`~repro.fuzz.controller.InterleavingController` and judges the
run with four oracles:

1. **conformance** -- the engine trace is replayed against the formal
   model by :func:`repro.checking.check_engine_trace`; any refinement
   rejection or Theorem 34 violation arrives with rule-level
   (``RW001``...) findings from :mod:`repro.analysis` (skipped for
   schemes whose capabilities declare ``model_conformant=False``,
   e.g. ``mvto`` -- the stall and exception oracles still apply);
2. **stall** -- all workers blocked (impossible under wound-wait), or
   a parked worker with no live blocker (a lost wakeup; Kuznetsov-Ravi
   progressiveness, checked at every scheduling decision);
3. **worker exceptions** -- anything unexpected escaping a worker body;
4. **audit** (opt-in, ``run_case(audit=True)``) -- the online
   serializability auditor (:mod:`repro.audit`) watches the run and
   fails the case with a minimal witness cycle (``SER001``) when the
   committed top-level transactions admit no serial order.

The :attr:`FuzzCaseResult.digest` hashes the decision sequence, every
yield-point event, every lock-table transition and the full engine
trace, so two runs are byte-for-byte identical iff their digests match.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.threadsafe import ThreadSafeEngine
from repro.errors import TransactionAborted
from repro.fuzz.controller import (
    BoundedPreemptionStrategy,
    FuzzStall,
    InterleavingController,
    RandomStrategy,
    ReplayStrategy,
    SchedulingStrategy,
)
from repro.fuzz.faults import FaultInjector, FaultPlan, fault_plan
from repro.kernel import get_scheme
from repro.fuzz.workload import (
    AccessStep,
    ChildBlock,
    WorkerLog,
    WorkloadConfig,
    make_worker_programs,
)


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that seeds one fuzz case (besides the choice list)."""

    seed: int = 0
    workers: int = 3
    transactions_per_worker: int = 2
    steps_per_transaction: int = 4
    faults: str = "none"
    objects: Tuple[str, ...] = ("c", "x")
    #: registered kernel scheme to fuzz (``repro.kernel.scheme_names``);
    #: a fault preset carrying its own policy (``broken-no-inherit``)
    #: overrides this field
    scheme: str = "moss-rw"

    def workload(self) -> WorkloadConfig:
        return WorkloadConfig(
            workers=self.workers,
            transactions_per_worker=self.transactions_per_worker,
            steps_per_transaction=self.steps_per_transaction,
            objects=self.objects,
        )

    def plan(self) -> FaultPlan:
        return fault_plan(self.faults)


@dataclass
class FuzzCaseResult:
    """Outcome of one controlled run."""

    config: FuzzConfig
    #: the canonical reproducer input: the choice list the case was run
    #: with (decisions past its end fall back deterministically), or the
    #: full recorded decision list for search runs
    choices: List[int]
    #: every decision actually taken, as recorded by the controller
    decisions: List[int]
    kind: str  # "ok" | "conformance" | "stall" | "worker-exception" | "audit"
    rule_codes: Tuple[str, ...]
    digest: str
    trace_length: int
    decision_count: int
    stall_reason: Optional[str] = None
    worker_errors: Tuple[str, ...] = ()
    #: first few human-readable findings, for reports
    finding_lines: Tuple[str, ...] = ()
    logs: List[WorkerLog] = field(default_factory=list)
    #: online serializability audit of the run (``run_case(audit=True)``);
    #: a :class:`repro.audit.AuditReport`, or None when auditing was off
    audit: Optional[object] = None
    #: write-ahead log of the run (``run_case(wal=True)``); a
    #: :class:`repro.wal.WriteAheadLog` over an in-memory sink, or None
    #: when logging was off or the scheme declares ``durable=False``
    wal: Optional[object] = None

    @property
    def failed(self) -> bool:
        return self.kind != "ok"

    @property
    def signature(self) -> Tuple[str, Tuple[str, ...]]:
        """What must be preserved for a shrunk case to count as "the"
        failure: the failure kind and its rule codes."""
        return (self.kind, self.rule_codes)


def same_failure(
    result: FuzzCaseResult,
    signature: Tuple[str, Tuple[str, ...]],
) -> bool:
    """Does *result* reproduce *signature*?

    The kind must match; rule codes must overlap (or both be empty),
    so shrinking may drop incidental findings but never wander onto an
    unrelated failure.
    """
    kind, codes = signature
    if not result.failed or result.kind != kind:
        return False
    if not codes:
        return not result.rule_codes
    return bool(set(result.rule_codes) & set(codes))


def _worker_body(
    facade: ThreadSafeEngine,
    injector: FaultInjector,
    worker_id: int,
    programs,
    log: WorkerLog,
    pending: Dict[int, Tuple],
):
    def perform(handle, access: AccessStep):
        pending[worker_id] = (handle, access)  # for _has_live_blocker
        return handle.perform(access.object_name, access.operation)

    def body():
        for program in programs:
            top = facade.begin_top()
            try:
                _run_program(injector, worker_id, top, program, log, perform)
            except TransactionAborted:
                # Wounded by an older transaction (the whole subtree is
                # already aborted); abandon this program.
                log.wounded += 1
            finally:
                if top.is_active:
                    top.abort()

    return body


def _run_program(injector, worker_id, top, program, log, perform):
    for step in program.steps:
        if injector.crash_now(worker_id):
            log.crashed += 1
            top.abort()
            return
        if isinstance(step, AccessStep):
            result = perform(top, step)
            log.performed.append((step.object_name, result))
            continue
        assert isinstance(step, ChildBlock)
        child = top.begin_child()
        orphan_attempt = injector.orphan_now(worker_id)
        for access in step.steps:
            if injector.crash_now(worker_id):
                # A real crash does not wait for in-flight children to
                # return: abort the top while the child handle is
                # live, tearing the whole subtree down mid-block.
                # Without this draw, crashes only ever fired between
                # top-level steps and recovery's orphan handling went
                # untested.
                log.crashed += 1
                log.crashed_with_live_child += 1
                top.abort()
                return
            result = perform(child, access)
            log.performed.append((access.object_name, result))
        if orphan_attempt:
            # Abort the whole top while the child handle is live, then
            # drive one more access through it: the orphan guard must
            # reject the access (were it granted, the trace would carry
            # an RW002 orphan access for the oracle to flag).
            top.abort()
            try:
                perform(child, step.steps[0])
            except TransactionAborted:
                log.orphan_guard_hits += 1
            return
        if step.commit:
            child.commit()
        else:
            child.abort()
    if top.is_active:
        if program.commit:
            top.commit()
        else:
            top.abort()


class _LockLog:
    """Spine subscriber: every lock-table move as ``(kind, name, objects)``.

    The digest's lock-movement input: an access moves its object's
    table (``"acquire"``), and a commit or abort moves the tables it
    lists (an engine that visited none -- a flat policy's child commit
    -- logs nothing).
    """

    def __init__(self):
        self.entries: List[Tuple] = []

    def on_granted(self, event) -> None:
        self.entries.append(("acquire", event.access, (event.object_name,)))

    def on_committed(self, event) -> None:
        if event.moved is not None:
            self.entries.append(("commit", event.name, event.moved))

    def on_aborted(self, event) -> None:
        if event.moved is not None:
            self.entries.append(("abort", event.name, event.moved))


def _has_live_blocker(engine, handle, access: AccessStep) -> bool:
    """Progressiveness: a worker parked on *access* must have a live
    tree and a conflicting non-ancestor holder (else a wake was lost)."""
    if not engine.transaction(handle.name[:1]).is_active:
        return False
    txn = engine.transaction(handle.name)
    return bool(
        engine.fresh_blockers(txn, access.object_name, access.operation)
    )


def _schedule(engine) -> Tuple:
    recorder = engine.recorder
    return () if recorder is None else recorder.schedule()


def _digest(controller, lock_log, engine) -> str:
    hasher = hashlib.sha256()
    for decision in controller.decisions:
        hasher.update(("d%d;" % decision).encode())
    for event in controller.events:
        hasher.update(repr(event).encode())
    for entry in lock_log:
        hasher.update(repr(entry).encode())
    for event in _schedule(engine):
        hasher.update(repr(event).encode())
    return hasher.hexdigest()


def run_case(
    config: FuzzConfig,
    choices: Optional[Sequence[int]] = None,
    strategy: Optional[SchedulingStrategy] = None,
    observer=None,
    trace_limit: Optional[int] = None,
    audit: bool = False,
    wal: bool = False,
) -> FuzzCaseResult:
    """Execute one fuzz case deterministically and judge it.

    Precedence for the interleaving: an explicit *strategy* wins, then
    a *choices* list (exact replay), then seeded random search.

    *observer* (a :class:`repro.obs.Observer`) attaches the tracing/
    metrics layer to the run, so a reproducer can ship with a span
    trace; *trace_limit* bounds the model-alphabet trace recorder
    (ring-buffer mode) for long runs.  *audit* adds the online
    serializability auditor as a fourth oracle: every top-level tree
    is audited (``sample_every=1`` -- an oracle must not sample, and
    the deliberately broken policies claim ``model_conformant``, so
    the capability dial would under-audit exactly the runs that need
    it most), a witnessed cycle fails the case with kind ``"audit"``
    when no stronger oracle fired first, and the report rides on
    :attr:`FuzzCaseResult.audit`.  *wal* attaches an in-memory
    write-ahead log (:mod:`repro.wal`) before the run and ships it on
    :attr:`FuzzCaseResult.wal` -- the crash-recovery harness truncates
    and recovers it; schemes declaring ``durable=False`` run without
    one (the field stays None).  None of the four affect the schedule,
    the other oracles, or the digest inputs.
    """
    if strategy is None:
        if choices is not None:
            strategy = ReplayStrategy(choices)
        else:
            strategy = RandomStrategy(config.seed)
    workload = config.workload()
    plan = config.plan()
    scheme = get_scheme(plan.scheme_for(config.scheme))
    facade = ThreadSafeEngine(
        workload.store(),
        policy=scheme,
        trace=True,
        trace_limit=trace_limit,
        observer=observer,
    )
    auditor = None
    if audit:
        from repro.audit import AuditConfig

        auditor = facade.attach_auditor(config=AuditConfig(sample_every=1))
    wal_log = None
    if wal and facade.capabilities.durable:
        wal_log = facade.attach_wal()
    injector = FaultInjector(config.seed, plan, config.workers)
    controller = InterleavingController(strategy, injector=injector)
    facade.install_hooks(controller)
    lock_log = _LockLog()
    if hasattr(facade.engine, "locks"):
        facade.engine.subscribe(lock_log)
    logs = [WorkerLog() for _ in range(config.workers)]
    pending: Dict[int, Tuple] = {}
    for worker_id in range(config.workers):
        programs = make_worker_programs(
            config.seed, worker_id, workload
        )
        controller.spawn(
            worker_id,
            _worker_body(
                facade, injector, worker_id, programs, logs[worker_id], pending
            ),
        )
    controller.run(lambda w: _has_live_blocker(facade.engine, *pending[w]))

    digest = _digest(controller, lock_log.entries, facade.engine)
    errors = {
        worker_id: exc
        for worker_id, exc in controller.worker_errors().items()
        if not isinstance(exc, FuzzStall)
    }
    kind = "ok"
    rule_codes: Tuple[str, ...] = ()
    finding_lines: Tuple[str, ...] = ()
    if controller.stalled:
        kind = "stall"
    elif errors:
        kind = "worker-exception"
    elif facade.engine.capabilities.model_conformant:
        from repro.checking import check_engine_trace

        report = check_engine_trace(facade.engine)
        if not report.ok:
            kind = "conformance"
            findings = report.diagnosis or ()
            rule_codes = tuple(
                sorted({f.rule.code for f in findings})
            )
            finding_lines = tuple(
                str(f) for f in list(findings)[:6]
            )
            if report.rejection:
                finding_lines = (
                    "replay: %s" % report.rejection,
                ) + finding_lines
    audit_report = None
    if auditor is not None:
        # The recorded model-alphabet trace is the reproducer artifact;
        # if its ring buffer dropped events, the shipped evidence no
        # longer covers the whole run -- report inconclusive rather
        # than a clean audit over unverifiable history.
        recorder = facade.engine.recorder
        if recorder is not None:
            auditor.note_dropped_events(recorder.dropped_events)
        audit_report = auditor.report()
        if kind == "ok" and audit_report.verdict == "violation":
            kind = "audit"
            findings = audit_report.to_analysis_report().findings
            rule_codes = tuple(
                sorted({f.rule.code for f in findings})
            )
            finding_lines = tuple(
                str(f) for f in findings[:6]
            )
    return FuzzCaseResult(
        config=config,
        choices=(
            list(choices)
            if choices is not None
            else list(controller.decisions)
        ),
        decisions=list(controller.decisions),
        kind=kind,
        rule_codes=rule_codes,
        digest=digest,
        trace_length=len(_schedule(facade.engine)),
        decision_count=len(controller.decisions),
        stall_reason=controller.stall_reason,
        worker_errors=tuple(
            "worker %d: %r" % (worker_id, exc)
            for worker_id, exc in sorted(errors.items())
        ),
        finding_lines=finding_lines,
        logs=logs,
        audit=audit_report,
        wal=wal_log,
    )


@dataclass
class SearchResult:
    """Outcome of a fuzz search."""

    failure: Optional[FuzzCaseResult]
    attempts: int
    clean_digests: Tuple[str, ...] = ()


def fuzz_search(
    config: FuzzConfig, runs: int = 20, audit: bool = False
) -> SearchResult:
    """Run up to *runs* seeded cases; stop at the first failure.

    Attempt ``i`` runs with ``seed + i`` (workload, faults and
    scheduling all derive from it), so a reported failure is fully
    described by its own config and recorded choices.  *audit* turns
    on the serializability auditor-oracle for every case.
    """
    digests = []
    for attempt in range(runs):
        case_config = replace(config, seed=config.seed + attempt)
        result = run_case(case_config, audit=audit)
        if result.failed:
            return SearchResult(
                failure=result,
                attempts=attempt + 1,
                clean_digests=tuple(digests),
            )
        digests.append(result.digest)
    return SearchResult(
        failure=None, attempts=runs, clean_digests=tuple(digests)
    )


def explore_bounded(
    config: FuzzConfig,
    max_preemptions: int = 1,
    budget: int = 200,
    audit: bool = False,
) -> SearchResult:
    """CHESS-style bounded-preemption exploration.

    Runs the non-preemptive round-robin baseline, then every schedule
    obtained by inserting at most *max_preemptions* context switches
    (breadth-first over decision indices and switch targets), up to
    *budget* runs.  Returns at the first failure.  *audit* turns on
    the serializability auditor-oracle for every case.
    """
    attempts = 0
    digests = []

    def run_with(preemptions) -> FuzzCaseResult:
        return run_case(
            config,
            strategy=BoundedPreemptionStrategy(preemptions),
            audit=audit,
        )

    baseline = run_with({})
    attempts += 1
    if baseline.failed:
        return SearchResult(failure=baseline, attempts=attempts)
    digests.append(baseline.digest)
    depth = baseline.decision_count
    frontier: List[dict] = [{}]
    for _ in range(max_preemptions):
        next_frontier: List[dict] = []
        for base in frontier:
            start = max(base) + 1 if base else 0
            for index in range(start, depth):
                for offset in range(
                    max(1, config.workers - 1)
                ):
                    if attempts >= budget:
                        return SearchResult(
                            failure=None,
                            attempts=attempts,
                            clean_digests=tuple(digests),
                        )
                    preemptions = dict(base)
                    preemptions[index] = offset
                    result = run_with(preemptions)
                    attempts += 1
                    if result.failed:
                        return SearchResult(
                            failure=result, attempts=attempts
                        )
                    digests.append(result.digest)
                    next_frontier.append(preemptions)
        frontier = next_frontier
    return SearchResult(
        failure=None, attempts=attempts, clean_digests=tuple(digests)
    )


def emit_regression_test(result: FuzzCaseResult) -> str:
    """A paste-able pytest reproducing *result* exactly."""
    config = result.config
    codes = ", ".join(repr(code) for code in result.rule_codes)
    lines = [
        "def test_fuzz_regression_seed_%d():" % config.seed,
        '    """Minimal reproducer found by `python -m repro fuzz`;',
        "    replays deterministically from (seed, choices).\"\"\"",
        "    from repro.fuzz import FuzzConfig, run_case",
        "",
        "    config = FuzzConfig(",
        "        seed=%d," % config.seed,
        "        workers=%d," % config.workers,
        "        transactions_per_worker=%d,"
        % config.transactions_per_worker,
        "        steps_per_transaction=%d,"
        % config.steps_per_transaction,
        "        faults=%r," % config.faults,
        "        objects=%r," % (config.objects,),
        "        scheme=%r," % config.scheme,
        "    )",
        "    result = run_case(config, choices=%r)"
        % (result.choices,),
        "    assert result.failed",
        "    assert result.kind == %r" % result.kind,
    ]
    if codes:
        lines.append(
            "    assert set(result.rule_codes) & {%s}" % codes
        )
    lines.append(
        "    assert result.digest == %r" % result.digest
    )
    return "\n".join(lines) + "\n"
