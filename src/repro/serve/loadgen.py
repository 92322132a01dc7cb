"""The one client loop, and the load generators built on it.

:func:`run_clients` is the package's only client loop: ``clients``
threads, each owning one connection (a
:class:`~repro.serve.client.SyncClient`) or an in-process facade, take
*jobs* from a source and run each one -- begin, walk, commit, and on a
failure abort, classify, back off, retry -- feeding one thread-safe
:class:`LoadReport`.  It knows *ports* (anything with ``begin_top()``
whose handles have ``begin_child`` / ``perform`` / ``commit`` /
``abort``) and *jobs* (a plan and a scheduled start), not plans: the
caller's attempt function walks the plan.  Every failure is classified
by its wire code (:mod:`repro.serve.protocol`), so there is one
failure vocabulary, and only the codes the taxonomy marks retryable
are retried.  Both load generator modes and the scenario's live
backends (``threadsafe``, ``sharded``, ``serve``) are thin callers of
it.

Two classic load shapes (and the reason both exist -- they answer
different questions):

* **closed loop** -- each of ``clients`` threads runs one transaction
  at a time (think time optional).  Offered load adapts to service
  rate, so this measures *capacity* (max sustainable throughput at a
  concurrency).
* **open loop** -- Poisson arrivals at a configured ``rate``, drawn in
  order from one shared source; a free client thread takes the next
  arrival, sleeps until its scheduled time, and runs it once (a
  connection runs one transaction at a time: the server serializes
  each connection's ops, so sharing one would head-of-line block on
  locks).  Arrivals do not wait for completions, and latency is
  measured from the *scheduled* arrival, so queueing behind
  ``clients`` busy connections is *part of the latency* (no
  coordinated omission).  This measures behaviour **under** a fixed
  offered load, the regime where admission control and shedding
  matter.

Every transaction is ``begin -> ops_per_txn read/write accesses over
random objects -> commit`` with seeded randomness, so runs are
reproducible.  Latency percentiles come from the canonical
:mod:`repro.obs` primitives (:class:`~repro.obs.metrics.Summary`, one
sample per finished transaction; open-loop samples are measured from
the *scheduled arrival*, closed-loop from ``begin``).  Retryable
denials (``overloaded`` / ``retry_later`` / ``txn_aborted`` /
``lock_denied``) are counted per code; the closed loop retries with
seeded jitter (:func:`repro.serve.client.backoff_ms`), the open loop
records the outcome and moves on (an open-loop arrival missed is load
shed, not load deferred).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.object_spec import Operation
from repro.errors import ReproError
from repro.obs.metrics import Summary, percentile
from repro.serve import protocol as proto
from repro.serve.client import ServeError, SyncClient, backoff_ms


@dataclass
class LoadgenConfig:
    """One load-generation run."""

    host: str = "127.0.0.1"
    port: int = 0
    mode: str = "closed"  # "closed" | "open"
    clients: int = 8
    duration: float = 2.0
    #: Open loop only: total offered arrivals/second.
    rate: float = 200.0
    ops_per_txn: int = 4
    read_fraction: float = 0.5
    seed: int = 0
    #: Closed loop only: sleep between transactions (seconds).
    think_time: float = 0.0
    #: Closed loop only: retry budget per transaction.
    max_retries: int = 25
    objects: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError("mode must be 'closed' or 'open'")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")


class LoadReport:
    """Aggregated outcome of one run (thread-safe to feed)."""

    def __init__(self, mode: str):
        self.mode = mode
        self.committed = 0
        self.aborted = 0
        #: Engine-side aborts (``txn_aborted``: wounds, MVTO
        #: conflicts) -- a subset of ``aborted``, surfaced separately
        #: so league tables never fold real aborts into admission
        #: sheds or retryable lock denials.
        self.txn_aborted = 0
        self.shed = 0
        self.failed = 0
        self.ops = 0
        self.retries = 0
        self.errors: Dict[str, int] = {}
        self.txn_latency = Summary()
        self.wall_seconds = 0.0
        self._lock = threading.Lock()

    # -- feeding (workers) --------------------------------------------
    def commit(self, latency: float, ops: int) -> None:
        with self._lock:
            self.committed += 1
            self.ops += ops
            self.txn_latency.add(latency)

    def outcome(self, code: str) -> None:
        with self._lock:
            self.errors[code] = self.errors.get(code, 0) + 1
            if code == proto.ERR_OVERLOADED:
                self.shed += 1
            elif code == proto.ERR_TXN_ABORTED:
                self.aborted += 1
                self.txn_aborted += 1
            elif code in (
                proto.ERR_LOCK_DENIED,
                proto.ERR_RETRY_LATER,
            ):
                self.aborted += 1
            else:
                self.failed += 1

    def retry(self) -> None:
        with self._lock:
            self.retries += 1

    # -- reporting -----------------------------------------------------
    @property
    def throughput(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.committed / self.wall_seconds

    @property
    def op_throughput(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.ops / self.wall_seconds

    def latency_ms(self, fraction: float) -> float:
        return percentile(self.txn_latency.values, fraction) * 1000.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "wall_seconds": round(self.wall_seconds, 4),
            "committed": self.committed,
            "aborted": self.aborted,
            "txn_aborted": self.txn_aborted,
            "shed": self.shed,
            "failed": self.failed,
            "retries": self.retries,
            "ops": self.ops,
            "throughput_txn_s": round(self.throughput, 2),
            "throughput_op_s": round(self.op_throughput, 2),
            "latency_ms": {
                "p50": round(self.latency_ms(0.50), 3),
                "p95": round(self.latency_ms(0.95), 3),
                "p99": round(self.latency_ms(0.99), 3),
                "max": round(self.latency_ms(1.00), 3),
            },
            "errors": dict(sorted(self.errors.items())),
        }

    def render(self) -> str:
        data = self.to_json()
        lat = data["latency_ms"]
        lines = [
            "%s-loop: %d committed (%d aborted [%d txn_aborted], "
            "%d shed, %d failed) in %.2fs" % (
                self.mode, self.committed, self.aborted,
                self.txn_aborted, self.shed, self.failed,
                self.wall_seconds,
            ),
            "throughput : %.1f txn/s  (%.1f op/s)"
            % (self.throughput, self.op_throughput),
            "latency ms : p50=%.2f p95=%.2f p99=%.2f max=%.2f"
            % (lat["p50"], lat["p95"], lat["p99"], lat["max"]),
        ]
        if self.errors:
            lines.append(
                "errors     : "
                + " ".join(
                    "%s=%d" % item
                    for item in sorted(self.errors.items())
                )
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The client loop
# ----------------------------------------------------------------------
#: The code of a connection that failed or was never made.
CONNECTION_LOST = "connection_lost"


@dataclass
class Job:
    """One transaction for :func:`run_clients` to run to an outcome."""

    #: What the caller's attempt function walks.
    plan: Any
    #: ``time.monotonic()`` at which the job may start, and the origin
    #: of its latency: an open loop's scheduled arrival, else now.
    start: float
    #: Seeded randomness for the attempt and its retry pauses.
    rng: Optional[random.Random] = None
    #: Seconds to sleep after the commit.
    think: float = 0.0
    #: Accesses the committed attempt performed (None until then).
    ops: Optional[int] = None


def failure_code(exc: BaseException) -> str:
    """The wire taxonomy's code for a failed attempt's exception.

    A wire error carries its code; a facade exception gets the code
    :func:`repro.serve.protocol.exception_to_error` would answer it
    with; a dead socket is :data:`CONNECTION_LOST`.
    """
    if isinstance(exc, ServeError):
        return exc.code
    if isinstance(exc, OSError):
        return CONNECTION_LOST
    return proto.exception_to_error(None, exc)["error"]["code"]


def run_clients(
    connect: Callable[[], Any],
    jobs: Callable[[int], Iterable[Job]],
    attempt: Callable[[Any, Job], int],
    pause: Callable[[Job, BaseException, int], float],
    report: LoadReport,
    clients: int,
    max_retries: int,
    deadline: Optional[float] = None,
    strict: bool = False,
) -> None:
    """Run ``clients`` client threads to completion; sets the wall time.

    Thread *i* enters ``connect()`` -- a context manager whose value
    has ``begin_top()``: a :class:`SyncClient`, or a facade in a
    ``contextlib.nullcontext`` -- and runs every job of ``jobs(i)``:
    it sleeps until ``job.start``, then makes up to ``max_retries + 1``
    attempts, each ``attempt(top, job) -> accesses`` on a fresh
    top-level transaction that the loop commits.  A failed attempt's
    top is aborted (idempotent on every port) and its
    :func:`failure_code` fed to *report*.  A retryable code sleeps
    ``pause(job, exc, tries)`` seconds and tries again, until the
    budget or *deadline* runs out.  Any other code raises to the
    caller when *strict*; otherwise it ends the job, and the thread
    too once the connection is gone.  An exception outside the
    taxonomy (a bug) always raises, once every thread has finished.
    """
    errors: List[BaseException] = []

    def client(index: int) -> None:
        try:
            try:
                conn = connect()
            except OSError:
                if strict:
                    raise
                report.outcome("connect_error")
                return
            with conn as port:
                for job in jobs(index):
                    if not _run_job(
                        port, job, attempt, pause, report,
                        max_retries, deadline, strict,
                    ):
                        return
        except Exception as exc:  # re-raised by the caller below
            errors.append(exc)

    threads = [
        threading.Thread(
            target=client, args=(index,), name="repro-client-%d" % index
        )
        for index in range(clients)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.monotonic() - started
    if errors:
        raise errors[0]


def _run_job(
    port, job, attempt, pause, report, max_retries, deadline, strict
) -> bool:
    """Run *job* to its outcome; False once the connection is gone."""
    delay = job.start - time.monotonic()
    if delay > 0:
        time.sleep(delay)
    tries = 0
    while True:
        top = None
        try:
            top = port.begin_top()
            ops = attempt(top, job)
            top.commit()
        except (ReproError, OSError) as exc:
            if top is not None:
                try:
                    top.abort()
                except (ReproError, OSError):
                    pass
            code = failure_code(exc)
            retryable = code in proto.RETRYABLE_CODES
            if strict and not retryable:
                raise
            report.outcome(code)
            if not retryable:
                return code != CONNECTION_LOST
            if tries == max_retries or (
                deadline is not None and time.monotonic() >= deadline
            ):
                return True
            report.retry()
            time.sleep(pause(job, exc, tries))
            tries += 1
            continue
        job.ops = ops
        report.commit(time.monotonic() - job.start, ops)
        if job.think:
            time.sleep(job.think)
        return True


# ----------------------------------------------------------------------
# The load generators
# ----------------------------------------------------------------------
#: Per-ADT op kinds: (read kind/args, write kind/args-from-rng).  The
#: hello handshake advertises each object's ADT class, so the workload
#: speaks every served type's language; unknown types get the plain
#: register ops.
_PROFILES = {
    "Counter": (
        ("value", lambda rng: []),
        ("increment", lambda rng: [1]),
    ),
    "SaturatingCounter": (
        ("value", lambda rng: []),
        ("increment", lambda rng: [1]),
    ),
    "BankAccount": (
        ("balance", lambda rng: []),
        ("deposit", lambda rng: [rng.randrange(1, 100)]),
    ),
}
_REGISTER_PROFILE = (
    ("read", lambda rng: []),
    ("write", lambda rng: [rng.randrange(1 << 16)]),
)


@dataclass
class _Workload:
    """Seeded op-mix chooser shared by both loops."""

    objects: List[str]
    ops_per_txn: int
    read_fraction: float
    object_types: Optional[Dict[str, str]] = None

    def plan(self, rng: random.Random) -> List[Tuple[str, Operation]]:
        ops = []
        types = self.object_types or {}
        for _ in range(self.ops_per_txn):
            object_name = rng.choice(self.objects)
            reads, writes = _PROFILES.get(
                types.get(object_name, ""), _REGISTER_PROFILE
            )
            is_read = rng.random() < self.read_fraction
            kind, args = reads if is_read else writes
            ops.append(
                (object_name, Operation(kind, tuple(args(rng)), is_read))
            )
        return ops


def _walk(top, job: Job) -> int:
    """The load generators' attempt: a flat plan's accesses."""
    for object_name, operation in job.plan:
        top.perform(object_name, operation)
    return len(job.plan)


def _load(
    config: LoadgenConfig,
    mode: str,
    jobs,
    pause,
    max_retries: int,
    deadline: Optional[float] = None,
) -> LoadReport:
    """Run *jobs* over ``config.clients`` connections of the server."""
    report = LoadReport(mode)
    run_clients(
        lambda: SyncClient(config.host, config.port),
        jobs,
        _walk,
        pause,
        report,
        config.clients,
        max_retries,
        deadline=deadline,
    )
    return report


def _discover_objects(config: LoadgenConfig) -> _Workload:
    with SyncClient(config.host, config.port) as client:
        hello = client.hello()
    objects = hello.get("objects") or []
    if config.objects:
        objects = list(config.objects)
    if not objects:
        raise ValueError("server reports no objects to load")
    return _Workload(
        objects,
        config.ops_per_txn,
        config.read_fraction,
        hello.get("object_types") or {},
    )


def run_closed_loop(config: LoadgenConfig) -> LoadReport:
    workload = _discover_objects(config)
    deadline = time.monotonic() + config.duration

    def jobs(index: int):
        rng = random.Random((config.seed << 16) ^ (index * 10007 + 1))
        while time.monotonic() < deadline:
            started = time.monotonic()
            yield Job(workload.plan(rng), started, rng, config.think_time)

    return _load(
        config,
        "closed",
        jobs,
        lambda job, exc, tries: backoff_ms(None, tries + 1, job.rng)
        / 1000.0,
        config.max_retries,
        deadline,
    )


def _arrivals(
    workload: _Workload,
    rng: random.Random,
    rate: float,
    origin: float,
    deadline: float,
) -> Callable[[], Optional[Job]]:
    """The open loop's one Poisson arrival stream, shared by clients.

    Each call draws the next gap and then its plan under one lock, so
    a seed's (arrival, plan) sequence does not depend on which client
    thread takes which arrival; None once an arrival would land at or
    after *deadline*.
    """
    lock = threading.Lock()
    scheduled = origin

    def arrival() -> Optional[Job]:
        nonlocal scheduled
        with lock:
            if scheduled >= deadline:
                return None
            scheduled += rng.expovariate(rate)
            if scheduled >= deadline:
                return None
            return Job(workload.plan(rng), scheduled)

    return arrival


def run_open_loop(config: LoadgenConfig) -> LoadReport:
    workload = _discover_objects(config)
    origin = time.monotonic()
    arrival = _arrivals(
        workload,
        random.Random(config.seed),
        config.rate,
        origin,
        origin + config.duration,
    )
    return _load(
        config,
        "open",
        lambda index: iter(arrival, None),
        lambda job, exc, tries: 0.0,
        0,
    )


def run_loadgen(config: LoadgenConfig) -> LoadReport:
    """Dispatch on ``config.mode``."""
    if config.mode == "open":
        return run_open_loop(config)
    return run_closed_loop(config)
