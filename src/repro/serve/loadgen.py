"""Open- and closed-loop load generators for the transaction service.

Two classic shapes (and the reason both exist -- they answer different
questions):

* **closed loop** -- ``clients`` worker threads, each driving one
  :class:`~repro.serve.client.SyncClient` transaction-at-a-time (think
  time optional).  Offered load adapts to service rate, so this
  measures *capacity* (max sustainable throughput at a concurrency).
* **open loop** -- Poisson arrivals at a configured ``rate``; each
  arrival checks a connection out of a ``clients``-sized pool for the
  life of its transaction (concurrent transactions must not share a
  connection -- the server serializes each connection's ops, so they
  would head-of-line block on each other's locks).  Arrivals do not
  wait for completions, so queueing delay -- including waiting for a
  free pool slot -- is *part of the latency*.  This measures behaviour
  **under** a fixed offered load, the regime where admission control
  and shedding matter.

Every transaction is ``begin -> ops_per_txn read/write accesses over
random objects -> commit`` with seeded randomness, so runs are
reproducible.  Latency percentiles come from the canonical
:mod:`repro.obs` primitives (:class:`~repro.obs.metrics.Summary`, one
sample per finished transaction; open-loop samples are measured from
the *scheduled arrival*, closed-loop from ``begin``).  Retryable
denials (``overloaded`` / ``retry_later`` / ``txn_aborted`` /
``lock_denied``) are counted per code; the closed loop retries with
the server's ``retry_after_ms`` hint plus seeded jitter
(:func:`repro.serve.client.backoff_ms`), the open loop records the
outcome and moves on (an open-loop arrival missed is load shed, not
load deferred).
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Summary, percentile
from repro.serve import protocol as proto
from repro.serve.client import (
    AsyncClient,
    ServeError,
    SyncClient,
    backoff_ms,
)


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
    #: A scenario TOML path or library name: shape traffic from the
    #: declarative spec (nested trees, per-class mix, think times)
    #: instead of the flat ``ops_per_txn`` plan.  Overrides ``mode``.
    scenario: Optional[str] = None

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
        #: Set by scenario-shaped runs only.
        self.scenario: Optional[str] = None
        self.digest: Optional[str] = None
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
        extra: Dict[str, Any] = {}
        if self.scenario is not None:
            extra["scenario"] = self.scenario
            extra["digest"] = self.digest
        return {
            **extra,
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
        lines = []
        if self.scenario is not None:
            lines.append(
                "scenario   : %s (digest %s)"
                % (self.scenario, (self.digest or "")[:16])
            )
        lines += [
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

    def plan(self, rng: random.Random) -> List[Dict[str, Any]]:
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
                {
                    "op": "read" if is_read else "write",
                    "object": object_name,
                    "kind": kind,
                    "args": args(rng),
                }
            )
        return ops


def _discover_objects(
    config: LoadgenConfig,
) -> Tuple[List[str], Dict[str, str]]:
    with SyncClient(config.host, config.port) as client:
        hello = client.hello()
    objects = hello.get("objects") or []
    types = hello.get("object_types") or {}
    if config.objects:
        objects = list(config.objects)
    if not objects:
        raise ValueError("server reports no objects to load")
    return objects, types


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def _closed_worker(
    config: LoadgenConfig,
    workload: _Workload,
    report: LoadReport,
    deadline: float,
    index: int,
) -> None:
    rng = random.Random((config.seed << 16) ^ (index * 10007 + 1))
    try:
        client = SyncClient(config.host, config.port)
    except OSError:
        report.outcome("connect_error")
        return
    try:
        while time.monotonic() < deadline:
            started = time.monotonic()
            plan = workload.plan(rng)
            attempt = 0
            while True:
                code = _run_txn_sync(client, plan)
                if code is None:
                    report.commit(
                        time.monotonic() - started, len(plan)
                    )
                    break
                report.outcome(code)
                attempt += 1
                if (
                    attempt > config.max_retries
                    or time.monotonic() >= deadline
                ):
                    break
                report.retry()
                time.sleep(
                    backoff_ms(None, attempt, rng) / 1000.0
                )
            if config.think_time:
                time.sleep(config.think_time)
    except (ConnectionError, OSError):
        report.outcome("connection_lost")
    finally:
        client.close()


def _run_txn_sync(client: SyncClient, plan) -> Optional[str]:
    """One transaction attempt; returns None or the failure code."""
    try:
        txn = client.begin()
    except ServeError as exc:
        return exc.code
    try:
        for op in plan:
            client.call(op["op"], txn=list(txn), **{
                key: value
                for key, value in op.items()
                if key not in ("op",)
            })
        client.commit(txn)
        return None
    except ServeError as exc:
        if exc.code != proto.ERR_TXN_ABORTED:
            try:
                client.abort(txn)
            except (ServeError, ConnectionError, OSError):
                pass
        return exc.code


def run_closed_loop(config: LoadgenConfig) -> LoadReport:
    objects, types = _discover_objects(config)
    workload = _Workload(
        objects, config.ops_per_txn, config.read_fraction, types
    )
    report = LoadReport("closed")
    started = time.monotonic()
    deadline = started + config.duration
    threads = [
        threading.Thread(
            target=_closed_worker,
            args=(config, workload, report, deadline, index),
            daemon=True,
        )
        for index in range(config.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.monotonic() - started
    return report


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
async def _open_txn(
    client: AsyncClient,
    plan,
    scheduled: float,
    report: LoadReport,
) -> None:
    try:
        txn = (await client.call("begin"))["txn"]
    except ServeError as exc:
        report.outcome(exc.code)
        return
    except (ConnectionError, OSError):
        report.outcome("connection_lost")
        return
    try:
        for op in plan:
            await client.call(
                op["op"],
                txn=txn,
                **{k: v for k, v in op.items() if k != "op"},
            )
        await client.call("commit", txn=txn)
        report.commit(
            time.monotonic() - scheduled, len(plan)
        )
    except ServeError as exc:
        if exc.code != proto.ERR_TXN_ABORTED:
            try:
                await client.call_raw("abort", txn=txn)
            except (ConnectionError, OSError):
                pass
        report.outcome(exc.code)
    except (ConnectionError, OSError):
        report.outcome("connection_lost")


async def _checkout(
    pool: "asyncio.Queue", config: LoadgenConfig
) -> Optional[AsyncClient]:
    """Take a healthy connection from the pool (reconnect dead slots).

    Returns None when no connection could be had within the grace
    window (server down, or every slot stuck past the drain timeout).
    """
    try:
        client = await asyncio.wait_for(pool.get(), timeout=30.0)
    except asyncio.TimeoutError:
        return None
    if client is not None and client.connected:
        return client
    if client is not None:
        await client.close()
    try:
        return await AsyncClient.connect(config.host, config.port)
    except OSError:
        pool.put_nowait(None)  # keep the slot; retry on next checkout
        return None


async def _open_arrival(
    pool: "asyncio.Queue",
    config: LoadgenConfig,
    plan,
    scheduled: float,
    report: LoadReport,
) -> None:
    client = await _checkout(pool, config)
    if client is None:
        report.outcome("no_connection")
        return
    try:
        await _open_txn(client, plan, scheduled, report)
    finally:
        pool.put_nowait(client if client.connected else None)
        if not client.connected:
            await client.close()


async def _run_open_loop(config: LoadgenConfig) -> LoadReport:
    objects, types = _discover_objects(config)
    workload = _Workload(
        objects, config.ops_per_txn, config.read_fraction, types
    )
    report = LoadReport("open")
    rng = random.Random(config.seed)
    # A checkout pool, NOT shared multiplexing: the server runs each
    # connection's requests as one serially-executed stream, so two
    # in-flight transactions sharing a connection would head-of-line
    # block on each other's locks.  Each arrival owns one connection
    # for the life of its transaction; ``clients`` caps concurrency,
    # and time spent waiting for a free slot is queueing delay that
    # (correctly, for an open loop) counts against latency.
    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(config.clients):
        try:
            pool.put_nowait(
                await AsyncClient.connect(config.host, config.port)
            )
        except OSError:
            pool.put_nowait(None)
    tasks: List[asyncio.Task] = []
    started = time.monotonic()
    deadline = started + config.duration
    scheduled = started
    try:
        while True:
            scheduled += rng.expovariate(config.rate)
            if scheduled >= deadline:
                break
            delay = scheduled - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.ensure_future(
                    _open_arrival(
                        pool,
                        config,
                        workload.plan(rng),
                        scheduled,
                        report,
                    )
                )
            )
        if tasks:
            await asyncio.wait(tasks, timeout=60.0)
    finally:
        for task in tasks:
            if not task.done():
                task.cancel()
        while not pool.empty():
            client = pool.get_nowait()
            if client is not None:
                await client.close()
    report.wall_seconds = time.monotonic() - started
    return report


def run_open_loop(config: LoadgenConfig) -> LoadReport:
    return asyncio.run(_run_open_loop(config))


def run_scenario_loop(config: LoadgenConfig) -> LoadReport:
    """Drive the server with a declarative scenario's traffic.

    The scenario (a TOML path or a library name) is compiled with
    ``config.seed`` and executed by the serve backend driver: full
    nested transaction trees over the wire, per-class read/write mix
    and think times, ``arrival.clients`` worker connections.  The
    transaction count comes from the spec (``config.duration`` does
    not apply), so a scenario run is the same logical op stream every
    backend executes -- the report's digest matches ``repro scenario
    run`` on the simulator.
    """
    import os

    from repro.scenario import compile_scenario, get_driver
    from repro.scenario.library import library_path
    from repro.scenario.spec import load_scenario

    ref = config.scenario
    path = ref if os.path.exists(ref) else library_path(ref)
    spec = load_scenario(path)
    compiled = compile_scenario(spec, config.seed)
    result = get_driver("serve").run(
        compiled,
        host=config.host,
        port=config.port,
        max_retries=config.max_retries,
    )
    report = LoadReport("scenario")
    report.committed = result.committed
    report.aborted = result.aborted
    report.txn_aborted = int(result.extras.get("txn_aborted", 0))
    report.retries = result.retries
    report.ops = result.ops
    report.shed = int(result.extras.get("shed", 0))
    for latency in result.latencies:
        report.txn_latency.add(latency)
    report.wall_seconds = result.makespan
    report.scenario = spec.name
    report.digest = result.digest
    return report


def run_loadgen(config: LoadgenConfig) -> LoadReport:
    """Dispatch on ``config.scenario`` / ``config.mode``."""
    if config.scenario:
        return run_scenario_loop(config)
    if config.mode == "open":
        return run_open_loop(config)
    return run_closed_loop(config)
