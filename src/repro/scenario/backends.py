"""Scenario drivers: one compiled workload, four execution backends.

Every backend implements the same small protocol::

    driver = get_driver("sim")     # sim | threadsafe | sharded | dist | serve
    result = driver.run(compiled, scheme="moss-rw", seed=3, ...)

and returns a :class:`ScenarioResult` -- committed counts, throughput,
latency percentiles, the backend's own extras, and the digest of the
logical operation stream it drove.  The deterministic backends (sim,
threadsafe, dist) compile from spec + seed alone, so the same spec +
seed reports the same digest on each of them; the cross-backend tests
and benchmark E24 assert that equality.

* ``sim``        -- the DES runner (:func:`repro.sim.run_simulation`):
  simulated time, deterministic end to end, honours the arrival
  process (closed mpl or open-loop Poisson).
* ``threadsafe`` -- real OS threads over
  :class:`~repro.engine.threadsafe.ThreadSafeEngine`: ``clients``
  workers execute the transaction list with blocking waits and
  wound-wait retries; the *work* is deterministic (and verified
  against the plan), wall-clock timings are not.
* ``sharded``    -- the multiprocess engine (:mod:`repro.shard`): the
  threadsafe drive loop over ``workers`` worker *processes* with a
  real cross-shard 2PC coordinator; honours ``[placement]`` sections.
* ``dist``       -- the distributed runner: the same programs over a
  uniform multi-site topology with hierarchical 2PC costs.
* ``serve``      -- a live ``repro.serve`` server: the full nested
  tree is driven over TCP (``begin``/``child``/``read``/``write``),
  honouring think times and per-class traffic shape.

The threadsafe and serve drivers share one plan walker
(:func:`_run_plan`) parameterised over a transaction *port*, so
failure injection and retry budgets behave identically on both.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.sampling import RngStreams
from repro.errors import (
    InvalidTransactionState,
    LockDenied,
    TransactionAborted,
)
from repro.obs.metrics import percentile
from repro.scenario.compiler import CompiledScenario
from repro.scenario.programs import AccessOp, Block
from repro.scenario.spec import ScenarioError

__all__ = [
    "Driver",
    "ScenarioResult",
    "driver_names",
    "get_driver",
]


def _round_latency(value: float) -> float:
    """Three decimals, or three significant digits when below 1.

    Sim latencies are virtual time units (>= 1); wall-clock backends
    report seconds, where a sub-millisecond transaction would round to
    0.0 at three decimals.
    """
    if value >= 1.0:
        return round(value, 3)
    return float("%.3g" % value)


@dataclass
class ScenarioResult:
    """What one scenario run reports, backend-independent."""

    scenario: str
    backend: str
    scheme: str
    seed: int
    transactions: int
    committed: int = 0
    aborted: int = 0
    retries: int = 0
    ops: int = 0
    #: Simulated time units (sim/dist) or wall seconds (threadsafe/serve).
    makespan: float = 0.0
    latencies: List[float] = field(default_factory=list)
    digest: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        if self.makespan <= 0.0:
            return 0.0
        return self.committed / self.makespan

    def latency(self, fraction: float) -> float:
        return percentile(self.latencies, fraction)

    def row(self) -> Dict[str, Any]:
        """A flat dict for league tables and JSON reports."""
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "scheme": self.scheme,
            "seed": self.seed,
            "transactions": self.transactions,
            "committed": self.committed,
            "aborted": self.aborted,
            "retries": self.retries,
            "ops": self.ops,
            "throughput": round(self.throughput, 3),
            "p50_latency": _round_latency(self.latency(0.50)),
            "p95_latency": _round_latency(self.latency(0.95)),
            "makespan": round(self.makespan, 3),
            "digest": self.digest[:16],
        }

    def render(self) -> str:
        lines = [
            "scenario %s on %s (%s, seed %d): %d/%d committed, "
            "%d aborted, %d retries"
            % (
                self.scenario,
                self.backend,
                self.scheme,
                self.seed,
                self.committed,
                self.transactions,
                self.aborted,
                self.retries,
            ),
            "throughput : %.3f txn/unit over makespan %.3f"
            % (self.throughput, self.makespan),
            "latency    : p50=%.3f p95=%.3f p99=%.3f"
            % (
                self.latency(0.50),
                self.latency(0.95),
                self.latency(0.99),
            ),
            "digest     : %s" % self.digest,
        ]
        for key in sorted(self.extras):
            lines.append("%-11s: %s" % (key, self.extras[key]))
        return "\n".join(lines)


class Driver:
    """Base scenario driver; subclasses set ``name`` and ``_run``."""

    name = "abstract"

    def run(
        self,
        compiled: CompiledScenario,
        scheme: str = "moss-rw",
        **options: Any,
    ) -> ScenarioResult:
        result = ScenarioResult(
            scenario=compiled.spec.name,
            backend=self.name,
            scheme=str(scheme),
            seed=compiled.seed,
            transactions=len(compiled.programs),
            digest=compiled.digest(),
        )
        self._run(compiled, scheme, result, options)
        return result

    def _run(self, compiled, scheme, result, options) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Simulation backends (sim, dist)
# ----------------------------------------------------------------------
class SimDriver(Driver):
    """The discrete-event simulator: deterministic simulated time."""

    name = "sim"

    def _run(self, compiled, scheme, result, options) -> None:
        from repro.sim import SimulationConfig, run_simulation

        spec = compiled.spec
        config = SimulationConfig(
            mpl=spec.arrival.clients,
            policy=scheme,
            seed=compiled.seed,
            arrival_rate=(
                spec.arrival.rate
                if spec.arrival.process == "poisson"
                else None
            ),
        )
        metrics = run_simulation(
            compiled.programs,
            compiled.store(),
            config,
            observer=options.get("observer"),
            auditor=options.get("auditor"),
        )
        result.committed = metrics.committed
        result.aborted = result.transactions - metrics.committed
        result.retries = metrics.program_restarts
        result.ops = metrics.accesses_done
        result.makespan = metrics.makespan
        result.latencies = list(metrics.latencies)
        result.extras.update(
            {
                "deadlock_aborts": metrics.deadlock_aborts,
                "injected_aborts": metrics.injected_aborts,
                "denials": metrics.lock_denials,
            }
        )


class DistDriver(Driver):
    """The distributed runner: multi-site topology + 2PC costs."""

    name = "dist"

    def _run(self, compiled, scheme, result, options) -> None:
        from repro.dist import (
            DistributedConfig,
            run_distributed_simulation,
            uniform_topology,
        )

        spec = compiled.spec
        store = compiled.store()
        topology = uniform_topology(
            [obj.name for obj in store],
            sites=int(options.get("sites", 4)),
            affinities=spec.placement_map() or None,
        )
        if "latency" in options:
            topology.one_way_latency = float(options["latency"])
        config = DistributedConfig(
            mpl=spec.arrival.clients,
            policy=scheme,
            seed=compiled.seed,
            arrival_rate=(
                spec.arrival.rate
                if spec.arrival.process == "poisson"
                else None
            ),
        )
        metrics = run_distributed_simulation(
            compiled.programs, store, topology, config,
            observer=options.get("observer"),
        )
        result.committed = metrics.committed
        result.aborted = result.transactions - metrics.committed
        result.retries = metrics.program_restarts
        result.ops = metrics.accesses_done
        result.makespan = metrics.makespan
        result.latencies = list(metrics.latencies)
        result.extras.update(
            {
                "sites": int(options.get("sites", 4)),
                "messages": metrics.messages,
                "remote_fraction": round(metrics.remote_fraction, 3),
                "commit_rounds": metrics.commit_rounds,
            }
        )


# ----------------------------------------------------------------------
# The shared plan walker (threadsafe + serve)
# ----------------------------------------------------------------------
def _run_plan(
    port,
    block: Block,
    fail_rng,
    on_access: Optional[Callable[[Block, AccessOp], None]] = None,
) -> int:
    """Execute *block*'s steps against a transaction *port*.

    A port is anything with ``begin_child() -> port``,
    ``perform(object_name, operation)``, ``commit()`` and ``abort()``
    -- a :class:`~repro.engine.threadsafe.ThreadSafeTransaction`
    directly, or the serve driver's wire adapter.  Child blocks run as
    subtransactions with the block's failure injection and retry
    budget (draws from *fail_rng*); parallel blocks run sequentially
    (sibling concurrency is the DES backends' dimension -- the live
    backends get their concurrency from clients instead).  Returns the
    number of accesses performed.
    """
    ops = 0
    for step in block.steps:
        if isinstance(step, AccessOp):
            port.perform(step.object_name, step.operation)
            ops += 1
            if on_access is not None:
                on_access(block, step)
        else:
            tries_left = step.retries
            while True:
                child = port.begin_child()
                ops += _run_plan(child, step, fail_rng, on_access)
                if (
                    step.fail_prob
                    and fail_rng.random() < step.fail_prob
                ):
                    child.abort()
                    if tries_left > 0:
                        tries_left -= 1
                        continue
                else:
                    child.commit()
                break
    return ops


class _RetryExhausted(Exception):
    """A transaction burned its whole retry budget without committing."""


class ThreadSafeDriver(Driver):
    """Worker threads over the blocking facade (real concurrency).

    ``arrival.clients`` threads split the transaction list round-robin
    and run it to completion; a wounded or denied transaction retries
    from scratch (fresh top level) up to ``max_retries`` times with a
    small backoff.  The executed operation stream is checked against
    the compiled plan -- every planned access runs, nothing unplanned
    does -- which is what makes the reported digest meaningful on a
    backend whose interleavings are scheduled by the OS.
    """

    name = "threadsafe"

    def _run(self, compiled, scheme, result, options) -> None:
        from repro.engine.threadsafe import ThreadSafeEngine

        facade = ThreadSafeEngine(
            compiled.store(),
            policy=scheme,
            stripes=options.get("stripes"),
        )
        self._drive(compiled, facade, result, options)

    def _drive(self, compiled, facade, result, options) -> None:
        spec = compiled.spec
        max_retries = int(options.get("max_retries", 100))
        op_timeout = float(options.get("op_timeout", 30.0))
        pace = bool(options.get("pace", False))
        workers = min(spec.arrival.clients, len(compiled.programs)) or 1
        streams = RngStreams(compiled.seed)
        lock = threading.Lock()
        latencies: List[float] = []
        executed: Dict[int, int] = {}
        state = {"committed": 0, "aborted": 0, "retries": 0, "ops": 0}
        errors: List[BaseException] = []

        def run_txn(index: int) -> None:
            program = compiled.programs[index]
            # Failure injection draws from a per-transaction stream so
            # the outcome sequence is independent of which worker or
            # attempt executes the tree.
            started = time.monotonic()
            ops = 0
            for attempt in range(max_retries + 1):
                fail_rng = streams.stream("fail:%d" % index)
                top = facade.begin_top()
                port = _FacadePort(top, op_timeout)
                try:
                    ops = _run_plan(port, program.body, fail_rng)
                    top.commit()
                except (TransactionAborted, LockDenied):
                    if top.is_active:
                        try:
                            top.abort()
                        except TransactionAborted:
                            pass
                    with lock:
                        state["retries"] += 1
                    # Seeded jitter keeps two wounded workers from
                    # re-colliding in lockstep.
                    time.sleep(
                        0.001 * (1 + fail_rng.random())
                        * min(attempt + 1, 16)
                    )
                    continue
                with lock:
                    state["committed"] += 1
                    state["ops"] += ops
                    executed[index] = ops
                    latencies.append(time.monotonic() - started)
                if spec.classes and pace:
                    time.sleep(compiled.think_times[index])
                return
            with lock:
                state["aborted"] += 1
            raise _RetryExhausted(program.label)

        def worker(worker_id: int) -> None:
            for index in range(
                worker_id, len(compiled.programs), workers
            ):
                try:
                    run_txn(index)
                except _RetryExhausted:
                    continue  # counted as aborted; next transaction
                except BaseException as exc:  # surfaced to the caller
                    with lock:
                        errors.append(exc)
                    return

        threads = [
            threading.Thread(
                target=worker,
                args=(worker_id,),
                name="scenario-%d" % worker_id,
            )
            for worker_id in range(workers)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        result.makespan = time.monotonic() - started
        result.committed = state["committed"]
        result.aborted = state["aborted"]
        result.retries = state["retries"]
        result.ops = state["ops"]
        result.latencies = latencies
        # Executed-matches-plan: every committed transaction performed
        # exactly its planned accesses (failed subtrees re-run their
        # own steps, which the plan's access_count already bounds from
        # below).
        planned_short = [
            compiled.programs[i].label
            for i, count in executed.items()
            if count < compiled.programs[i].access_count()
        ]
        if planned_short:
            raise AssertionError(
                "executed fewer accesses than planned: %s"
                % planned_short[:3]
            )
        result.extras["workers"] = workers
        result.extras["engine"] = dict(facade.engine.stats)


class ShardedDriver(ThreadSafeDriver):
    """The multiprocess sharded engine behind the same plan walker.

    Identical drive loop to ``threadsafe`` (same compiled plan, same
    failure injection, same executed-matches-plan check, hence the
    same digest), but the facade is a
    :class:`~repro.shard.ShardedEngine`: ``workers`` option processes
    (default 2), object placement honoured when the spec carries a
    ``[placement]`` section, wound-wait resolved at the coordinator.
    """

    name = "sharded"

    def _run(self, compiled, scheme, result, options) -> None:
        from repro.shard import ShardedEngine

        spec = compiled.spec
        placement = spec.placement_map()
        workers = int(options.get("workers", 2))
        facade = ShardedEngine(
            compiled.store(),
            policy=scheme,
            workers=workers,
            placement=placement or None,
        )
        with facade:
            self._drive(compiled, facade, result, options)
            result.extras["shards"] = facade.shards
            result.extras["placement"] = len(placement)


class _FacadePort:
    """Adapts a :class:`ThreadSafeTransaction` to the plan walker.

    A wound lands while the victim's thread is between calls, so its
    next call on a deep child trips ``_require_active`` and raises
    ``InvalidTransactionState`` -- which reads as handle misuse.  Like
    the serve session's ``_translate_dead``, re-raise that case as
    :class:`~repro.errors.TransactionAborted` so the driver's retry
    loop treats it as the wound it is.
    """

    def __init__(self, txn, op_timeout: float):
        self._txn = txn
        self._op_timeout = op_timeout

    def _translate_dead(self, exc):
        from repro.engine.transaction import TransactionStatus

        if self._txn.status is TransactionStatus.ABORTED:
            raise TransactionAborted(
                self._txn.name, reason="wounded between calls"
            ) from None
        raise exc

    def begin_child(self) -> "_FacadePort":
        try:
            child = self._txn.begin_child()
        except InvalidTransactionState as exc:
            self._translate_dead(exc)
        return _FacadePort(child, self._op_timeout)

    def perform(self, object_name, operation):
        try:
            return self._txn.perform(
                object_name, operation, timeout=self._op_timeout
            )
        except InvalidTransactionState as exc:
            self._translate_dead(exc)

    def commit(self):
        try:
            self._txn.commit()
        except InvalidTransactionState as exc:
            self._translate_dead(exc)

    def abort(self):
        try:
            self._txn.abort()
        except InvalidTransactionState as exc:
            self._translate_dead(exc)


# ----------------------------------------------------------------------
# The live service backend
# ----------------------------------------------------------------------
class _WirePort:
    """Adapts one wire transaction (SyncClient + name) to the walker."""

    def __init__(self, client, txn):
        self._client = client
        self._txn = txn

    def begin_child(self) -> "_WirePort":
        return _WirePort(self._client, self._client.child(self._txn))

    def perform(self, object_name, operation):
        if operation.is_read:
            return self._client.read(
                self._txn,
                object_name,
                kind=operation.kind,
                args=list(operation.args),
            )
        return self._client.write(
            self._txn,
            object_name,
            kind=operation.kind,
            args=list(operation.args),
        )

    def commit(self):
        self._client.commit(self._txn)

    def abort(self):
        self._client.abort(self._txn)


class ServeDriver(Driver):
    """Drive a live ``repro.serve`` server with the full nested trees.

    Requires ``host``/``port`` options (the server must already serve
    the scenario's objects -- start it with ``repro serve --scenario``).
    ``clients`` worker threads each own one connection; transactions
    are assigned round-robin; think times are honoured.  The reported
    scheme is whatever the server runs -- the wire protocol does not
    expose it, so pass ``scheme`` for labelling only.
    """

    name = "serve"

    def _run(self, compiled, scheme, result, options) -> None:
        from repro.serve.client import ServeError, SyncClient, backoff_ms

        host = options.get("host", "127.0.0.1")
        port = options.get("port")
        if port is None:
            raise ScenarioError(
                "the serve backend needs a port= option "
                "(a running `repro serve` instance)"
            )
        spec = compiled.spec
        max_retries = int(options.get("max_retries", 100))
        pace = bool(options.get("pace", True))
        workers = min(spec.arrival.clients, len(compiled.programs)) or 1
        streams = RngStreams(compiled.seed)
        lock = threading.Lock()
        latencies: List[float] = []
        state = {"committed": 0, "aborted": 0, "retries": 0, "ops": 0}
        # Failure accounting by wire code: admission sheds are load
        # shedding (the server never saw the transaction), txn_aborted
        # is an engine-side abort (wound, MVTO conflict) -- the league
        # table reports them separately.
        shed = {"count": 0, "txn_aborted": 0, "denied": 0}
        errors: List[BaseException] = []

        # The scenario's objects must exist server-side; fail with a
        # typed error (not a hung run) when they do not.
        with SyncClient(host, int(port)) as probe:
            served = set(probe.hello().get("objects") or ())
        missing = [
            name
            for population in spec.populations
            for name in population.object_names()
            if name not in served
        ]
        if missing:
            raise ScenarioError(
                "server does not serve scenario object(s) %s -- start "
                "it with `repro serve --scenario`"
                % ", ".join(missing[:5])
            )

        def run_txn(client, index: int) -> None:
            program = compiled.programs[index]
            started = time.monotonic()
            for attempt in range(max_retries + 1):
                fail_rng = streams.stream("fail:%d" % index)
                top_name = None
                try:
                    top_name = client.begin()
                    port_ = _WirePort(client, top_name)
                    ops = _run_plan(port_, program.body, fail_rng)
                    client.commit(top_name)
                except ServeError as exc:
                    if exc.code == "overloaded":
                        with lock:
                            shed["count"] += 1
                    elif exc.code == "txn_aborted":
                        with lock:
                            shed["txn_aborted"] += 1
                    elif exc.code in ("lock_denied", "retry_later"):
                        with lock:
                            shed["denied"] += 1
                    else:
                        raise
                    if top_name is not None:
                        try:
                            client.abort(top_name)
                        except (ServeError, ConnectionError, OSError):
                            pass
                    with lock:
                        state["retries"] += 1
                    time.sleep(
                        backoff_ms(
                            exc.retry_after_ms, attempt + 1, fail_rng
                        )
                        / 1000.0
                    )
                    continue
                with lock:
                    state["committed"] += 1
                    state["ops"] += ops
                    latencies.append(time.monotonic() - started)
                if pace:
                    time.sleep(compiled.think_times[index])
                return
            with lock:
                state["aborted"] += 1
            raise _RetryExhausted(program.label)

        def worker(worker_id: int) -> None:
            try:
                client = SyncClient(host, int(port))
            except OSError as exc:
                with lock:
                    errors.append(exc)
                return
            try:
                for index in range(
                    worker_id, len(compiled.programs), workers
                ):
                    try:
                        run_txn(client, index)
                    except _RetryExhausted:
                        continue  # counted as aborted; keep going
                    except BaseException as exc:
                        with lock:
                            errors.append(exc)
                        return
            finally:
                client.close()

        threads = [
            threading.Thread(
                target=worker,
                args=(worker_id,),
                name="scenario-serve-%d" % worker_id,
            )
            for worker_id in range(workers)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        result.makespan = time.monotonic() - started
        result.committed = state["committed"]
        result.aborted = state["aborted"]
        result.retries = state["retries"]
        result.ops = state["ops"]
        result.latencies = latencies
        result.extras["workers"] = workers
        result.extras["shed"] = shed["count"]
        result.extras["txn_aborted"] = shed["txn_aborted"]
        result.extras["denied"] = shed["denied"]


_DRIVERS = {
    driver.name: driver
    for driver in (
        SimDriver(),
        ThreadSafeDriver(),
        ShardedDriver(),
        DistDriver(),
        ServeDriver(),
    )
}


def driver_names() -> List[str]:
    return sorted(_DRIVERS)


def get_driver(name: str) -> Driver:
    try:
        return _DRIVERS[name]
    except KeyError:
        raise ScenarioError(
            "unknown backend %r (choose from %s)"
            % (name, ", ".join(driver_names()))
        ) from None
