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
  client threads execute the transaction list with blocking waits and
  wound-wait retries; the *work* is deterministic (and verified
  against the plan), wall-clock timings are not.
* ``sharded``    -- the multiprocess engine (:mod:`repro.shard`): the
  same client threads over ``workers`` worker *processes* with a
  real cross-shard 2PC coordinator; honours ``[placement]`` sections.
* ``dist``       -- the distributed runner: the same programs over a
  uniform multi-site topology with hierarchical 2PC costs.
* ``serve``      -- a live ``repro.serve`` server: the full nested
  tree is driven over TCP (``begin``/``child``/``read``/``write``),
  honouring think times and per-class traffic shape.

The three live backends (threadsafe, sharded, serve) run on the one
client loop, :func:`repro.serve.loadgen.run_clients` -- threads only,
one connection or shared facade per client thread -- with one plan
walker (:func:`_run_plan`) as the attempt, parameterised over a
transaction *port*.  Failure injection, retry budgets, the failure
vocabulary (wire codes) and the executed-matches-plan check are
therefore the same on all three.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.sampling import RngStreams
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
# The live backends (threadsafe, sharded, serve): one client loop
# ----------------------------------------------------------------------
def _run_plan(
    port,
    block: Block,
    fail_rng,
    timeout: Optional[float] = None,
) -> int:
    """Execute *block*'s steps against a transaction *port*.

    A port is a facade handle
    (:class:`~repro.engine.threadsafe.ThreadSafeTransaction`, which
    both the in-process and the sharded facade hand out) or a wire
    transaction (:class:`~repro.serve.client.WireTransaction`):
    anything with
    ``begin_child() -> port``, ``perform(object_name, operation,
    timeout)``, ``commit()`` and ``abort()``.  Child blocks run as
    subtransactions with the block's failure injection and retry
    budget (draws from *fail_rng*); parallel blocks run sequentially
    (sibling concurrency is the DES backends' dimension -- the live
    backends get their concurrency from clients instead).  Returns the
    number of accesses performed.
    """
    ops = 0
    for step in block.steps:
        if isinstance(step, AccessOp):
            port.perform(step.object_name, step.operation, timeout)
            ops += 1
        else:
            tries_left = step.retries
            while True:
                child = port.begin_child()
                ops += _run_plan(child, step, fail_rng, timeout)
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


def _run_live(
    compiled: CompiledScenario,
    connect: Callable[[], Any],
    pause: Callable[[Any, BaseException, int], float],
    result: ScenarioResult,
    options: Dict[str, Any],
    pace: bool,
    timeout: Optional[float] = None,
):
    """Run every compiled tree through the one client loop.

    ``arrival.clients`` client threads of
    :func:`repro.serve.loadgen.run_clients` take the transactions
    round-robin; one that fails retryably re-runs from a fresh top
    level up to ``max_retries`` times, ``pause(job, exc, tries)``
    seconds apart, and is reported ``aborted`` once its budget is
    spent.  Failure injection draws from a per-attempt stream --
    ``fail:<i>`` for transaction *i*'s first attempt, ``fail:<i>:<n>``
    for its *n*-th retry -- so the outcome sequence is a function of
    the seed, the plan and the attempt, whichever client runs it, and
    a retry does not re-draw the failure that ended the last attempt.
    The executed operation stream is then checked against the plan --
    every planned access ran -- which is what makes the reported
    digest meaningful on a backend whose interleavings are scheduled
    by the OS.  Returns the loop's report (per-code failure counts).
    """
    from repro.serve.loadgen import Job, LoadReport, run_clients

    programs = compiled.programs
    workers = min(compiled.spec.arrival.clients, len(programs)) or 1
    streams = RngStreams(compiled.seed)
    jobs = [
        Job(index, 0.0, think=compiled.think_times[index] if pace else 0.0)
        for index in range(len(programs))
    ]

    def assigned(worker: int):
        for job in jobs[worker::workers]:
            job.start = time.monotonic()
            job.rng = streams.stream("fail:%d" % job.plan)
            yield job

    def attempt(top, job) -> int:
        return _run_plan(top, programs[job.plan].body, job.rng, timeout)

    def retry_pause(job, exc, tries) -> float:
        # The jitter draws from the failed attempt's stream (fresh if
        # it failed at begin); retry tries + 1 gets its own stream.
        seconds = pause(job, exc, tries)
        job.rng = streams.stream("fail:%d:%d" % (job.plan, tries + 1))
        return seconds

    report = LoadReport(result.backend)
    run_clients(
        connect,
        assigned,
        attempt,
        retry_pause,
        report,
        workers,
        int(options.get("max_retries", 100)),
        strict=True,
    )
    result.makespan = report.wall_seconds
    result.committed = report.committed
    result.aborted = len(programs) - report.committed
    result.retries = report.aborted + report.shed  # failed attempts
    result.ops = report.ops
    result.latencies = report.txn_latency.values
    # Executed-matches-plan: every committed transaction performed at
    # least its planned accesses (failed subtrees re-run their own
    # steps, which the plan's access_count bounds from below).
    planned_short = [
        programs[job.plan].label
        for job in jobs
        if job.ops is not None
        and job.ops < programs[job.plan].access_count()
    ]
    if planned_short:
        raise AssertionError(
            "executed fewer accesses than planned: %s" % planned_short[:3]
        )
    result.extras["workers"] = workers
    return report


def _facade_pause(job, exc, tries: int) -> float:
    # Seeded jitter keeps two wounded workers from re-colliding in
    # lockstep.
    return 0.001 * (1 + job.rng.random()) * min(tries + 1, 16)


def _drive_facade(compiled, facade, result, options) -> None:
    """Run *compiled* on an in-process facade shared by every client."""
    _run_live(
        compiled,
        lambda: contextlib.nullcontext(facade),
        _facade_pause,
        result,
        options,
        pace=bool(options.get("pace", False)),
        timeout=float(options.get("op_timeout", 30.0)),
    )
    result.extras["engine"] = dict(facade.engine.stats)


class ThreadSafeDriver(Driver):
    """Client threads over the blocking facade (real concurrency).

    ``arrival.clients`` threads split the transaction list round-robin
    and run it to completion; a wounded or denied transaction retries
    from scratch (fresh top level) up to ``max_retries`` times with a
    small backoff.  The executed operation stream is checked against
    the compiled plan (see :func:`_run_live`).
    """

    name = "threadsafe"

    def _run(self, compiled, scheme, result, options) -> None:
        from repro.engine.threadsafe import ThreadSafeEngine

        facade = ThreadSafeEngine(compiled.store(), policy=scheme)
        _drive_facade(compiled, facade, result, options)


class ShardedDriver(Driver):
    """The multiprocess sharded engine behind the same client loop.

    Identical to ``threadsafe`` (same compiled plan, same failure
    injection, same executed-matches-plan check, hence the same
    digest), but the facade is a :class:`~repro.shard.ShardedEngine`:
    ``workers`` option processes (default 2), object placement
    honoured when the spec carries a ``[placement]`` section,
    wound-wait resolved at the coordinator.
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
            _drive_facade(compiled, facade, result, options)
            result.extras["shards"] = facade.shards
            result.extras["placement"] = len(placement)


class ServeDriver(Driver):
    """Drive a live ``repro.serve`` server with the full nested trees.

    Requires ``host``/``port`` options (the server must already serve
    the scenario's objects -- start it with ``repro serve --scenario``).
    ``clients`` client threads each own one connection; transactions
    are assigned round-robin; think times are honoured.  The reported
    scheme is whatever the server runs -- the wire protocol does not
    expose it, so pass ``scheme`` for labelling only.
    """

    name = "serve"

    def _run(self, compiled, scheme, result, options) -> None:
        from repro.serve.client import SyncClient, backoff_ms

        host = options.get("host", "127.0.0.1")
        port = options.get("port")
        if port is None:
            raise ScenarioError(
                "the serve backend needs a port= option "
                "(a running `repro serve` instance)"
            )
        spec = compiled.spec
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
        report = _run_live(
            compiled,
            lambda: SyncClient(host, int(port)),
            lambda job, exc, tries: backoff_ms(
                exc.retry_after_ms, tries + 1, job.rng
            )
            / 1000.0,
            result,
            options,
            pace=bool(options.get("pace", True)),
        )
        # Failures by wire code: admission sheds are load shedding
        # (the server never saw the transaction), txn_aborted is an
        # engine-side abort (wound, MVTO conflict) -- the league table
        # reports them separately.
        result.extras["shed"] = report.shed
        result.extras["txn_aborted"] = report.txn_aborted
        result.extras["denied"] = report.aborted - report.txn_aborted


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
