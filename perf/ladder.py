"""The ladder: one transaction list driven through every tier.

A :class:`Ladder` compiles one frozen workload, builds every rung the
run needs, and times them in interleaved rounds:

``engine -> facade -> observed -> audited -> logged -> durable ->
serve -> shard``, plus the whole-call rungs ``sim`` and ``recover``.

Every rung is driven from outside through its public calls by the same
plan walker (:func:`run_block`), one closed-loop client, one
transaction after another.  In-process rungs get a fresh engine each
round; ``serve`` and ``shard`` keep one warmed instance.  Round 0 is
the correctness gate (and the warm-up): it visits every rung once and
compares the committed state they computed.  See ``perf/README.md``
for the method and the noise study behind it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing.connection
import os
import resource
import shutil
import statistics
from dataclasses import dataclass
from time import perf_counter_ns as now
from typing import Any, Callable, Dict, List, Optional

import estimator
import reference
from tracing import SPAN_FIELDS, Tracer

from repro.audit import AuditConfig
from repro.core.sampling import RngStreams
from repro.engine import Engine, ThreadSafeEngine
from repro.errors import ReproError
from repro.obs import Observer
from repro.scenario import (
    AccessOp,
    Block,
    CompiledScenario,
    compile_scenario,
    get_driver,
    load_scenario,
)
from repro.serve import FrameDecoder, SyncClient, TransactionServer
from repro.serve import protocol as proto
from repro.shard import ShardedEngine
from repro.wal import FileWalSink, recover

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(PERF_DIR, "out")
SCHEME = "moss-rw"
DEFAULT_SEED = 7
#: The first compile pool is this many times the transactions kept;
#: it doubles until even the rarest class fills its quota.
POOL_FACTOR = 4
#: The simulator's count metrics come from a list this many times as
#: long as the rungs' (in simulated time a transaction costs ~1 ms of
#: wall time).  Over ten seeds their spread is 6-15% at one block and
#: 2-3% at ten.
SIM_BLOCKS = 10
#: The timed ``sim`` rung runs a list this many blocks long: how much
#: restart work a list holds depends on the seed, and that alone moved
#: ``sim_txn_per_s`` by 5% from seed to seed, at one block and at
#: three.
SIM_TIMED_BLOCKS = 5
#: Peak memory is read after this many timed rounds, so it measures a
#: fixed amount of work however many rounds the time budget allows.
RSS_ROUNDS = 10
PINGS = 20
#: Inside a rung visit the reference kernel is sampled once every this
#: many transactions, so a burst of host speed shorter than the visit
#: cannot make the visit look faster than the host was.
REFERENCE_EVERY = 10


@dataclass(frozen=True)
class Workload:
    """A frozen scenario: its size and the pins that keep it frozen."""

    #: Transactions every rung drives per round.  At least 100, so the
    #: p90 of the floors has ten samples beyond it, and a multiple of
    #: the class weights' sum, so the class mix is exact.
    transactions: int
    toml_sha256: str
    #: ``CompiledScenario.digest()`` of the list kept for seed 7.
    digest_seed7: str


WORKLOADS = {
    "bank": Workload(
        108,
        "645b4bdfed6735b884afd378c250ee21cad6e333bbe41c55aed48f114263fa48",
        "fccc5300e3d2fcbc10d028eef270b1a7c9093ef9fbf27074fb6b44cb0c25d7c1",
    ),
    "deep": Workload(
        100,
        "b945952ade750f76a5ffbb1eaa01fa0c927c44b03a64c88239330b11b59a7f50",
        "788d3b411f7473a92342cceefa359cf8627a70777d0807c106c5a8ee4ccdd01f",
    ),
    "feed": Workload(
        100,
        "2726045491ed31e8b11f303154ea2ba1e13e4d45595d4784170e208765c13a9b",
        "32078b4f60c2ea383e7e823443ef5bae6297547e1c332cd65b7b56c25a2c989f",
    ),
}


class GateBreach(Exception):
    """A correctness check failed before any rung could run."""


def load_workload(name: str, seed: int, blocks: int = 1):
    """Compile *blocks* x ``transactions`` of workload *name* for *seed*.

    The seed generates everything -- objects touched, payloads, tree
    contents, injected failures -- but the class mix is held exact:
    each block of ``transactions`` keeps the next
    ``weight / sum(weights)`` share of each class from a longer
    compile, in compile order.  Without that, the binomial spread of
    (say) 12-read audits among 5-access transfers would move every
    per-transaction metric by several percent from seed to seed.
    Compiles are prefix-stable, so block 0 is the same list whatever
    *blocks* is.
    """
    pin = WORKLOADS[name]
    path = os.path.join(PERF_DIR, "workloads", name + ".toml")
    with open(path, "rb") as handle:
        sha = hashlib.sha256(handle.read()).hexdigest()
    if sha != pin.toml_sha256:
        raise GateBreach(
            "workload %s: %s has sha256 %s, pinned %s"
            % (name, path, sha, pin.toml_sha256)
        )
    spec = load_scenario(path)
    total = sum(cls.weight for cls in spec.classes)
    shares = {
        cls.name: cls.weight * pin.transactions / total
        for cls in spec.classes
    }
    if any(share != int(share) for share in shares.values()):
        raise GateBreach("workload %s: class mix is not exact" % name)
    wanted = blocks * pin.transactions
    pool_size = POOL_FACTOR * wanted
    while True:
        pool = compile_scenario(spec, seed, transactions=pool_size)
        kept = CompiledScenario(spec=spec, seed=seed)
        quota = dict(shares)
        for index, program in enumerate(pool.programs):
            cls = pool.class_names[index]
            if quota[cls] > 0:
                quota[cls] -= 1
                kept.programs.append(program)
                kept.class_names.append(cls)
                kept.think_times.append(pool.think_times[index])
                if len(kept.programs) == wanted:
                    break
                if len(kept.programs) % pin.transactions == 0:
                    quota = dict(shares)
        if len(kept.programs) == wanted:
            break
        pool_size *= 2  # an unlucky seed: the rarest class ran short
    if (
        seed == DEFAULT_SEED
        and blocks == 1
        and kept.digest() != pin.digest_seed7
    ):
        raise GateBreach(
            "workload %s: seed-%d digest %s, pinned %s"
            % (name, seed, kept.digest(), pin.digest_seed7)
        )
    return kept


def run_block(txn, block: Block, fail_rng) -> int:
    """Run *block*'s steps on handle *txn*; returns accesses performed.

    Child blocks run as subtransactions; a block with ``fail_prob``
    aborts after its work with that probability (drawn from
    *fail_rng*) and is re-run up to ``retries`` times.
    """
    done = 0
    for step in block.steps:
        if isinstance(step, AccessOp):
            txn.perform(step.object_name, step.operation)
            done += 1
            continue
        tries_left = step.retries
        while True:
            child = txn.begin_child()
            done += run_block(child, step, fail_rng)
            if step.fail_prob and fail_rng.random() < step.fail_prob:
                child.abort()
                if tries_left > 0:
                    tries_left -= 1
                    continue
            else:
                child.commit()
            break
    return done


def _injects(block: Block) -> bool:
    return any(
        isinstance(step, Block) and (step.fail_prob or _injects(step))
        for step in block.steps
    )


class WireTxn:
    """One wire transaction (client + name) as a walker handle."""

    __slots__ = ("_client", "_name")

    def __init__(self, client: SyncClient, name):
        self._client = client
        self._name = name

    def begin_child(self) -> "WireTxn":
        return WireTxn(self._client, self._client.child(self._name))

    def perform(self, object_name, operation):
        call = (
            self._client.read if operation.is_read else self._client.write
        )
        return call(
            self._name,
            object_name,
            kind=operation.kind,
            args=operation.args,
        )

    def commit(self) -> None:
        self._client.commit(self._name)

    def abort(self) -> None:
        self._client.abort(self._name)


class PipelinedTxn(WireTxn):
    """A wire transaction whose accesses are queued and sent together.

    Consecutive accesses of a block go out in one
    ``SyncClient.pipeline`` call, flushed before the next structural
    op -- the batching hop that the one-round-trip-per-op loop never
    reaches.
    """

    __slots__ = ("_queue",)

    def __init__(self, client: SyncClient, name):
        super().__init__(client, name)
        self._queue: List[tuple] = []

    def _flush(self) -> None:
        if self._queue:
            queue, self._queue = self._queue, []
            for response in self._client.pipeline(queue):
                if not response.get("ok"):
                    raise ReproError("pipelined op failed: %r" % response)

    def begin_child(self) -> "PipelinedTxn":
        self._flush()
        return PipelinedTxn(self._client, self._client.child(self._name))

    def perform(self, object_name, operation):
        self._queue.append(
            (
                "read" if operation.is_read else "write",
                {
                    "txn": list(self._name),
                    "object": object_name,
                    "kind": operation.kind,
                    "args": list(operation.args),
                },
            )
        )

    def commit(self) -> None:
        self._flush()
        super().commit()

    def abort(self) -> None:
        self._flush()
        super().abort()


class RecordingClient(SyncClient):
    """A client that keeps every message it exchanged, in order:
    request, response, request, response, ..."""

    def __init__(self, host: str, port: int):
        super().__init__(host, port)
        self.log: List[Dict[str, Any]] = []

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        response = super().call(op, **fields)
        self.log.append(proto.request(op, response.get("id"), **fields))
        self.log.append(response)
        return response


class Ladder:
    """One workload, every rung, and the rounds that time them."""

    #: Rungs timed with ``--trace 0``: the ones end-to-end metrics read.
    END_TO_END = ("facade", "logged", "serve", "shard", "sim", "recover")
    #: Rungs the correctness gate visits in round 0, whatever the mode.
    GATE = (
        "engine", "facade", "observed", "audited", "logged", "durable",
        "serve", "shard", "sim", "recover",
    )
    #: Rungs timed with ``--trace 1``: the gate's, the same layers used
    #: differently, and the traced repeats.
    PER_LAYER = GATE + (
        "compile", "facade_global", "serve_pipelined", "ping", "codec",
        "shard_one", "engine_traced", "facade_traced", "serve_traced",
        "shard_traced",
    )

    def __init__(self, workload: str, seed: int, traced: bool):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.compiled = load_workload(workload, seed)
        self._sim_list = None  # compiled by the gate, not by set-up
        self.count = len(self.compiled.programs)
        self.pool_size = POOL_FACTOR * self.count
        self.store = self.compiled.store
        self.object_names = [spec.name for spec in self.store()]
        self._streams = RngStreams(seed)
        self._plan = [
            (program, program.access_count(), _injects(program.body))
            for program in self.compiled.programs
        ]
        self.rungs = self.PER_LAYER if traced else self.END_TO_END
        self.attempted = 0
        self.failed = 0
        self.breaches: List[str] = []
        #: Per-rung list of rounds, each a list of wall times in ns.
        self.samples: Dict[str, List[List[int]]] = {}
        #: Exact counts read off the rungs' public counters.
        self.counts: Dict[str, float] = {}
        self.rss_kb = 0
        #: The reference kernel's best time in each timed round, in ns.
        self.reference: List[int] = []
        self._speeds: List[int] = []  # the current round's samples
        self._rung = ""  # the rung being visited
        self._tracing = ""  # non-empty while that visit records spans
        self._last: Dict[str, Any] = {}
        self._log_bytes = b""
        self._wire_log: List[Dict[str, Any]] = []
        self._sim_first = None
        self._sim_long: Dict[str, Any] = {}  # scheme -> result
        self._scratch = os.path.join(OUT_DIR, "scratch-%d" % os.getpid())
        self._durable_dir = os.path.join(self._scratch, "durable")
        self._tracer = Tracer()
        self._trace_names: Dict[str, List[str]] = {}
        self._trace_rounds: Dict[str, List[List[int]]] = {}
        self._trace_spans: Dict[str, List[list]] = {}
        self._server = None
        self._client: Optional[SyncClient] = None
        self._shard: Optional[ShardedEngine] = None
        self._shard_one: Optional[ShardedEngine] = None

    # ------------------------------------------------------------------
    # Set-up and tear-down (what ``setup_s`` times, with the imports)
    # ------------------------------------------------------------------
    def open(self) -> None:
        os.makedirs(self._scratch, exist_ok=True)
        self._server = TransactionServer(
            self.store(), scheme=SCHEME
        ).start_in_thread()
        host, port = self._server.address
        self._client = SyncClient(host, port)
        self._client.hello()
        self._shard = ShardedEngine(
            self.store(), policy=SCHEME, workers=2
        ).start()
        if self.traced:
            self._shard_one = ShardedEngine(
                self.store(), policy=SCHEME, workers=1
            ).start()

    def close(self) -> None:
        for engine in (self._shard, self._shard_one):
            if engine is not None:
                engine.close()
        if self._client is not None:
            self._client.close()
        if self._server is not None:
            self._server.stop()
        shutil.rmtree(self._scratch, ignore_errors=True)

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    def breach(self, message: str) -> None:
        self.failed += 1
        self.breaches.append(message)

    def verify(self) -> None:
        """Round 0: every rung once; committed states must agree."""
        self._sim_list = load_workload(
            self.workload, self.seed, SIM_TIMED_BLOCKS
        )
        for rung in self.GATE:
            self._round(rung)
        states = {
            "engine": self._values(self._last["engine"].object_value),
            "facade": self._values(self._last["facade"].object_value),
            "logged": self._values(self._last["logged"].object_value),
            "durable": self._recovered(self._durable_dir, "durable"),
            "serve": self._values(self._server.server.facade.object_value),
            "shard": self._values(self._shard.object_value),
            "recover": self._recovered(self._log_bytes, "recover"),
        }
        for rung, state in states.items():
            if state != states["engine"]:
                differing = sorted(
                    name
                    for name in self.object_names
                    if state.get(name) != states["engine"].get(name)
                )
                self.breach(
                    "%s: committed state differs from engine on %s"
                    % (rung, differing[:5])
                )
        # The simulator's counts, once, over the long list.
        long_list = load_workload(self.workload, self.seed, SIM_BLOCKS)
        planned = sum(
            program.access_count() for program in long_list.programs
        )
        for scheme in (SCHEME, "exclusive"):
            result = get_driver("sim").run(long_list, scheme=scheme)
            self._sim_long[scheme] = result
            self.attempted += result.transactions
            if result.committed != result.transactions:
                self.breach(
                    "sim (%s): %d of %d committed"
                    % (scheme, result.committed, result.transactions)
                )
            if result.ops < planned:
                self.breach(
                    "sim (%s): ran %d of %d planned accesses"
                    % (scheme, result.ops, planned)
                )
        # What follows shares the warmed serve and shard instances, so
        # it runs only after their states were read.
        if self.traced:
            self._count_hops()
        for rung in self.rungs:
            if rung not in self.GATE:
                self._round(rung)

    def _values(self, read: Callable[[str], Any]) -> Dict[str, Any]:
        # Through JSON, so a value that crossed a pipe compares equal
        # to one that did not.
        return json.loads(
            json.dumps({name: read(name) for name in self.object_names})
        )

    def _recovered(self, source, rung: str) -> Dict[str, Any]:
        report = recover(source, specs=self.store()).report
        if report.verdict != "complete":
            self.breach("%s: recovery verdict %s" % (rung, report.verdict))
        return json.loads(json.dumps(report.committed))

    # ------------------------------------------------------------------
    # Timed rounds
    # ------------------------------------------------------------------
    def measure(self, seconds: float, min_rounds: int) -> int:
        """Interleaved rounds until *seconds* have passed; returns R.

        Each round visits every rung once, so each rung's samples span
        the whole run; work per visit is a fixed count of transactions.
        The reference kernel runs before every visit (reference.py).
        """
        self.samples = {rung: [] for rung in self.rungs}
        self.reference = []
        self._trace_rounds = {}  # round 0 was the warm-up
        deadline = now() + int(seconds * 1e9)
        while len(self.reference) < min_rounds or now() < deadline:
            self._speeds = []
            for rung in self.rungs:
                self._speeds.append(reference.visit())
                self.samples[rung].append(self._round(rung))
            self.reference.append(min(self._speeds))
            if len(self.reference) == RSS_ROUNDS:
                self._read_rss()
        if not self.rss_kb:
            self._read_rss()
        return len(self.reference)

    def _read_rss(self) -> None:
        self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _round(self, rung: str) -> List[int]:
        """Visit *rung* once; ``<rung>_traced`` is the same visit with
        the benchmark's spans around every public call."""
        self._rung, self._tracing, _ = rung.partition("_traced")
        gc.collect()
        return getattr(self, "_round_" + self._rung)()

    def _drive(self, begin_top: Callable[[], Any]) -> List[int]:
        """Every transaction once, closed loop; per-transaction ns."""
        rung = self._rung
        if self._tracing:
            self._tracer.start_round(rung)
            begin_top = self._tracer.begin_top(begin_top)
        times = []
        for index, (program, planned, injects) in enumerate(self._plan):
            # Failure injection draws from a per-transaction stream, so
            # every rung and every round sees the same outcomes.
            fail_rng = (
                self._streams.stream("fail:%d" % index) if injects else None
            )
            if index % REFERENCE_EVERY == 0:
                self._speeds.append(reference.one())
            top = None
            started = now()
            try:
                top = begin_top()
                done = run_block(top, program.body, fail_rng)
                top.commit()
            except ReproError as exc:
                times.append(now() - started)
                self.breach(
                    "%s: transaction %d did not commit: %s"
                    % (rung, index, exc)
                )
                if top is not None:
                    try:
                        top.abort()
                    except ReproError:
                        pass
                continue
            times.append(now() - started)
            if done < planned:
                self.breach(
                    "%s: transaction %d ran %d of %d planned accesses"
                    % (rung, index, done, planned)
                )
        self.attempted += len(self._plan)
        if self._tracing:
            self._keep_trace(rung)
        return times

    def _keep_trace(self, rung: str) -> None:
        tracer = self._tracer
        names = [name for name, _ in tracer.calls]
        if self._trace_names.setdefault(rung, names) != names:
            self.breach("%s: traced call sequence changed" % rung)
        self._trace_rounds.setdefault(rung, []).append(
            [duration for _, duration in tracer.calls]
        )
        self._trace_spans[rung] = tracer.spans
        self.counts["engine.max_depth"] = tracer.max_depth

    # -- in-process rungs: a fresh engine every round -------------------
    def _round_engine(self) -> List[int]:
        engine = Engine(self.store(), policy=SCHEME)
        self._last["engine"] = engine
        return self._drive(engine.begin_top)

    def _facade(self, **options) -> ThreadSafeEngine:
        return ThreadSafeEngine(self.store(), policy=SCHEME, **options)

    def _round_facade(self) -> List[int]:
        facade = self._facade()
        self._last["facade"] = facade
        return self._drive(facade.begin_top)

    def _round_facade_global(self) -> List[int]:
        return self._drive(self._facade(stripes=0).begin_top)

    def _round_observed(self) -> List[int]:
        observer = Observer()
        times = self._drive(self._facade(observer=observer).begin_top)
        self.counts["obs.events"] = len(observer.tracer.spans) + len(
            observer.tracer.instants
        )
        return times

    def _round_audited(self) -> List[int]:
        facade = self._facade()
        auditor = facade.attach_auditor(config=AuditConfig(sample_every=1))
        times = self._drive(facade.begin_top)
        if auditor.verdict != "clean":
            self.breach("audited: verdict %s" % auditor.verdict)
        return times

    def _round_logged(self) -> List[int]:
        facade = self._facade()
        wal = facade.attach_wal()
        times = self._drive(facade.begin_top)
        self._last["logged"] = facade
        self._log_bytes = wal.sink.getvalue()
        self.counts["wal.bytes"] = wal.stats["bytes"]
        self.counts["wal.records"] = wal.stats["appends"]
        return times

    def _round_durable(self) -> List[int]:
        shutil.rmtree(self._durable_dir, ignore_errors=True)
        facade = self._facade()
        wal = facade.attach_wal(sink=FileWalSink(self._durable_dir))
        times = self._drive(facade.begin_top)
        wal.close()
        self.counts["wal.fsyncs"] = wal.stats["fsyncs"]
        return times

    # -- hop rungs: one warmed instance ---------------------------------
    def _round_serve(self) -> List[int]:
        client = self._client
        return self._drive(lambda: WireTxn(client, client.begin()))

    def _round_serve_pipelined(self) -> List[int]:
        client = self._client
        return self._drive(lambda: PipelinedTxn(client, client.begin()))

    def _round_ping(self) -> List[int]:
        times = []
        for _ in range(PINGS):
            started = now()
            self._client.ping()
            times.append(now() - started)
        return times

    def _round_shard(self) -> List[int]:
        return self._drive(self._shard.begin_top)

    def _round_shard_one(self) -> List[int]:
        return self._drive(self._shard_one.begin_top)

    # -- whole-call rungs: best of R calls ------------------------------
    def _round_sim(self) -> List[int]:
        driver = get_driver("sim")
        started = now()
        result = driver.run(self._sim_list, scheme=SCHEME)
        elapsed = now() - started
        self.attempted += result.transactions
        if result.committed != result.transactions:
            self.breach(
                "sim: %d of %d committed"
                % (result.committed, result.transactions)
            )
        first = self._sim_first
        if first is None:
            self._sim_first = result
        elif (result.makespan, result.retries, result.ops) != (
            first.makespan, first.retries, first.ops
        ):
            self.breach("sim: not deterministic from one call to the next")
        return [elapsed]

    def _round_recover(self) -> List[int]:
        specs = self.store()
        started = now()
        state = recover(self._log_bytes, specs=specs)
        elapsed = now() - started
        self.counts["wal.recovered_records"] = state.report.records_applied
        if state.report.verdict != "complete":
            self.breach("recover: verdict %s" % state.report.verdict)
        return [elapsed]

    def _round_compile(self) -> List[int]:
        started = now()
        compile_scenario(
            self.compiled.spec, self.seed, transactions=self.pool_size
        )
        return [now() - started]

    def _round_codec(self) -> List[int]:
        """The wire codec, offline, over one round's own messages:
        each is encoded with ``protocol.encode_frame`` and decoded
        with ``FrameDecoder.feed``, as client and server do."""
        decoder = FrameDecoder()
        started = now()
        for message in self._wire_log:
            decoder.feed(proto.encode_frame(message))
        return [now() - started]

    # ------------------------------------------------------------------
    # Counts taken once, at the boundaries the spans are taken at
    # ------------------------------------------------------------------
    def _count_hops(self) -> None:
        """One extra serve and shard round with counting wrappers."""
        host, port = self._server.address
        plain, self._client = self._client, RecordingClient(host, port)
        try:
            self._client.hello()
            del self._client.log[:]
            self._round("serve")
            self._wire_log = self._client.log
        finally:
            self._client.close()
            self._client = plain
        self.counts["serve.round_trips"] = len(self._wire_log) // 2
        self.counts["serve.wire_bytes"] = sum(
            len(proto.encode_frame(message)) for message in self._wire_log
        )

        # Every coordinator-to-worker message is one ``send_bytes`` on
        # a multiprocessing pipe; count them at that boundary.
        connection = multiprocessing.connection.Connection
        original = connection.send_bytes
        sent = [0]

        def counting_send_bytes(self, *args, **kwargs):
            sent[0] += 1
            return original(self, *args, **kwargs)

        connection.send_bytes = counting_send_bytes
        try:
            self._round("shard")
        finally:
            del connection.send_bytes
        self.counts["shard.msgs"] = sent[0]
        shard_of = self._shard.store.shard_of
        self.counts["shard.cross_shard"] = sum(
            len({shard_of(name) for name in _objects(program.body)}) > 1
            for program, _, _ in self._plan
        )

    # ------------------------------------------------------------------
    # Metrics (every time below is in reference seconds)
    # ------------------------------------------------------------------
    def _calibrated_floors(self, rounds) -> List[float]:
        return estimator.floors(
            estimator.calibrated(
                rounds, self.reference, reference.NOMINAL_NS
            )
        )

    def _floors(self, rung: str) -> List[float]:
        """Per-position floors of *rung*'s rounds, calibrated, in ns."""
        return self._calibrated_floors(self.samples[rung])

    def _us_per_txn(self, rung: str) -> float:
        """Floor-based cost of one transaction on *rung*, in us; for a
        whole-call rung, its best call shared among the transactions."""
        return sum(self._floors(rung)) / self.count / 1e3

    def end_to_end(self) -> Dict[str, float]:
        serve = self._floors("serve")
        sim = self._sim_long[SCHEME]
        return {
            "facade_txn_per_s": 1e6 / self._us_per_txn("facade"),
            "logged_txn_per_s": 1e6 / self._us_per_txn("logged"),
            "serve_txn_per_s": estimator.per_second(serve),
            "serve_txn_p50_us": estimator.nearest_rank(serve, 0.5) / 1e3,
            "serve_txn_p90_us": estimator.nearest_rank(serve, 0.9) / 1e3,
            "shard_txn_per_s": 1e6 / self._us_per_txn("shard"),
            "sim_txn_per_s": 1e6 * SIM_TIMED_BLOCKS
            / self._us_per_txn("sim"),
            "recover_txn_per_s": 1e6 / self._us_per_txn("recover"),
            "wal_bytes_per_txn": self.counts["wal.bytes"] / self.count,
            "sim_txn_per_unit": sim.throughput,
            "sim_rw_gain_x": sim.throughput
            / self._sim_long["exclusive"].throughput,
            "sim_attempts_per_txn": 1 + sim.retries / sim.committed,
            "peak_rss_mb": self.rss_kb / 1024.0,
        }

    def facade_noise_share(self) -> float:
        return estimator.noise_share(self.samples["facade"])

    def _span_us(self, rung: str, *names: str) -> float:
        """Mean floor of the named calls' spans on *rung*, in us."""
        site_floors = self._calibrated_floors(self._trace_rounds[rung])
        picked = [
            floor
            for name, floor in zip(self._trace_names[rung], site_floors)
            if name in names
        ]
        return statistics.fmean(picked) / 1e3 if picked else 0.0

    def _self_us(self, rung: str, below: str, *names: str) -> float:
        """A layer's self time for an op: its floor on the layer's
        rung minus its floor on the rung below."""
        return self._span_us(rung, *names) - self._span_us(below, *names)

    def per_layer(self) -> Dict[str, float]:
        count = self.count
        counts = self.counts
        us = self._us_per_txn
        sim = self._sim_long[SCHEME]
        calls = self._trace_names["engine"]
        trips = counts["serve.round_trips"] / count
        commits = ("commit_child", "commit_top")
        performs = ("read", "write")
        metrics = {
            "scenario.compile_us_per_txn": us("compile")
            * count / self.pool_size,
            "engine.us_per_txn": us("engine"),
            "engine.accesses_per_txn": sum(
                name in performs for name in calls
            ) / count,
            "engine.children_per_txn": calls.count("begin_child") / count,
            "engine.child_aborts_per_txn": calls.count("abort_child")
            / count,
            "engine.max_depth": counts["engine.max_depth"],
            "threadsafe.us_per_txn": us("facade") - us("engine"),
            "threadsafe.global_us_per_txn": us("facade_global")
            - us("engine"),
            "obs.us_per_txn": us("observed") - us("facade"),
            "obs.events_per_txn": counts["obs.events"] / count,
            "audit.us_per_txn": us("audited") - us("facade"),
            "wal.encode_us_per_txn": us("logged") - us("facade"),
            "wal.records_per_txn": counts["wal.records"] / count,
            "wal.recover_us_per_record": us("recover")
            * count / counts["wal.recovered_records"],
            "wal.flush_us_per_txn": us("durable") - us("logged"),
            "wal.fsyncs_per_txn": counts["wal.fsyncs"] / count,
            "serve.us_per_txn": us("serve") - us("facade"),
            "serve.round_trips_per_txn": trips,
            "serve.us_per_round_trip": (us("serve") - us("facade")) / trips,
            "serve.ping_rtt_us": statistics.fmean(self._floors("ping"))
            / 1e3,
            "serve.wire_bytes_per_txn": counts["serve.wire_bytes"] / count,
            "serve.codec_us_per_txn": us("codec"),
            "serve.pipelined_us_per_txn": us("serve_pipelined")
            - us("facade"),
            "serve.begin_us": self._self_us("serve", "facade", "begin_top"),
            "serve.child_us": self._self_us(
                "serve", "facade", "begin_child"
            ),
            "serve.read_us": self._self_us("serve", "facade", "read"),
            "serve.write_us": self._self_us("serve", "facade", "write"),
            "serve.commit_us": self._self_us("serve", "facade", *commits),
            "shard.us_per_txn": us("shard") - us("facade"),
            "shard.msgs_per_txn": counts["shard.msgs"] / count,
            "shard.cross_shard_share": counts["shard.cross_shard"] / count,
            "shard.perform_us": self._self_us("shard", "facade", *performs),
            "shard.begin_child_us": self._self_us(
                "shard", "facade", "begin_child"
            ),
            "shard.commit_top_us": self._self_us(
                "shard", "facade", "commit_top"
            ),
            "shard.one_worker_us_per_txn": us("shard_one") - us("facade"),
            "shard.two_phase_us_per_txn": us("shard") - us("shard_one"),
            "sim.us_per_txn": us("sim") / SIM_TIMED_BLOCKS,
            "sim.restarts_per_txn": sim.retries / sim.committed,
            "sim.denials_per_txn": sim.extras["denials"] / sim.committed,
            "sim.deadlock_aborts_per_txn": sim.extras["deadlock_aborts"]
            / sim.committed,
            "sim.accesses_done_per_txn": sim.ops / sim.committed,
            "trace.overhead_share": (us("facade_traced") - us("facade"))
            / us("facade"),
            "trace.facade_span_share": sum(
                self._calibrated_floors(self._trace_rounds["facade"])
            ) / sum(self._floors("facade")),
            "host.noise_share": self.facade_noise_share(),
            "host.reference_us": min(self.reference) / 1e3,
            "host.reference_drift": max(self.reference)
            / min(self.reference) - 1,
            "host.rounds": len(self.reference),
        }
        for op in (
            "begin_top", "begin_child", "read", "write",
            "commit_child", "commit_top", "abort_child",
        ):
            metrics["engine.%s_us" % op] = self._span_us("engine", op)
        for op in (
            "read", "write", "begin_child", "commit_child", "commit_top",
        ):
            metrics["threadsafe.%s_us" % op] = self._self_us(
                "facade", "engine", op
            )
        return metrics

    def write_trace(self) -> str:
        """Write the last traced round's spans, rung by rung."""
        path = os.path.join(OUT_DIR, "trace-%s.json" % self.workload)
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": self.workload,
                    "seed": self.seed,
                    "fields": SPAN_FIELDS,
                    "spans": {
                        rung: spans
                        for rung, spans in self._trace_spans.items()
                    },
                    "call_floors_ns": {
                        rung: {
                            "names": self._trace_names[rung],
                            "floors": self._calibrated_floors(rounds),
                        }
                        for rung, rounds in self._trace_rounds.items()
                    },
                },
                handle,
            )
        return path


def _objects(block: Block):
    for step in block.steps:
        if isinstance(step, AccessOp):
            yield step.object_name
        else:
            yield from _objects(step)
