"""The sharded engine: coordinator, facade handles, and 2PC.

:class:`ShardedEngine` exposes the :class:`~repro.engine.threadsafe.
ThreadSafeEngine` facade API (``begin_top`` / ``begin_child`` /
``perform`` / ``commit`` / ``abort`` / ``abort_top`` / ``attach_wal``
/ ``attach_auditor`` / ``object_value``), but every object lives in
exactly one worker *process*; the coordinator:

* routes each access by ``ObjectStore.shard_of`` (CRC32 by default,
  placement- or custom-sharding aware);
* mirrors the nested tree name onto participant shards lazily -- a
  ``begin`` on first touch, intermediate children on demand inside the
  worker (ancestry is carried by the global name tuple, so each
  shard's lock automata see the same ancestor relation the paper's
  footnote 9 relies on);
* gives a request a pipe write of its own only if the caller needs
  its answer or another tree could observe its effect: a mirror
  ``begin`` and a subtransaction ``commit`` are *held* on their link
  (the paper's ``INFORM_COMMIT_AT(X)OF(T)`` may come any time after
  ``COMMIT(T)``), go only to the shards that mirror the node, and
  have their acks checked before the top-level decision is claimed;
* resolves cross-shard conflicts with wound-wait over *global* top
  ordinals (workers return blockers translated to global top names;
  older trees win, younger are wounded) -- worker engines stay
  non-blocking and never deadlock;
* commits top-level trees with presumed-abort two-phase commit:
  ``prepare`` (force each participant WAL durable), a coordinator
  decision record, then ``decide`` (participants log COMMIT and
  flush).  Single-shard trees skip all of that for a one-phase fast
  path -- one round trip whose worker-side flush is the durability
  point.  A commit is acknowledged to the caller only after every
  participant acknowledged phase 2, so an acked commit is durable in
  every per-shard WAL.

Observer/auditor events are emitted coordinator-side: lifecycle events
by the thread making the transition, access events by whichever
thread is reading the link, in the shard's actual execution order --
the merged stream an attached :class:`~repro.audit.OnlineAuditor`
consumes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.transaction import TransactionStatus
from repro.errors import (
    EngineError,
    InvalidTransactionState,
    LockDenied,
    RetryLater,
    TransactionAborted,
)
from repro.kernel.registry import get_scheme
from repro.kernel.store import ObjectStore, default_sharding
from repro.serve import protocol as proto
from repro.shard.link import ShardDown, ShardLink
from repro.shard.recovery import DecisionLog
from repro.shard.worker import WorkerConfig, worker_main

#: Default coordinator-side pause between denial retries (seconds).
DEFAULT_RETRY_S = 0.0005
#: Ceiling on any single denial backoff sleep.
_MAX_PAUSE_S = 0.05


def placement_sharding(
    placement: Dict[str, int]
) -> Callable[[str, int], int]:
    """A sharding callable honouring per-object *placement* affinities.

    Objects named in *placement* go to ``affinity % shards`` (modulo
    keeps a spec written for many shards valid on fewer); everything
    else falls back to CRC32 :func:`default_sharding`.
    """

    def sharding(name: str, shards: int) -> int:
        affinity = placement.get(name)
        if affinity is None:
            return default_sharding(name, shards)
        return affinity % shards

    return sharding


class _Node:
    """Coordinator-side state of one transaction in a tree."""

    __slots__ = (
        "name", "parent", "status", "children", "next_child", "mirrors"
    )

    def __init__(self, name: Tuple[int, ...], parent: Optional["_Node"]):
        self.name = name
        self.parent = parent
        self.status = TransactionStatus.ACTIVE
        self.children: List[_Node] = []
        self.next_child = 0
        #: shards that mirror this node: a superset of every
        #: descendant's, so the root's is the 2PC participant set
        self.mirrors: set = set()


class _Top:
    """One top-level tree: its root node plus 2PC bookkeeping."""

    __slots__ = ("ordinal", "root", "participants", "held", "cause")

    def __init__(self, ordinal: int):
        self.ordinal = ordinal
        self.root = _Node((ordinal,), None)
        #: shards this tree has touched (the 2PC participant set)
        self.participants = self.root.mirrors
        #: (shard, waiter) of every held begin/subcommit, in order;
        #: checked at the commit point
        self.held: List[Tuple[int, Any]] = []
        #: abort cause, for error messages after the tree died
        self.cause: Optional[str] = None

    @property
    def name(self) -> Tuple[int, ...]:
        return self.root.name


class ShardedTransaction:
    """Facade handle onto one coordinator-side transaction node.

    Same surface as ``ThreadSafeTransaction``: ``name`` / ``status`` /
    ``is_active`` / ``begin_child`` / ``perform`` / ``commit`` /
    ``abort`` plus context-manager commit-or-abort.
    """

    __slots__ = ("_engine", "_node", "_top", "value")

    def __init__(self, engine: "ShardedEngine", node: _Node, top: _Top):
        self._engine = engine
        self._node = node
        self._top = top
        self.value: Any = None

    @property
    def name(self) -> Tuple[int, ...]:
        return self._node.name

    @property
    def status(self) -> TransactionStatus:
        return self._node.status

    @property
    def is_active(self) -> bool:
        return self._node.status is TransactionStatus.ACTIVE

    def begin_child(self) -> "ShardedTransaction":
        return self._engine._begin_child(self)

    def perform(
        self,
        object_name: str,
        operation: Operation,
        timeout: Optional[float] = None,
    ) -> Any:
        return self._engine._perform(self, object_name, operation, timeout)

    def commit(self, value: Any = None) -> "ShardedTransaction":
        self._engine._commit(self, value)
        self.value = value
        return self

    def abort(self) -> "ShardedTransaction":
        self._engine._abort_node(self._node, self._top, cause="explicit")
        return self

    def __enter__(self) -> "ShardedTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self.is_active:
                self.commit()
        elif self.is_active:
            self.abort()
        return False


class _EngineView:
    """What the serve server reads off ``facade.engine``."""

    __slots__ = ("_engine",)

    def __init__(self, engine: "ShardedEngine"):
        self._engine = engine

    @property
    def specs(self) -> Dict[str, ObjectSpec]:
        return self._engine.store.specs

    @property
    def stats(self) -> Dict[str, int]:
        return self._engine.stats


class ShardedWal:
    """Handle returned by :meth:`ShardedEngine.attach_wal`.

    The actual logs live in the workers (one segment directory per
    shard, ``shard-NN/``) plus the coordinator decision log
    (``coord/``); this handle aggregates their counters and exposes
    the ``close``/``stats`` surface callers expect from a WAL.
    """

    def __init__(self, engine: "ShardedEngine", directory: str):
        self.engine = engine
        self.directory = directory

    @property
    def stats(self) -> Dict[str, int]:
        totals = {
            "appends": 0,
            "bytes": 0,
            "flushes": 0,
            "fsyncs": 0,
            "segment_rolls": 0,
        }
        try:
            for shard_stats in self.engine.shard_stats():
                for key, value in shard_stats.get("wal", {}).items():
                    totals[key] = totals.get(key, 0) + value
        except EngineError:
            pass
        return totals

    def close(self) -> None:
        """Worker logs close with their processes; nothing to do here."""


class ShardedEngine:
    """N worker processes, one coordinator, the facade API on top."""

    def __init__(
        self,
        specs: Iterable[ObjectSpec],
        policy: str = "moss-rw",
        workers: Optional[int] = None,
        observer=None,
        sharding: Optional[Callable[[str, int], int]] = None,
        placement: Optional[Dict[str, int]] = None,
        retry_s: float = DEFAULT_RETRY_S,
    ):
        if sharding is not None and placement is not None:
            raise EngineError("pass sharding or placement, not both")
        if placement:
            sharding = placement_sharding(dict(placement))
        self._custom_sharding = sharding is not None
        if workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        specs = list(specs)
        self.store = ObjectStore(
            specs,
            lambda spec: spec,
            shards=workers,
            sharding=sharding,
        )
        self.scheme = get_scheme(policy)
        self.obs = observer
        if observer is not None:
            from repro.engine.threadsafe import _LockedObserver

            self.obs = _LockedObserver(observer)
        self._specs = specs
        self._retry_s = retry_s
        self._mutex = threading.RLock()
        self._tops: Dict[int, _Top] = {}
        self._next_top = 0
        self._links: List[ShardLink] = []
        self._procs: List[Any] = []
        self._started = False
        self._closed = False
        self._wal_dir: Optional[str] = None
        self._segment_bytes: Optional[int] = None
        self._wal_group_ms: Optional[float] = None
        self._wal_handle: Optional[ShardedWal] = None
        self._decisions: Optional[DecisionLog] = None
        self.auditor = None
        self.stats = {
            "accesses": 0,
            "denials": 0,
            "commits": 0,
            "aborts": 0,
            "deadlocks": 0,
        }
        #: What the serve server dereferences as ``facade.engine``.
        self.engine = _EngineView(self)

    # ------------------------------------------------------------------
    # Introspection / facade parity
    # ------------------------------------------------------------------
    @property
    def capabilities(self):
        return self.scheme.capabilities

    @property
    def shards(self) -> int:
        """Effective worker count (clamped by the object count)."""
        return self.store.shards

    @property
    def specs(self) -> Dict[str, ObjectSpec]:
        return self.store.specs

    @property
    def worker_pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    # ------------------------------------------------------------------
    # Seams (mirror the facade's)
    # ------------------------------------------------------------------
    def attach_wal(
        self,
        wal=None,
        sink=None,
        segment_bytes: Optional[int] = None,
        wal_dir: Optional[str] = None,
        group_ms: Optional[float] = None,
    ) -> ShardedWal:
        """Configure per-shard WALs; must run before workers start.

        The facade signature is honoured but a sharded engine cannot
        adopt an in-process ``wal``/``sink`` -- logs are written by the
        workers.  Pass *wal_dir*; each worker logs to
        ``wal_dir/shard-NN`` and cross-shard decisions go to
        ``wal_dir/coord``.
        """
        if not self.scheme.capabilities.durable:
            raise EngineError(
                "scheme %r is not durable "
                "(capabilities.durable is False)" % self.scheme.name
            )
        if wal is not None or sink is not None:
            raise EngineError(
                "sharded engine logs per shard: pass wal_dir, "
                "not an in-process wal/sink"
            )
        if wal_dir is None:
            raise EngineError("attach_wal needs wal_dir")
        if self._started:
            raise EngineError(
                "attach_wal must run before the workers start"
            )
        self._wal_dir = wal_dir
        self._segment_bytes = segment_bytes
        self._wal_group_ms = group_ms
        self._wal_handle = ShardedWal(self, wal_dir)
        return self._wal_handle

    def attach_auditor(self, auditor=None, config=None):
        """Attach an online serializability auditor; returns it.

        The auditor consumes the coordinator's merged observer stream:
        per-object access order is each shard's true execution order
        (access events are emitted by whichever thread reads the
        link, in reply order); lifecycle events come from the thread
        making the transition, a subcommit's before its shards hear.
        """
        from repro.audit import AuditConfig, OnlineAuditor

        if auditor is None:
            if config is None:
                config = AuditConfig.for_capabilities(self.capabilities)
            auditor = OnlineAuditor(config)
        obs = self.obs
        if obs is None:
            from repro.engine.threadsafe import _LockedObserver
            from repro.obs import AuditObserver

            obs = _LockedObserver(AuditObserver())
            self.obs = obs
        obs.attach_auditor(auditor)
        self.auditor = auditor
        return auditor

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedEngine":
        """Spawn one worker per shard and shake hands; idempotent."""
        if self._started:
            return self
        if self._closed:
            raise EngineError("sharded engine is closed")
        ctx = multiprocessing.get_context("spawn")
        shard_specs: List[List[ObjectSpec]] = [
            [] for _ in range(self.store.shards)
        ]
        for spec in self._specs:
            shard_specs[self.store.shard_of(spec.name)].append(spec)
        if self._wal_dir is not None:
            os.makedirs(self._wal_dir, exist_ok=True)
            self._decisions = DecisionLog(
                self._wal_dir, window_ms=self._wal_group_ms
            )
        for shard in range(self.store.shards):
            config = WorkerConfig(
                shard=shard,
                shards=self.store.shards,
                scheme=self.scheme.name,
                specs=shard_specs[shard],
                wal_dir=(
                    os.path.join(self._wal_dir, "shard-%02d" % shard)
                    if self._wal_dir is not None
                    else None
                ),
                segment_bytes=self._segment_bytes,
                wal_group_ms=self._wal_group_ms,
                check_sharding=not self._custom_sharding,
            )
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=worker_main,
                args=(child_conn, config),
                name="repro-shard-%d" % shard,
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._links.append(ShardLink(shard, parent_conn))
            self._procs.append(proc)
        self._started = True
        try:
            for link in self._links:
                reply = link.call(
                    "hello", timeout=30.0, version=proto.PROTOCOL_VERSION
                )
                if not reply.get("ok"):
                    error = reply.get("error") or {}
                    raise EngineError(
                        "shard %d refused hello: %s"
                        % (link.shard, error.get("message"))
                    )
        except EngineError:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Shut workers down and reap them; idempotent."""
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            if link.alive:
                try:
                    link.call("shutdown", timeout=2.0)
                except EngineError:
                    pass
            link.close()
        for proc in self._procs:
            proc.join(timeout=3.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._decisions is not None:
            self._decisions.close()

    def __enter__(self) -> "ShardedEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _link(self, shard: int) -> ShardLink:
        if not self._started:
            self.start()
        return self._links[shard]

    # ------------------------------------------------------------------
    # Facade API
    # ------------------------------------------------------------------
    def begin_top(self) -> ShardedTransaction:
        if self._closed:
            raise EngineError("sharded engine is closed")
        if not self._started:
            self.start()
        with self._mutex:
            ordinal = self._next_top
            self._next_top += 1
            top = _Top(ordinal)
            self._tops[ordinal] = top
        obs = self.obs
        if obs is not None:
            obs.txn_begin(top.name)
        return ShardedTransaction(self, top.root, top)

    def abort_top(self, name, cause: Optional[str] = None) -> bool:
        """Abort the tree containing *name*; idempotent, any thread."""
        top_name = tuple(name)[:1]
        with self._mutex:
            top = self._tops.get(top_name[0])
            if top is None or top.root.status is not TransactionStatus.ACTIVE:
                return False
        self._abort_node(top.root, top, cause=cause or "explicit")
        return True

    def object_value(self, object_name: str, committed: bool = True) -> Any:
        shard = self.store.shard_of(object_name)
        reply = self._link(shard).call(
            "value", object=object_name, committed=committed
        )
        if not reply.get("ok"):
            error = reply.get("error") or {}
            raise EngineError(str(error.get("message")))
        return reply.get("value")

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-worker engine/WAL counters (one RPC per shard)."""
        if not self._started:
            return []
        waiters = [
            (link, link.send("stats"))
            for link in self._links
            if link.alive
        ]
        results = []
        for link, waiter in waiters:
            reply = link.wait(waiter, timeout=10.0)
            if reply.get("ok"):
                results.append(reply.get("stats") or {})
        return results

    # ------------------------------------------------------------------
    # Tree transitions (called through the handles)
    # ------------------------------------------------------------------
    def _begin_child(self, handle: ShardedTransaction) -> ShardedTransaction:
        with self._mutex:
            self._check_node(handle._node, handle._top)
            parent = handle._node
            name = parent.name + (parent.next_child,)
            parent.next_child += 1
            node = _Node(name, parent)
            parent.children.append(node)
        obs = self.obs
        if obs is not None:
            obs.txn_begin(name)
        return ShardedTransaction(self, node, handle._top)

    def _check_node(self, node: _Node, top: _Top) -> None:
        status = node.status
        if status is TransactionStatus.ACTIVE:
            return
        if status is TransactionStatus.ABORTED:
            raise TransactionAborted(
                node.name, top.cause or "transaction aborted"
            )
        raise InvalidTransactionState(
            "%r is %s" % (node.name, status.name.lower())
        )

    def _check_committable(self, node: _Node, top: _Top) -> None:
        self._check_node(node, top)
        if any(
            child.status is TransactionStatus.ACTIVE
            for child in node.children
        ):
            raise InvalidTransactionState(
                "%r cannot commit with live children" % (node.name,)
            )

    def _perform(
        self,
        handle: ShardedTransaction,
        object_name: str,
        operation: Operation,
        timeout: Optional[float],
    ) -> Any:
        node, top = handle._node, handle._top
        shard = self.store.shard_of(object_name)
        link = self._link(shard)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        args = list(operation.args) if operation.args else None
        stats = self.stats
        while True:
            with self._mutex:
                self._check_node(node, top)
                if shard not in node.mirrors:
                    self._mirror_onto(node, top, shard)
                # Counted when sent; taken back if the shard refuses.
                stats["accesses"] += 1
            obs = self.obs
            on_ok = None
            if obs is not None:
                on_ok = self._access_hook(
                    obs, node.name, object_name, operation
                )
            try:
                reply = link.call(
                    "perform",
                    on_ok=on_ok,
                    txn=list(node.name),
                    object=object_name,
                    kind=operation.kind,
                    args=args,
                    read=True if operation.is_read else None,
                )
            except ShardDown:
                with self._mutex:
                    stats["accesses"] -= 1
                raise
            if reply.get("ok"):
                return reply.get("value")
            error = reply.get("error") or {}
            code = error.get("code")
            denied = code in (proto.ERR_LOCK_DENIED, proto.ERR_RETRY_LATER)
            with self._mutex:
                stats["accesses"] -= 1
                if denied:
                    stats["denials"] += 1
            if denied:
                blockers = [
                    tuple(blocker)
                    for blocker in error.get("blockers") or ()
                ]
                self._wound_younger(top, blockers)
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise self._denial(code, error, blockers)
                hint = error.get("retry_after_ms")
                pause = (
                    hint / 1000.0 if hint else self._retry_s
                )
                if deadline is not None:
                    pause = min(pause, max(0.0, deadline - now))
                time.sleep(min(pause, _MAX_PAUSE_S))
                continue
            self._raise_error(error, node, top)

    def _mirror_onto(self, node: _Node, top: _Top, shard: int) -> None:
        """Record that *shard* mirrors *node* (coordinator mutex held).

        A tree's first touch of a shard holds its ``begin``, under the
        mutex, so it is in front of whichever thread's ``perform``
        leaves first.  The global ordinal doubles as the tree's
        cross-shard timestamp (MVTO workers order by it, keeping one
        serialization order across shards) and as its wound-wait age.
        """
        if shard not in top.root.mirrors:
            waiter = self._links[shard].hold(
                "begin",
                txn=[top.ordinal],
                ts=top.ordinal + 1,
                at=float(top.ordinal),
            )
            top.held.append((shard, waiter))
        while node is not None and shard not in node.mirrors:
            node.mirrors.add(shard)
            node = node.parent

    @staticmethod
    def _access_hook(obs, txn_name, object_name, operation):
        kind = operation.kind
        is_read = operation.is_read

        def hook(message, _obs=obs):
            _obs.access(txn_name, object_name, kind, is_read)

        return hook

    def _denial(self, code, error, blockers):
        message = str(error.get("message", "lock denied"))
        if code == proto.ERR_RETRY_LATER:
            return RetryLater(
                message,
                blockers=blockers,
                retry_after_ms=error.get("retry_after_ms"),
            )
        return LockDenied(message, blockers=blockers)

    def _raise_error(self, error: Dict[str, Any], node: _Node, top: _Top):
        code = error.get("code")
        message = str(error.get("message", ""))
        if code == proto.ERR_TXN_ABORTED:
            # The worker killed its local tree (MVTO timestamp
            # conflict, orphaned mirror, ...); propagate the abort to
            # every other participant and the coordinator state.
            self._abort_node(
                top.root, top, cause=message or "aborted by shard"
            )
            raise TransactionAborted(node.name, message)
        if code == proto.ERR_INVALID_STATE:
            raise InvalidTransactionState(message)
        raise EngineError(message or "shard error %r" % (code,))

    def _wound_younger(
        self, top: _Top, blockers: List[Tuple[int, ...]]
    ) -> None:
        """Wound-wait across shards: older trees win, younger die."""
        for blocker in blockers:
            if not blocker or blocker[0] <= top.ordinal:
                continue
            with self._mutex:
                victim = self._tops.get(blocker[0])
                if (
                    victim is None
                    or victim.root.status is not TransactionStatus.ACTIVE
                ):
                    continue
                self.stats["deadlocks"] += 1
            obs = self.obs
            if obs is not None:
                obs.wound(victim.name, top.name)
            self._abort_node(victim.root, victim, cause="wound-wait")

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------
    def _commit(self, handle: ShardedTransaction, value: Any) -> None:
        node, top = handle._node, handle._top
        if node.parent is None:
            self._commit_top(handle, value)
            return
        with self._mutex:
            self._check_committable(node, top)
            node.status = TransactionStatus.COMMITTED  # repro-lint: ignore[CD003]
            self.stats["commits"] += 1
            # The subcommit only moves locks and versions from child
            # to parent inside this tree, on the shards that mirror
            # the child: no caller needs the answer, no other tree can
            # see the difference, so it is held.
            for shard in node.mirrors:
                waiter = self._links[shard].hold(
                    "commit", txn=list(node.name)
                )
                top.held.append((shard, waiter))
        obs = self.obs
        if obs is not None:
            obs.txn_commit(node.name)

    def _commit_top(self, handle: ShardedTransaction, value: Any) -> None:
        node, top = handle._node, handle._top
        with self._mutex:
            self._check_committable(node, top)
            participants = sorted(top.participants)
        if not participants:
            self._finalize_commit(top)
            return
        if len(participants) == 1:
            # One-phase fast path: the only participant's commit+flush
            # IS the durability point; no prepare, no decision record.
            link = self._links[participants[0]]
            try:
                reply = link.call("decide", txn=[top.ordinal])
            except ShardDown as exc:
                self._raise_error(
                    {"code": proto.ERR_INTERNAL, "message": str(exc)},
                    node,
                    top,
                )
            # The held acks came back in the decide's batch; a failed
            # subcommit also made the worker refuse the decide (live
            # children), so nothing was committed.
            self._check_held(node, top)
            if not reply.get("ok"):
                self._raise_error(reply.get("error") or {}, node, top)
            self._finalize_commit(top)
            return
        self._two_phase_commit(node, top, participants)
        self._finalize_commit(top)

    def _two_phase_commit(
        self, node: _Node, top: _Top, participants: List[int]
    ) -> None:
        # Phase 1 (presumed abort): every participant forces its WAL;
        # nothing is logged for the prepare itself, so a crash before
        # the decision record replays to an active tree that recovery
        # presumed-aborts.
        waiters = [
            (shard, self._links[shard].send("prepare", txn=[top.ordinal]))
            for shard in participants
        ]
        locals_map: Dict[str, int] = {}
        failure = None
        for shard, waiter in waiters:
            try:
                reply = self._links[shard].wait(waiter)
            except ShardDown as exc:
                failure = {
                    "code": proto.ERR_INTERNAL,
                    "message": str(exc),
                }
                continue
            if reply.get("ok"):
                local = reply.get("local")
                if local is not None:
                    locals_map[str(shard)] = local
            else:
                failure = reply.get("error") or {}
        if failure is not None:
            self._abort_node(
                top.root,
                top,
                cause="prepare failed: %s" % failure.get("message"),
            )
            raise TransactionAborted(
                node.name,
                "2pc prepare failed: %s" % failure.get("message"),
            )
        # Every link's held acks came back in front of its prepare's.
        self._check_held(node, top)
        # Claim the decision: a wound-wait abort racing this commit
        # marks the root under the mutex before broadcasting worker
        # aborts, so checking-and-marking here is atomic against it.
        # If the wound got in first, its aborts will reach (or have
        # reached) every mirror -- nothing was decided, presumed abort
        # holds.  If we get in first, the wound sees a finished tree
        # and stands down, so phase 2 runs against live mirrors.
        with self._mutex:
            if top.root.status is not TransactionStatus.ACTIVE:
                raise TransactionAborted(
                    node.name,
                    "wounded during 2pc prepare (%s)"
                    % (top.cause or "aborted"),
                )
            top.root.status = (  # repro-lint: ignore[CD003]
                TransactionStatus.COMMITTED
            )
        # Decision record: once durable, the commit survives any crash
        # (recover_sharded resolves prepared-but-undecided shards).
        if self._decisions is not None:
            self._decisions.log(top.ordinal, participants, locals_map)
        # Phase 2: every participant logs COMMIT and flushes.  The
        # caller is acked only after all of them answered, so an acked
        # commit is durable on every shard it touched.
        waiters = [
            (shard, self._links[shard].send("decide", txn=[top.ordinal]))
            for shard in participants
        ]
        stragglers = []
        for shard, waiter in waiters:
            try:
                reply = self._links[shard].wait(waiter)
            except ShardDown:
                stragglers.append(shard)
                continue
            if not reply.get("ok"):
                stragglers.append(shard)
        if stragglers:
            # The decision stands (and is durable); the caller just
            # cannot be told "durable everywhere", so the commit is
            # NOT acknowledged as such.
            raise EngineError(
                "commit %d decided but shards %s did not acknowledge"
                % (top.ordinal, stragglers)
            )

    def _check_held(self, node: _Node, top: _Top) -> None:
        """Abort the tree unless every held request was acked ok.

        Runs after each participant's first commit-phase reply (held
        frames left in front of it, so their acks are in) and before
        the decision is claimed: a failed or missing ack means some
        mirror is not the tree the coordinator is about to commit.
        """
        for shard, waiter in top.held:
            reply = waiter.reply
            if reply is not None and reply.get("ok"):
                continue
            cause = "held request failed on shard %d: %s" % (
                shard,
                ShardDown(shard) if reply is None
                else (reply.get("error") or {}).get("message"),
            )
            self._abort_node(top.root, top, cause=cause)
            raise TransactionAborted(node.name, cause)

    def _finalize_commit(self, top: _Top) -> None:
        with self._mutex:
            top.root.status = TransactionStatus.COMMITTED  # repro-lint: ignore[CD003]
            self._tops.pop(top.ordinal, None)
            self.stats["commits"] += 1
        obs = self.obs
        if obs is not None:
            obs.txn_commit(top.name)

    def _abort_node(
        self, node: _Node, top: _Top, cause: str = "explicit"
    ) -> None:
        """Abort *node*'s subtree locally and on every shard mirroring it."""
        with self._mutex:
            if node.status is not TransactionStatus.ACTIVE:
                return
            aborted: List[Tuple[int, ...]] = []
            self._mark_aborted(node, aborted)
            if node.parent is None:
                top.cause = cause
                self._tops.pop(top.ordinal, None)
            participants = sorted(node.mirrors)
            self.stats["aborts"] += 1
        obs = self.obs
        if obs is not None:
            if cause not in ("explicit", "ancestor-abort"):
                obs.mark_abort_cause(top.name, cause)
            for index, name in enumerate(aborted):
                obs.txn_abort(
                    name, cause=cause if index == 0 else "ancestor-abort"
                )
        # Never held: an abort frees locks other trees wait on.
        waiters = []
        for shard in participants:
            link = self._links[shard]
            try:
                waiters.append((link, link.send("abort", txn=list(node.name))))
            except ShardDown:
                continue
        for link, waiter in waiters:
            try:
                link.wait(waiter)
            except ShardDown:
                # A dead worker's locks died with it; nothing to undo.
                continue

    def _mark_aborted(
        self, node: _Node, out: List[Tuple[int, ...]]
    ) -> None:
        # The coordinator's _Node mirrors are bookkeeping, not engine
        # transactions -- the authoritative transition runs in the
        # shard worker's Engine.
        node.status = TransactionStatus.ABORTED  # repro-lint: ignore[CD003]
        out.append(node.name)
        for child in node.children:
            if child.status is TransactionStatus.ACTIVE:
                self._mark_aborted(child, out)
