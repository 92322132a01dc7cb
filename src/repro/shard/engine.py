"""The sharded engine: a coordinator over shard workers, with 2PC.

:class:`ShardedEngine` exposes the :class:`~repro.engine.threadsafe.
ThreadSafeEngine` facade API (``begin_top`` / ``begin_child`` /
``perform`` / ``commit`` / ``abort`` / ``abort_top`` / ``attach_wal``
/ ``attach_auditor`` / ``object_value``), but every object lives in
exactly one worker *process*.  The coordinator is the paper's generic
scheduler and the workers are its objects: the transaction tree lives
in the scheme's own engine, built over no objects and touched only
under the coordinator's mutex, so status, child naming, the
live-children and orphan checks, the scheme's abort escalation and
the lifecycle events are the engine's.  ``begin_top`` returns the
facade's own :class:`~repro.engine.threadsafe.ThreadSafeTransaction`
handle, with its dead-handle contract.  Beyond the tree the
coordinator:

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
* sends each abort to the shards mirroring what died -- the subtree,
  or the whole tree when the scheme escalates;
* resolves cross-shard conflicts with wound-wait over the tree
  handles' ages (workers return blockers translated to global top
  names; older trees win, younger are wounded) -- worker engines stay
  non-blocking and never deadlock;
* lets the shards a tree *wrote* on decide its commit: none commits
  with no pipe write, one with a one-phase ``decide`` whose
  worker-side flush is the durability point, two or more with
  presumed-abort two-phase commit among themselves -- ``prepare``
  (force each WAL durable), a coordinator decision record naming
  them, then ``decide`` (each logs COMMIT and flushes).  A commit is
  acknowledged to the caller only after every writing participant
  acknowledged its ``decide``, so an acked commit is durable in every
  per-shard WAL it changed.  A participant that only read gets no
  commit-phase message of its own: its ``decide`` is held once the
  writers committed (its read locks are visible to another tree only
  through a request on its link, which carries the decide in front).
  A reader with a held frame still unacked votes with ``prepare``, so
  that ack is checked before the decision is claimed.

The tree engine's event spine (:mod:`repro.engine.spine`) is the
coordinator's, with its dispatch serialised: lifecycle events come
from the thread making the transition, access events from whichever
thread is reading the link, in the shard's actual execution order --
the merged stream a subscribed :class:`repro.obs.Observer` or
:class:`~repro.audit.OnlineAuditor` consumes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.names import TransactionName, pretty_name
from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.deadlock import wound_victims
from repro.engine.spine import Granted, Tagged, Wounded, emit
from repro.engine.threadsafe import ThreadSafeTransaction, _raise_if_aborted
from repro.engine.transaction import Transaction, TransactionStatus
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

#: Coordinator-side pause between denial retries (seconds).
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


class _Top:
    """What the coordinator knows of one live tree and its engine does not."""

    __slots__ = ("participants", "written", "mirrors", "held", "claimed")

    def __init__(self, name: TransactionName):
        #: shards this tree has touched (the participant set)
        self.participants: Set[int] = set()
        #: shards this tree sent a non-read ``perform`` to (granted or
        #: not): the ones that decide the commit
        self.written: Set[int] = set()
        #: node name -> the shards mirroring it: a superset of every
        #: descendant's, so the root's is ``participants``
        self.mirrors: Dict[TransactionName, Set[int]] = {
            name: self.participants
        }
        #: (shard, waiter) of every held begin/subcommit, in order;
        #: checked at the commit point
        self.held: List[Tuple[int, Any]] = []
        #: the commit decision is claimed: aborts stand down
        self.claimed = False


def _check_live(txn: Transaction) -> None:
    """Raise the facade's error for a finished *txn*; mutex held."""
    if not txn.is_active:
        _raise_if_aborted(txn)
        raise InvalidTransactionState(
            "%s is %s" % (pretty_name(txn.name), txn.status.value)
        )


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
        # The tree: the scheme's own engine over no objects (those live
        # in the workers), touched only under `_mutex`.  Its spine is
        # the coordinator's; events come from every client thread and
        # from link readers, so one lock serialises each fan-out.
        self._tree = self.scheme.build([], observer=observer)
        self._tree.serialise_dispatch(threading.Lock())
        self.stats = self._tree.stats
        self._specs = specs
        self._mutex = threading.RLock()
        self._tops: Dict[TransactionName, _Top] = {}
        self._links: List[ShardLink] = []
        self._procs: List[Any] = []
        self._started = False
        self._closed = False
        self._wal_dir: Optional[str] = None
        self._segment_bytes: Optional[int] = None
        self._wal_group_ms: Optional[float] = None
        self._wal_handle: Optional[ShardedWal] = None
        self._decisions: Optional[DecisionLog] = None
        #: What the serve server dereferences as ``facade.engine``.
        self.engine = _EngineView(self)

    # ------------------------------------------------------------------
    # The event spine (the tree engine's)
    # ------------------------------------------------------------------
    def subscribe(self, subscriber):
        """Add *subscriber* to the coordinator's spine; returns it."""
        return self._tree.subscribe(subscriber)

    def attach_auditor(self, auditor=None, config=None):
        """Subscribe an online serializability auditor; returns it."""
        return self._tree.attach_auditor(auditor, config)

    def note(self, kind, *fields) -> None:
        """Emit a *kind* event of *fields*, if anything subscribes."""
        self._tree.note(kind, *fields)

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
            # Two one-way pipes: a pipe round trip is cheaper than a
            # socketpair's, and the reply pipe is read raw.
            requests, to_worker = ctx.Pipe(duplex=False)
            from_worker, replies = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=worker_main,
                args=(requests, replies, config),
                name="repro-shard-%d" % shard,
                daemon=True,
            )
            proc.start()
            requests.close()
            replies.close()
            self._links.append(ShardLink(shard, to_worker, from_worker))
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
    def begin_top(self) -> ThreadSafeTransaction:
        if self._closed:
            raise EngineError("sharded engine is closed")
        if not self._started:
            self.start()
        with self._mutex:
            inner = self._tree.begin_top()
            self._tops[inner.name] = _Top(inner.name)
        return ThreadSafeTransaction(self, inner)

    def abort_top(self, name, cause: Optional[str] = None) -> bool:
        """Abort the tree containing *name*; idempotent, any thread."""
        top = tuple(name)[:1]
        if cause is None:
            return self._abort_tree(top)
        return self._abort_tree(top, Tagged, top, cause)

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
    # Accesses (called through the handles)
    # ------------------------------------------------------------------
    def _perform_blocking(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
        timeout: Optional[float],
    ) -> Any:
        name = txn.name
        shard = self.store.shard_of(object_name)
        link = self._link(shard)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        args = list(operation.args) if operation.args else None
        stats = self.stats
        while True:
            with self._mutex:
                _check_live(txn)
                top = self._tops[name[:1]]
                if shard not in top.mirrors.get(name, ()):
                    self._mirror_onto(top, name, shard)
                if not operation.is_read:
                    top.written.add(shard)
                # Counted when sent, and the access's slot in *txn*'s
                # child numbering claimed; both taken back if the shard
                # refuses, as a denied access claims no slot.
                stats["accesses"] += 1
                txn._claim_child_slot()
            on = self._tree._on_granted
            on_ok = None
            if on:
                on_ok = self._access_hook(on, name, object_name, operation)
            try:
                reply = link.call(
                    "perform",
                    on_ok=on_ok,
                    txn=list(name),
                    object=object_name,
                    kind=operation.kind,
                    args=args,
                    read=True if operation.is_read else None,
                )
            except ShardDown:
                with self._mutex:
                    stats["accesses"] -= 1
                    txn._next_child -= 1
                raise
            if reply.get("ok"):
                return reply.get("value")
            error = reply.get("error") or {}
            code = error.get("code")
            denied = code in (proto.ERR_LOCK_DENIED, proto.ERR_RETRY_LATER)
            with self._mutex:
                stats["accesses"] -= 1
                txn._next_child -= 1
                if denied:
                    stats["denials"] += 1
            if denied:
                blockers = [
                    tuple(blocker)
                    for blocker in error.get("blockers") or ()
                ]
                self._wound(name[:1], blockers)
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise self._denial(code, error, blockers)
                hint = error.get("retry_after_ms")
                pause = hint / 1000.0 if hint else DEFAULT_RETRY_S
                if deadline is not None:
                    pause = min(pause, max(0.0, deadline - now))
                time.sleep(min(pause, _MAX_PAUSE_S))
                continue
            self._raise_error(error, txn)

    def _mirror_onto(
        self, top: _Top, name: TransactionName, shard: int
    ) -> None:
        """Record that *shard* mirrors *name* (coordinator mutex held).

        A tree's first touch of a shard holds its ``begin``, under the
        mutex, so it is in front of whichever thread's ``perform``
        leaves first.  The top's slot doubles as the tree's cross-shard
        timestamp (MVTO workers order by it, keeping one serialization
        order across shards).
        """
        if shard not in top.participants:
            waiter = self._links[shard].hold(
                "begin", txn=[name[0]], ts=name[0] + 1
            )
            top.held.append((shard, waiter))
        while name:
            shards = top.mirrors.setdefault(name, set())
            if shard in shards:
                break
            shards.add(shard)
            name = name[:-1]

    @staticmethod
    def _access_hook(on, txn_name, object_name, operation):
        # The coordinator knows no leaf name and no lock table.
        def hook(message):
            emit(
                on,
                Granted(
                    txn_name, None, object_name, operation,
                    operation.is_read, message.get("value"), None,
                ),
            )

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

    def _raise_error(self, error: Dict[str, Any], txn: Transaction):
        code = error.get("code")
        message = str(error.get("message", ""))
        if code == proto.ERR_TXN_ABORTED:
            # The worker killed its local tree (MVTO timestamp
            # conflict, orphaned mirror, ...); propagate the abort to
            # every other participant and the coordinator's tree.
            top = txn.name[:1]
            self._abort_tree(
                top, Tagged, top, message or "aborted by shard"
            )
            raise TransactionAborted(txn.name, message)
        if code == proto.ERR_INVALID_STATE:
            raise InvalidTransactionState(message)
        raise EngineError(message or "shard error %r" % (code,))

    def _wound(
        self, my_top: TransactionName, blockers: List[TransactionName]
    ) -> None:
        """Wound-wait across shards, by the tree handles' ``age`` as in
        the facade's ``_wound``; a forgotten tree ranks oldest.  Only
        the thread whose claim aborted a victim counts it."""
        table = self._tree.transactions
        with self._mutex:
            if my_top not in table:
                return  # wounded meanwhile; the retry raises
            victims = wound_victims(
                my_top,
                blockers,
                lambda top: table[top].age if top in table else -math.inf,
            )
        for target in victims:
            if self._abort_tree(target, Wounded, target, my_top):
                with self._mutex:
                    self.stats["deadlocks"] += 1

    # ------------------------------------------------------------------
    # Commit / abort (called through the handles)
    # ------------------------------------------------------------------
    def _finish(self, txn: Transaction, action: str, value: Any) -> None:
        if action == "abort":
            self._abort(txn)
        elif len(txn.name) == 1:
            self._commit_top(txn, value)
        else:
            self._commit_child(txn, value)

    def _commit_child(self, txn: Transaction, value: Any) -> None:
        with self._mutex:
            try:
                txn.commit(value)
            except InvalidTransactionState:
                _raise_if_aborted(txn)
                raise
            top = self._tops[txn.name[:1]]
            # The subcommit only moves locks and versions from child
            # to parent inside this tree, on the shards that mirror
            # the child: no caller needs the answer, no other tree can
            # see the difference, so it is held.
            for shard in top.mirrors.get(txn.name, ()):
                waiter = self._links[shard].hold(
                    "commit", txn=list(txn.name)
                )
                top.held.append((shard, waiter))

    def _commit_top(self, txn: Transaction, value: Any) -> None:
        name = txn.name
        with self._mutex:
            _check_live(txn)
            if txn.live_children():
                raise InvalidTransactionState(
                    "%s cannot commit with live children"
                    % pretty_name(name)
                )
            top = self._tops[name]
            writers = sorted(top.written)
            readers = sorted(top.participants - top.written)
        # A reader whose held frames were all acked has nothing left to
        # say before the decision; one with an ack still out votes, so
        # that the ack comes back in front of its prepare's.
        unacked = {
            shard for shard, waiter in top.held if waiter.reply is None
        }
        voters = [shard for shard in readers if shard in unacked]
        lone = writers[0] if len(writers) == 1 else None
        if lone is None:
            voters = sorted(voters + writers)
        locals_map = self._prepare(txn, voters) if voters else {}
        # A lone writer's held acks come back in its decide's batch.
        self._check_held(txn, top, lone)
        self._claim_decision(
            txn, top, "during 2pc prepare" if voters else "before commit"
        )
        stragglers: List[int] = []
        if lone is not None:
            self._one_phase_commit(txn, top, lone)
        elif writers:
            stragglers = self._two_phase_decide(txn, writers, locals_map)
        # The writers committed: the readers' decides ride in front of
        # the next write any thread makes on their links.
        for shard in readers:
            self._links[shard].hold("decide", txn=list(name))
        with self._mutex:
            del self._tops[name]
            txn.commit(value)
        if stragglers:
            # The decision stands (and is durable); the caller just
            # cannot be told "durable everywhere", so the commit is
            # NOT acknowledged as such.
            raise EngineError(
                "commit %d decided but shards %s did not acknowledge"
                % (name[0], stragglers)
            )

    def _one_phase_commit(
        self, txn: Transaction, top: _Top, shard: int
    ) -> None:
        # The only writer's commit+flush IS the durability point; no
        # prepare, no decision record.  A failed decide hands the tree
        # back, so the failure paths below abort it as if it had never
        # been claimed.
        try:
            reply = self._links[shard].call("decide", txn=list(txn.name))
        except ShardDown as exc:
            self._release_decision(top)
            self._raise_error(
                {"code": proto.ERR_INTERNAL, "message": str(exc)}, txn
            )
        # The held acks came back in the decide's batch; a failed
        # subcommit also made the worker refuse the decide (live
        # children), so nothing was committed.
        if not reply.get("ok") or self._held_failure(top) is not None:
            self._release_decision(top)
            self._check_held(txn, top)
            self._raise_error(reply.get("error") or {}, txn)

    def _prepare(self, txn: Transaction, voters: List[int]) -> Dict[int, int]:
        """Phase 1 on *voters*; returns each one's local top slot.

        Presumed abort: every voter forces its WAL and nothing is
        logged for the prepare itself, so a crash before the decision
        record replays to an active tree that recovery presumed-aborts.
        A failed vote aborts the tree everywhere.
        """
        name = txn.name
        waiters = [
            (shard, self._links[shard].send("prepare", txn=list(name)))
            for shard in voters
        ]
        locals_map: Dict[int, int] = {}
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
                    locals_map[shard] = local
            else:
                failure = reply.get("error") or {}
        if failure is not None:
            cause = "prepare failed: %s" % failure.get("message")
            self._abort(txn, Tagged, name, cause)
            raise TransactionAborted(name, "2pc " + cause)
        return locals_map

    def _two_phase_decide(
        self,
        txn: Transaction,
        writers: List[int],
        locals_map: Dict[int, int],
    ) -> List[int]:
        """Log the decision, then phase 2 on *writers*; returns the ones
        that did not acknowledge the (durable) commit decision."""
        name = txn.name
        # Decision record: once durable, the commit survives any crash
        # (recover_sharded resolves prepared-but-undecided writers).
        # It names only the writers: a reader's decide may never leave,
        # and recovery presumes its tree aborted, which is right.
        if self._decisions is not None:
            self._decisions.log(
                name[0],
                writers,
                {
                    str(shard): locals_map[shard]
                    for shard in writers
                    if shard in locals_map
                },
            )
        # Phase 2: every writer logs COMMIT and flushes.  The caller is
        # acked only after all of them answered, so an acked commit is
        # durable on every shard it changed.
        waiters = [
            (shard, self._links[shard].send("decide", txn=list(name)))
            for shard in writers
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
        return stragglers

    def _claim_decision(self, txn: Transaction, top: _Top, when: str) -> None:
        """Claim the commit decision before any ``decide`` is sent.

        An abort racing this commit (wound-wait, ``abort_top``) takes
        the tree out of ``_tops`` under the mutex before broadcasting
        worker aborts, so checking-and-claiming here is atomic against
        it.  If the abort got in first, its aborts will reach (or have
        reached) every mirror -- nothing was decided, presumed abort
        holds.  If we get in first, the abort stands down, so the
        decide runs against live mirrors.
        """
        with self._mutex:
            if self._tops.get(txn.name) is not top:
                raise TransactionAborted(txn.name, "aborted %s" % when)
            top.claimed = True

    def _release_decision(self, top: _Top) -> None:
        """Hand a claimed but undecided tree back to the abort paths."""
        with self._mutex:
            top.claimed = False

    def _held_failure(
        self, top: _Top, skip: Optional[int] = None
    ) -> Optional[str]:
        """Why some held request (on a shard but *skip*) was not acked
        ok, or None."""
        for shard, waiter in top.held:
            if shard == skip:
                continue
            reply = waiter.reply
            if reply is not None and reply.get("ok"):
                continue
            return "held request failed on shard %d: %s" % (
                shard,
                ShardDown(shard) if reply is None
                else (reply.get("error") or {}).get("message"),
            )
        return None

    def _check_held(
        self, txn: Transaction, top: _Top, skip: Optional[int] = None
    ) -> None:
        """Abort the tree unless every held request (on a shard but
        *skip*) was acked ok.

        Runs while the decision is unclaimed, once every participant
        but *skip* has no held frame left unacked: the voters' prepare
        replies came behind theirs, and a quiet reader's were acked
        already.  A failed or missing ack means some mirror is not the
        tree the coordinator is about to commit.
        """
        cause = self._held_failure(top, skip)
        if cause is not None:
            self._abort(txn, Tagged, txn.name, cause)
            raise TransactionAborted(txn.name, cause)

    def _abort_tree(self, top: TransactionName, *note) -> bool:
        """Abort the live tree named *top* (see :meth:`_abort`)."""
        with self._mutex:
            txn = self._tree.transactions.get(top)
        return txn is not None and self._abort(txn, *note)

    def _abort(self, txn: Transaction, *note) -> bool:
        """Abort *txn* in the tree, then on every shard mirroring what
        died: its subtree, or the whole tree when it is the top or the
        scheme escalates the abort.

        A top leaves ``_tops`` before *note* (a ``Wounded`` or
        ``Tagged`` event) announces its abort, all under the mutex, so
        a competing abort finds it gone and stands down: each abort is
        claimed, announced and counted once.  Returns False, doing
        nothing, when *txn* is already aborted or its tree finished or
        claimed its commit decision.
        """
        name = txn.name
        with self._mutex:
            top = self._tops.get(name[:1])
            if (
                top is None
                or top.claimed
                or txn.status is TransactionStatus.ABORTED
            ):
                return False
            if len(name) == 1:
                del self._tops[name]
            if note:
                self.note(*note)
            txn.abort()
            if name[:1] not in self._tree.transactions:
                name = name[:1]
                self._tops.pop(name, None)
            participants = sorted(top.mirrors.get(name, ()))
        # Never held: an abort frees locks other trees wait on.
        waiters = []
        for shard in participants:
            link = self._links[shard]
            try:
                waiters.append((link, link.send("abort", txn=list(name))))
            except ShardDown:
                continue
        for link, waiter in waiters:
            try:
                link.wait(waiter)
            except ShardDown:
                # A dead worker's locks died with it; nothing to undo.
                continue
        return True
