"""The shard worker process: one single-threaded engine per shard.

``worker_main`` is the spawn-safe process target.  It builds the
engine named by its :class:`WorkerConfig` over the shard's spec slice,
optionally attaches a per-shard file WAL, and then serves framed-JSON
requests until the coordinator pipe closes.  A pipe message is a
*batch* of :mod:`repro.serve.protocol` frames: the worker handles them
in order and answers with one pipe message of the response frames, in
the same order -- so requests the coordinator held back (``begin``,
subtransaction ``commit``) cost no context switch of their own.

Name mirroring is lazy and worker-local: requests carry *global*
transaction names (the coordinator's numbering); the worker maps each
global name to a local handle, beginning missing ancestors on demand.
Local slot numbers therefore differ from the global ones -- they are
assigned sequentially by the local engine, which is exactly what WAL
recovery replays against (``repro recover`` on a shard directory
cross-checks the local numbering).  Lock blockers travel back
translated to global *top* names so the coordinator can run wound-wait
across shards.

The worker protocol (superset shapes of the serve wire protocol):

====================  =====================================================
``hello``             version pin + sharding self-check; replies scheme,
                      shard index, object count
``begin``             mirror a global top (``txn``); optional ``ts`` is
                      the global timestamp (MVTO orders by it so every
                      shard agrees on one serialization order)
``perform``           one access: ``txn``/``object``/``kind``/``args``/
                      ``read``; lazily mirrors missing ancestors
``commit``            commit a mirrored subtransaction (no-op if the
                      child never touched this shard)
``abort``             abort a mirrored subtree (no-op if unknown)
``prepare``           phase 1 of 2PC: validate the tree is active and
                      force the WAL durable (presumed abort: nothing is
                      logged for the prepare itself)
``decide``            phase 2 (and the single-shard fast path): commit
                      the local top; the engine logs COMMIT and flushes
``value``             committed (or current) object value
``stats``             engine + WAL counters
``shutdown``          close the WAL and exit after replying
====================  =====================================================
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.object_spec import Operation
from repro.errors import EngineError, LockDenied, RetryLater
from repro.kernel.registry import get_scheme
from repro.kernel.store import default_sharding
from repro.serve import protocol as proto
from repro.shard.link import decode_batch


@dataclass
class WorkerConfig:
    """Everything a spawn worker needs; must stay picklable."""

    shard: int
    shards: int
    scheme: str = "moss-rw"
    specs: List[Any] = field(default_factory=list)
    wal_dir: Optional[str] = None
    segment_bytes: Optional[int] = None
    wal_group_ms: Optional[float] = None
    #: Verify ``default_sharding`` routed every spec to this shard --
    #: the cross-process determinism pin (off for custom shardings).
    check_sharding: bool = True


class ShardWorker:
    """Dispatches worker-protocol messages onto a local engine."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.scheme = get_scheme(config.scheme)
        self.engine = self.scheme.build(config.specs)
        self.wal = None
        if config.wal_dir is not None and self.scheme.capabilities.durable:
            from repro.wal.log import (
                DEFAULT_SEGMENT_BYTES,
                FileWalSink,
                GroupCommitSink,
            )

            if config.wal_group_ms is not None:
                sink = GroupCommitSink(
                    config.wal_dir, window_ms=config.wal_group_ms
                )
            else:
                sink = FileWalSink(config.wal_dir)
            self.wal = self.engine.attach_wal(
                sink=sink,
                segment_bytes=(
                    config.segment_bytes
                    if config.segment_bytes is not None
                    else DEFAULT_SEGMENT_BYTES
                ),
            )
        #: global name tuple -> local Transaction handle
        self._nodes: Dict[Tuple[int, ...], Any] = {}
        #: global top ordinal -> every mirrored global name under it
        self._by_top: Dict[int, List[Tuple[int, ...]]] = {}
        #: local top slot -> global top name (blocker translation)
        self._local_tops: Dict[int, Tuple[int, ...]] = {}
        self._accepts_ts = (
            "ts" in inspect.signature(self.engine.begin_top).parameters
        )
        self._handlers = {
            "hello": self._op_hello,
            "begin": self._op_begin,
            "perform": self._op_perform,
            "commit": self._op_commit,
            "abort": self._op_abort,
            "prepare": self._op_prepare,
            "decide": self._op_decide,
            "value": self._op_value,
            "stats": self._op_stats,
        }
        if config.check_sharding:
            self._check_sharding()

    # ------------------------------------------------------------------
    # Boot checks
    # ------------------------------------------------------------------
    def _check_sharding(self) -> None:
        """Pin that CRC32 sharding is deterministic across processes.

        The coordinator routed these specs here with its own
        ``default_sharding``; recomputing in the spawned interpreter
        must agree, or reads would silently go to the wrong engine.
        """
        for spec in self.config.specs:
            index = default_sharding(spec.name, self.config.shards)
            if index != self.config.shard:
                raise EngineError(
                    "sharding disagrees across processes: %r -> %d "
                    "in the worker, %d per the coordinator"
                    % (spec.name, index, self.config.shard)
                )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request message in, one response message out."""
        request_id = message.get("id")
        handler = self._handlers.get(message.get("op"))
        if handler is None:
            return proto.error_response(
                request_id,
                proto.ERR_BAD_REQUEST,
                "unknown worker op %r" % (message.get("op"),),
            )
        try:
            return handler(request_id, message)
        except RetryLater as exc:
            return self._denial(request_id, exc, proto.ERR_RETRY_LATER)
        except LockDenied as exc:
            return self._denial(request_id, exc, proto.ERR_LOCK_DENIED)
        except Exception as exc:  # noqa: BLE001 - typed on the wire
            return proto.exception_to_error(request_id, exc)

    def handle_batch(self, data: bytes) -> Tuple[bytes, bool]:
        """One pipe message in, one out: the frames of *data* handled
        in order, their response frames concatenated.  The flag turns
        false at ``shutdown``, which ends the batch and the serving."""
        serving = True
        try:
            responses = []
            for message in decode_batch(data):
                if message.get("op") == "shutdown":
                    responses.append(proto.ok_response(message.get("id")))
                    serving = False
                    break
                responses.append(self.handle(message))
        except proto.ProtocolError as exc:
            responses = [
                proto.error_response(None, proto.ERR_BAD_FRAME, str(exc))
            ]
        return b"".join(map(proto.encode_frame, responses)), serving

    def _denial(self, request_id, exc, code) -> Dict[str, Any]:
        """A lock denial with blockers translated to global top names."""
        hint = getattr(exc, "retry_after_ms", None)
        return proto.error_response(
            request_id,
            code,
            str(exc),
            retry_after_ms=hint,
            blockers=self._translate_blockers(exc.blockers),
        )

    def _translate_blockers(self, blockers) -> List[Tuple[int, ...]]:
        seen = set()
        for blocker in blockers or ():
            top = self._local_tops.get(blocker[0])
            if top is not None:
                seen.add(top)
        return sorted(seen)

    # ------------------------------------------------------------------
    # Name mirroring
    # ------------------------------------------------------------------
    def _mirror(
        self,
        name: Tuple[int, ...],
        ts: Optional[int] = None,
        at: Optional[float] = None,
    ):
        """The local handle for global *name*, mirroring as needed."""
        node = self._nodes.get(name)
        if node is not None:
            return node
        if len(name) == 1:
            kwargs: Dict[str, Any] = {}
            if self._accepts_ts and ts is not None:
                kwargs["ts"] = ts
            node = self.engine.begin_top(at=at, **kwargs)
            self._by_top[name[0]] = [name]
            self._local_tops[node.name[0]] = name
        else:
            parent = self._mirror(name[:-1], ts=ts, at=at)
            node = parent.begin_child()
            self._by_top[name[0]].append(name)
        self._nodes[name] = node
        return node

    def _forgotten(self, request_id, name) -> Dict[str, Any]:
        """The answer for a request naming a tree no longer mirrored.

        Tops are only ever created by an explicit ``begin``; one that
        is missing was forgotten (the tree aborted or committed while
        this request raced it down the pipe -- a wound-wait abort from
        another coordinator thread, typically).  The coordinator
        surfaces the code as ``TransactionAborted``.
        """
        return proto.error_response(
            request_id,
            proto.ERR_TXN_ABORTED,
            "shard %d no longer mirrors tree %r "
            "(aborted or committed)" % (self.config.shard, name[:1]),
        )

    def _forget_top(self, ordinal: int) -> None:
        for name in self._by_top.pop(ordinal, ()):
            node = self._nodes.pop(name, None)
            if node is not None and len(name) == 1:
                self._local_tops.pop(node.name[0], None)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _op_hello(self, request_id, message) -> Dict[str, Any]:
        version = message.get("version")
        if version is not None and version != proto.PROTOCOL_VERSION:
            return proto.error_response(
                request_id,
                proto.ERR_VERSION,
                "worker speaks protocol %d, coordinator asked for %r"
                % (proto.PROTOCOL_VERSION, version),
            )
        return proto.ok_response(
            request_id,
            version=proto.PROTOCOL_VERSION,
            scheme=self.scheme.name,
            shard=self.config.shard,
            objects=len(self.config.specs),
            durable=self.wal is not None,
        )

    def _op_begin(self, request_id, message) -> Dict[str, Any]:
        name = proto.txn_name(message.get("txn"))
        if len(name) != 1:
            raise EngineError("begin mirrors top-level names only")
        self._mirror(name, ts=message.get("ts"), at=message.get("at"))
        return proto.ok_response(request_id)

    def _op_perform(self, request_id, message) -> Dict[str, Any]:
        name = proto.txn_name(message.get("txn"))
        object_name = message.get("object")
        if not isinstance(object_name, str):
            raise EngineError("perform needs an object name")
        if name[0] not in self._by_top:
            # Lazily re-beginning a forgotten top would plant a ghost
            # mirror whose locks nothing ever releases; refuse instead.
            return self._forgotten(request_id, name)
        node = self._mirror(name)
        operation = Operation(
            message.get("kind") or "read",
            proto.wire_args(message.get("args")),
            is_read=bool(message.get("read")),
        )
        value = node.perform(object_name, operation)
        return proto.ok_response(request_id, value=value)

    def _op_commit(self, request_id, message) -> Dict[str, Any]:
        name = proto.txn_name(message.get("txn"))
        if len(name) == 1:
            raise EngineError("top-level commits go through 2PC (decide)")
        node = self._nodes.get(name)
        if node is not None and node.is_active:
            node.commit()
        return proto.ok_response(request_id)

    def _op_abort(self, request_id, message) -> Dict[str, Any]:
        name = proto.txn_name(message.get("txn"))
        node = self._nodes.get(name)
        if node is not None and node.is_active:
            node.abort()
        if len(name) == 1:
            self._forget_top(name[0])
        return proto.ok_response(request_id)

    def _op_prepare(self, request_id, message) -> Dict[str, Any]:
        name = proto.txn_name(message.get("txn"))
        if len(name) != 1:
            raise EngineError("prepare takes a top-level name")
        node = self._nodes.get(name)
        if node is None:
            return self._forgotten(request_id, name)
        if not node.is_active:
            raise EngineError(
                "cannot prepare %r: tree is %s" % (name, node.status)
            )
        # Presumed abort: make every logged transition of the tree
        # durable, log nothing for the prepare itself.  A crash before
        # the decision leaves an active tree that recovery aborts.
        if self.wal is not None:
            self.wal.flush()
        # The local slot lets the coordinator's decision record name
        # this shard's WAL-visible top for recovery cross-checks.
        return proto.ok_response(request_id, local=node.name[0])

    def _op_decide(self, request_id, message) -> Dict[str, Any]:
        name = proto.txn_name(message.get("txn"))
        if len(name) != 1:
            raise EngineError("decide takes a top-level name")
        node = self._nodes.get(name)
        if node is None:
            return self._forgotten(request_id, name)
        node.commit()
        self._forget_top(name[0])
        return proto.ok_response(request_id)

    def _op_value(self, request_id, message) -> Dict[str, Any]:
        object_name = message.get("object")
        if not isinstance(object_name, str):
            raise EngineError("value needs an object name")
        value = self.engine.object_value(
            object_name, committed=bool(message.get("committed", True))
        )
        return proto.ok_response(request_id, value=value)

    def _op_stats(self, request_id, message) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "shard": self.config.shard,
            "engine": dict(self.engine.stats),
        }
        if self.wal is not None:
            payload["wal"] = dict(self.wal.stats)
        return proto.ok_response(request_id, stats=payload)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()


def worker_main(conn, config: WorkerConfig) -> None:
    """Process target: serve framed requests until the pipe closes.

    The coordinator pipe is the worker's lifeline -- EOF (coordinator
    exit or crash) means close the WAL and leave.  SIGKILL of the
    coordinator therefore never strands workers: their blocking
    ``recv_bytes`` raises and they exit through the same path (without
    the WAL close -- which is exactly the crash the per-shard recovery
    path replays).
    """
    try:
        worker = ShardWorker(config)
    except Exception as exc:  # noqa: BLE001 - boot errors go on the wire
        try:
            conn.send_bytes(
                proto.encode_frame(proto.exception_to_error(None, exc))
            )
        except (OSError, ValueError, BrokenPipeError):
            pass
        conn.close()
        return
    try:
        serving = True
        while serving:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            reply, serving = worker.handle_batch(data)
            try:
                conn.send_bytes(reply)
            except (OSError, ValueError, BrokenPipeError):
                break
    finally:
        worker.close()
        try:
            conn.close()
        except OSError:
            pass
