"""The write-ahead log: segmented append-only sinks plus the writer.

A :class:`WriteAheadLog` is attached to an engine
(:meth:`repro.engine.engine.Engine.attach_wal`) and receives one call
per durable transition -- begin, granted access, commit boundary,
abort boundary.  It frames each event as a CRC-checked record
(:mod:`repro.wal.records`), appends it to the active segment of its
*sink*, and rolls to a new segment (with a fresh segment header) when
the active one exceeds ``segment_bytes``.

Two sinks ship:

* :class:`MemoryWalSink` -- a list of ``bytearray`` segments; the
  default, used by the crash-fuzzing harness (truncating a byte string
  simulates a crash) and by the overhead benchmark;
* :class:`FileWalSink` -- one ``wal-NNNNNNNN.seg`` file per segment in
  a directory; ``flush`` does ``flush`` + ``os.fsync`` so a flushed
  prefix survives a process (or machine) crash.

The writer is internally locked: under the striped thread-safe facade
two performs on different stripes may append concurrently, and the
append order then *is* the log's serialization of those transitions
(concurrent transitions never conflict -- same-object and same-tree
transitions are already ordered by the facade's locks, so any append
interleaving of the rest replays to the same state).

Observability: with an observer attached the writer counts
``wal.append`` (labelled by record kind), ``wal.flush``, ``wal.fsync``
and ``wal.segment_roll``, and feeds the ``wal.append_bytes``
histogram -- see ``docs/OBSERVABILITY.md`` for the catalogue idiom.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import Any, Dict, List, Tuple

from repro.core.framing import frame
from repro.errors import EngineError
from repro.wal import records as rec

#: Default segment size before rolling to a new one.
DEFAULT_SEGMENT_BYTES = 64 * 1024


class _Templates(dict):
    """``depth -> body template`` for one record kind, built on first use.

    A template is ``prefix + b"%d,%d,...,%d" + suffix`` with one
    ``%d`` per part of the transaction name.  ``bytes % int`` renders
    the same decimal digits as ``json.dumps``, so for plain-int names
    the output is byte-identical to :func:`repro.wal.records.
    encode_record`, the reference encoder -- pinned for every depth by
    ``tests/wal/test_format.py::TestWriterMatchesEncodeRecord``.
    """

    def __init__(self, prefix: bytes, suffix: bytes):
        super().__init__()
        self._prefix = prefix
        self._suffix = suffix

    def __missing__(self, depth: int) -> bytes:
        template = self[depth] = (
            self._prefix + b",".join([b"%d"] * depth) + self._suffix
        )
        return template


#: ``kind{"lsn":L,"txn":[...]}`` -- filled with ``(lsn, *name)``.
_TXN_TEMPLATES = {
    kind: _Templates(bytes((kind,)) + b'{"lsn":%d,"txn":[', b"]}")
    for kind in (rec.BEGIN, rec.COMMIT, rec.ABORT)
}

#: ``\x02{"access":[...],"gen":G,"lsn":L,`` -- filled with
#: ``(*access, generation, lsn)``; the ``"object"``/``"op"`` tail
#: follows.
_ACQUIRE_HEADS = _Templates(
    bytes((rec.ACQUIRE,)) + b'{"access":[', b'],"gen":%d,"lsn":%d,'
)

#: Rendered ACQUIRE tails keyed by ``(id(operation), object_name)``, in
#: front of the by-value cache of :func:`repro.wal.records.
#: acquire_tail`.  The identity key makes the lookup pure C (a frozen
#: dataclass ``__hash__`` is a Python frame); the cached entry holds
#: the operation so its id cannot be recycled while cached, and the
#: ``is`` check keeps correctness independent of that lifetime
#: argument.
_TAILS: Dict[Tuple[int, str], Tuple[Any, bytes]] = {}
_TAILS_LIMIT = 4096


class MemoryWalSink:
    """Append-only segments kept in memory.

    Frames are held unconcatenated (one list entry per append) so the
    hot path never copies; ``getvalue`` joins on demand.
    """

    #: Nothing to fsync: the writer skips ``flush`` calls entirely.
    DURABLE = False

    def __init__(self):
        self._frames: List[List[bytes]] = [[]]
        self._active = self._frames[0]
        # The instance attribute shadows nothing: ``append`` IS the
        # active segment's ``list.append``, re-bound on roll.
        self.append = self._active.append

    def roll(self) -> None:
        self._active = []
        self._frames.append(self._active)
        self.append = self._active.append

    def flush(self) -> int:
        """No durability to add; returns the number of fsyncs (0)."""
        return 0

    def active_size(self) -> int:
        return sum(len(data) for data in self._active)

    @property
    def segments(self) -> List[bytes]:
        """The segments as byte strings (joined on access)."""
        return [b"".join(frames) for frames in self._frames]

    def getvalue(self) -> bytes:
        """The whole log as one byte string (segments concatenated)."""
        return b"".join(
            data for frames in self._frames for data in frames
        )

    def close(self) -> None:
        pass


class FileWalSink:
    """One file per segment in *directory*; flush fsyncs the active file."""

    #: ``flush`` buys real durability (fsync); the writer must call it.
    DURABLE = True

    #: Segment file name pattern; sorting file names sorts segments.
    PATTERN = "wal-%08d.seg"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._index = 0
        self._handle = open(self._path(self._index), "wb")
        self._active_size = 0

    def _path(self, index: int) -> str:
        return os.path.join(self.directory, self.PATTERN % index)

    def append(self, data: bytes) -> None:
        self._handle.write(data)
        self._active_size += len(data)

    def roll(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._index += 1
        self._handle = open(self._path(self._index), "wb")
        self._active_size = 0

    def flush(self) -> int:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        return 1

    def active_size(self) -> int:
        return self._active_size

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()


class GroupCommitSink(FileWalSink):
    """A :class:`FileWalSink` that coalesces fsyncs across flushers.

    Plain ``FileWalSink`` pays one fsync per top-level commit.  Under
    many concurrent committers (the async service, the sharded
    coordinator's decision log) most of those fsyncs cover each other:
    any fsync that happens after an append makes it durable.  This
    sink runs one background syncer thread; ``flush`` becomes *take a
    ticket for everything appended so far, wake the syncer, wait until
    a group fsync covers the ticket*.  Committers whose tickets land
    within ``window_ms`` of each other share one fsync.

    The split API lets callers wait without holding their own locks:

    * :meth:`flush_begin` -- snapshot the ticket and nudge the syncer
      (cheap; safe under a lock);
    * :meth:`flush_wait` -- block until the ticket is durable (call
      *outside* the lock so other committers can reach their own
      ``flush_begin`` and join the group).

    Appends must be externally serialized (they are: the WAL writer's
    lock, or the decision log's), exactly as for ``FileWalSink``.
    ``flush``/``roll``/``close`` stay synchronous and durable, so the
    sink is a drop-in replacement.
    """

    #: Default coalescing window (milliseconds).
    DEFAULT_WINDOW_MS = 2.0

    def __init__(self, directory: str, window_ms: float = DEFAULT_WINDOW_MS):
        super().__init__(directory)
        self._window_s = max(0.0, float(window_ms)) / 1000.0
        self._cv = threading.Condition()
        self._seq = 0  # appends so far (the ticket source)
        self._synced = 0  # highest ticket covered by a finished fsync
        self._fsyncs = 0
        self._stopping = False
        self._syncer = threading.Thread(
            target=self._sync_loop,
            name="repro-wal-group-sync",
            daemon=True,
        )
        self._syncer.start()

    @property
    def fsync_count(self) -> int:
        """Fsyncs actually issued (the writer reports this figure)."""
        return self._fsyncs

    def append(self, data: bytes) -> None:
        super().append(data)
        # The write above happens-before this publish, so a ticket
        # equal to the new _seq covers it.
        self._seq += 1

    def flush_begin(self) -> int:
        """Snapshot the durability target and wake the syncer."""
        with self._cv:
            ticket = self._seq
            self._cv.notify_all()
        return ticket

    def flush_wait(self, ticket: int) -> None:
        """Block until a group fsync has covered *ticket*."""
        with self._cv:
            while self._synced < ticket:
                if self._stopping:
                    self._sync_locked(ticket)
                    return
                self._cv.wait()

    def flush(self) -> int:
        """Synchronous durable flush; returns fsyncs newly issued."""
        before = self._fsyncs
        self.flush_wait(self.flush_begin())
        return max(0, self._fsyncs - before)

    def roll(self) -> None:
        # Swap segments under the condition variable so the syncer
        # never fsyncs a mid-swap handle.
        with self._cv:
            self._sync_locked(self._seq)
            super().roll()

    def close(self) -> None:
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        self._syncer.join(timeout=5.0)
        super().close()

    def _sync_locked(self, target: int) -> None:
        """One flush+fsync covering *target*; caller holds the cv."""
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except ValueError:
            return  # closed underneath us (shutdown race)
        self._fsyncs += 1
        if target > self._synced:
            self._synced = target
        self._cv.notify_all()

    def _sync_loop(self) -> None:
        cv = self._cv
        while True:
            with cv:
                while self._synced >= self._seq:
                    if self._stopping:
                        return
                    cv.wait()
                if self._window_s and not self._stopping:
                    # Let more committers reach flush_begin and share
                    # the fsync about to happen.
                    cv.wait(self._window_s)
                self._sync_locked(self._seq)


def read_log_bytes(path: str) -> bytes:
    """Read a log back as one byte string.

    *path* may be a single log file or a :class:`FileWalSink`
    directory; segment files concatenate in name order (the writer
    numbers them monotonically).
    """
    if os.path.isdir(path):
        parts = []
        for name in sorted(os.listdir(path)):
            if name.startswith("wal-") and name.endswith(".seg"):
                with open(os.path.join(path, name), "rb") as handle:
                    parts.append(handle.read())
        if not parts:
            raise EngineError("no wal-*.seg segments under %r" % path)
        return b"".join(parts)
    with open(path, "rb") as handle:
        return handle.read()


class WriteAheadLog:
    """Frames engine transitions into an append-only segmented log.

    Parameters
    ----------
    sink:
        A :class:`MemoryWalSink` (default) or :class:`FileWalSink`.
    segment_bytes:
        Roll to a new segment (writing a fresh header) once the active
        segment exceeds this size.
    observer:
        Optional :class:`repro.obs.Observer`; receives the ``wal.*``
        counters and histograms through its generic instruments.
    """

    def __init__(
        self,
        sink=None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        observer=None,
    ):
        if segment_bytes < 1:
            raise EngineError(
                "segment_bytes must be >= 1, got %d" % segment_bytes
            )
        self.sink = sink if sink is not None else MemoryWalSink()
        self.segment_bytes = segment_bytes
        self.obs = observer
        self._lock = threading.Lock()
        # Bound methods: the event API runs per engine transition and
        # a ``with`` block (plus a layer of dispatch) costs a
        # surprising amount next to ~2us of encoding work.
        self._acquire_lock = self._lock.acquire
        self._release_lock = self._lock.release
        self._sink_append = self.sink.append
        # One body for the three transaction-boundary records, bound
        # per kind (a C-level partial, not a wrapper frame).
        self.log_begin = partial(
            self._log_txn, rec.BEGIN, _TXN_TEMPLATES[rec.BEGIN]
        )
        self.log_commit = partial(
            self._log_txn, rec.COMMIT, _TXN_TEMPLATES[rec.COMMIT]
        )
        self.log_abort = partial(
            self._log_txn, rec.ABORT, _TXN_TEMPLATES[rec.ABORT]
        )
        self._lsn = 0
        self._segment = 0
        self._opened = False
        self._closed = False
        self._writable = False  # opened and not closed
        self._scheme = ""
        self._objects: List[Tuple[str, str]] = []
        # Hot-path counters are plain ints (``stats`` builds the dict
        # on demand); the writer tracks the active segment size itself
        # so appends skip a sink call.
        self._active_bytes = 0
        self._n_appends = 0
        self._n_bytes = 0
        self._n_flushes = 0
        self._n_fsyncs = 0
        self._n_rolls = 0

    @property
    def stats(self) -> Dict[str, int]:
        """Writer counters (appends, bytes, flushes, fsyncs, rolls)."""
        return {
            "appends": self._n_appends,
            "bytes": self._n_bytes,
            "flushes": self._n_flushes,
            "fsyncs": self._n_fsyncs,
            "segment_rolls": self._n_rolls,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def lsn(self) -> int:
        """The last assigned log sequence number (0 = nothing logged)."""
        return self._lsn

    def open(self, scheme: str, specs) -> None:
        """Write the first segment header; called by ``attach_wal``.

        *specs* are the engine's object specs; their names and ADT
        class names go into the header so a log is self-describing
        (``repro recover`` rebuilds the store from it).  Idempotent
        for the same scheme; re-opening for a different engine is an
        error -- one log describes one engine's history.
        """
        with self._lock:
            objects = [
                (spec.name, type(spec).__name__) for spec in specs
            ]
            if self._opened:
                if self._scheme != scheme or self._objects != objects:
                    raise EngineError(
                        "write-ahead log already opened for scheme %r"
                        % self._scheme
                    )
                return
            self._scheme = scheme
            self._objects = objects
            self._opened = True
            self._writable = True
            self._append_header_locked()

    def close(self) -> None:
        """Flush and close the sink (further appends are errors)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._writable = False
            self.sink.flush()
            self.sink.close()

    # ------------------------------------------------------------------
    # Event API (called by the engine under its own locks)
    #
    # ``log_begin`` / ``log_commit`` / ``log_abort`` are ``_log_txn``
    # bound per kind in ``__init__``.  The two bodies are deliberately
    # flat: render, frame, append and count with one call
    # (``framing.frame``) and no wrapper frames.  The calls arrive
    # interleaved with ~60us of engine work per transaction, so every
    # extra Python frame executes cold and costs several times its
    # tight-loop price; the perf ladder reads the whole path as
    # ``wal.encode_us_per_txn`` and ``logged_txn_per_s``.  A name with
    # a part that is not a plain ``int`` (``%d`` would render ``True``
    # as ``1``) goes to the reference encoder.  The LSN is assigned
    # only once the frame is built, so a record that cannot be encoded
    # (``WalFormatError``) leaves no gap.
    # ------------------------------------------------------------------
    def _log_txn(self, kind: int, templates: _Templates, name) -> None:
        self._acquire_lock()
        try:
            if not self._writable:
                self._refuse_locked()
            lsn = self._lsn + 1
            for part in name:
                if type(part) is not int:
                    data = rec.encode_record(
                        kind, {"lsn": lsn, "txn": rec.name_to_wire(name)}
                    )
                    break
            else:
                data = frame(templates[len(name)] % (lsn, *name))
            self._lsn = lsn
            self._sink_append(data)
            size = len(data)
            self._n_appends += 1
            self._n_bytes += size
            active = self._active_bytes = self._active_bytes + size
            obs = self.obs
            if obs is not None:
                obs.count("wal.append", kind=rec.KIND_NAMES[kind])
                obs.observe("wal.append_bytes", float(size))
            if active >= self.segment_bytes:
                self._roll_locked()
        finally:
            self._release_lock()

    def log_acquire(
        self, access, object_name: str, operation, generation: int
    ) -> None:
        self._acquire_lock()
        try:
            if not self._writable:
                self._refuse_locked()
            lsn = self._lsn + 1
            for part in access:
                if type(part) is not int:
                    data = rec.encode_record(
                        rec.ACQUIRE,
                        rec.acquire_payload(
                            lsn, access, object_name, operation, generation
                        ),
                    )
                    break
            else:
                entry = _TAILS.get((id(operation), object_name))
                if entry is not None and entry[0] is operation:
                    tail = entry[1]
                else:
                    tail = rec.acquire_tail(object_name, operation)
                    if len(_TAILS) < _TAILS_LIMIT:
                        _TAILS[(id(operation), object_name)] = (
                            operation,
                            tail,
                        )
                data = frame(
                    _ACQUIRE_HEADS[len(access)]
                    % (*access, generation, lsn)
                    + tail
                )
            self._lsn = lsn
            self._sink_append(data)
            size = len(data)
            self._n_appends += 1
            self._n_bytes += size
            active = self._active_bytes = self._active_bytes + size
            obs = self.obs
            if obs is not None:
                obs.count("wal.append", kind="acquire")
                obs.observe("wal.append_bytes", float(size))
            if active >= self.segment_bytes:
                self._roll_locked()
        finally:
            self._release_lock()

    def flush(self) -> None:
        """Force the log durable (top-level commits are flush points)."""
        waiter = self.flush_async()
        if waiter is not None:
            waiter()

    def flush_async(self):
        """Take a flush ticket now; return a waiter to call later.

        The seam group commit needs: callers holding coarse locks (the
        thread-safe facade commits under its mutex plus stripe set) take
        the ticket *inside* the critical section -- it covers every
        append made so far -- and run the returned waiter *after*
        releasing their locks, so concurrent committers' waits overlap
        and share one fsync.  The wait happens outside the writer's
        lock too, for the same reason.  With a plain (non-group) sink
        there is nothing to overlap; the flush happens inline here and
        ``None`` is returned.
        """
        sink = self.sink
        flush_begin = getattr(sink, "flush_begin", None)
        fsyncs = 0
        self._acquire_lock()
        try:
            self._n_flushes += 1
            if flush_begin is not None:
                ticket = flush_begin()
            elif getattr(sink, "DURABLE", True):
                # A non-durable sink (``DURABLE = False``) has nothing
                # to add; unknown sinks are flushed to be safe.
                fsyncs = sink.flush()
                self._n_fsyncs += fsyncs
        finally:
            self._release_lock()
        if flush_begin is None:
            self._count_flush(fsyncs)
            return None

        def waiter() -> None:
            sink.flush_wait(ticket)
            fsyncs = 0
            self._acquire_lock()
            try:
                issued = sink.fsync_count
                if issued > self._n_fsyncs:
                    fsyncs = issued - self._n_fsyncs
                    self._n_fsyncs = issued
            finally:
                self._release_lock()
            self._count_flush(fsyncs)

        return waiter

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _count_flush(self, fsyncs: int) -> None:
        obs = self.obs
        if obs is not None:
            obs.count("wal.flush")
            if fsyncs:
                obs.count("wal.fsync", fsyncs)

    def _append_header_locked(self) -> None:
        """Write the active segment's SEGMENT header (never rolls)."""
        lsn = self._lsn + 1
        data = rec.encode_record(
            rec.SEGMENT,
            rec.segment_payload(
                lsn, self._segment, self._scheme, self._objects
            ),
        )
        self._lsn = lsn
        self._sink_append(data)
        size = len(data)
        self._n_appends += 1
        self._n_bytes += size
        self._active_bytes += size
        obs = self.obs
        if obs is not None:
            obs.count("wal.append", kind="segment")
            obs.observe("wal.append_bytes", float(size))

    def _refuse_locked(self) -> None:
        if self._closed:
            raise EngineError("write-ahead log is closed")
        raise EngineError(
            "write-ahead log not opened; attach it to an engine"
        )

    def _roll_locked(self) -> None:
        self.sink.flush()
        self.sink.roll()
        self._sink_append = self.sink.append
        self._segment += 1
        self._active_bytes = 0
        self._n_rolls += 1
        obs = self.obs
        if obs is not None:
            obs.count("wal.segment_roll")
        self._append_header_locked()
