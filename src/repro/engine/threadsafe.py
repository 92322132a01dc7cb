"""A thread-safe facade over any registered scheme, with blocking waits.

The core engines are deliberately single-threaded and non-blocking (the
simulator supplies concurrency).  Applications that want to drive one
engine from several Python threads wrap it in :class:`ThreadSafeEngine`,
built for any scheme in the kernel registry
(:func:`repro.kernel.get_scheme`): :meth:`ThreadSafeTransaction.perform`
*blocks* on conflicts, with wound-wait deadlock resolution (older
transaction wins, younger restarts via
:class:`~repro.errors.TransactionAborted`).

Locking
-------

One :class:`threading.Lock` is held for every engine transition: begin,
access, commit, abort and wound.  A denied ``perform`` parks on a
condition of the *object* it was denied (created the first time anyone
waits there, sharing the one lock), and every access first records its
object in its top-level tree's touched set.  A commit, abort or wound
notifies only the conditions of the objects the finishing tree touched
-- the only objects whose locks it can have released -- so a grant
wakes nobody and a release wakes only plausible waiters.  Because the
denial and the wait happen under the same lock, no release can slip
between them.  A ``perform`` that aborts its own tree (an MVTO
timestamp conflict) wakes that tree's objects the same way.  A single
transaction *handle* must be driven by one thread at a time (handles
are not internally locked); object values, commit counts and the
engine's ``stats`` are exact.

Scheduler hooks
---------------

The deterministic concurrency fuzzer (:mod:`repro.fuzz`) needs to own
the interleaving of worker threads, so the facade exposes *yield-point
hooks*: when :meth:`ThreadSafeEngine.install_hooks` has installed a
controller, every access, commit and abort first yields to it, and
denied accesses park on conditions it makes; blocking, wounds and
targeted wakes otherwise run the path above.  The hooks object is
duck-typed; it must provide::

    yield_point(kind, txn_name, detail)   # "acquire"/"denied"/"commit"/"abort"
    inject_deny(txn_name, object_name) -> bool     # fault injection point
    condition(object_name, lock) -> Condition      # wait/notify_all on lock

Nothing yields while the mutex is held (a controlled ``wait``
releases it, like any condition's).  With no hooks installed (the
default) the hot path pays a single attribute load.

Lock waits (timed with :func:`time.perf_counter`), wounds and abort
causes are facade knowledge, reported with the spine's ``note``.
"""

from __future__ import annotations

import math
import threading
import time
from time import perf_counter
from typing import Any, Dict, Iterable, Optional, Set

from repro.core.names import TransactionName
from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.deadlock import wound_victims
from repro.engine.spine import Tagged, Waited, Wounded
from repro.engine.transaction import Transaction, TransactionStatus
from repro.errors import (
    InvalidTransactionState,
    LockDenied,
    RetryLater,
    TransactionAborted,
)
from repro.kernel import get_scheme


def _raise_if_aborted(inner: Transaction) -> None:
    """Raise the wound contract's error for a dead handle; mutex held.

    A wound or :meth:`ThreadSafeEngine.abort_top` kills a tree while
    its owner is between calls, so the owner's next call finds the
    handle aborted and the engine raises ``InvalidTransactionState``.
    That is not handle misuse: report it as
    :class:`~repro.errors.TransactionAborted`.  Called on exception
    paths only.
    """
    if inner.status is TransactionStatus.ABORTED:
        raise TransactionAborted(
            inner.name, reason="aborted before this call"
        ) from None


def _timeout_denial(object_name: str, denial: LockDenied) -> LockDenied:
    """The exception a timed-out blocking wait raises.

    Preserves the :class:`~repro.errors.RetryLater` subtype (and its
    ``retry_after_ms`` hint) when the underlying denial was an ordered
    wait, so remote callers keep the never-a-deadlock signal and the
    backoff hint across the facade's timeout translation.
    """
    if isinstance(denial, RetryLater):
        return RetryLater(
            "timed out waiting for %r" % object_name,
            blockers=denial.blockers,
            retry_after_ms=denial.retry_after_ms,
        )
    return LockDenied(
        "timed out waiting for %r" % object_name,
        blockers=denial.blockers,
    )


class ThreadSafeTransaction:
    """A handle bound to a :class:`ThreadSafeEngine`.

    A handle may move between threads, but must be driven by one thread
    at a time; handles carry no internal lock of their own.
    """

    def __init__(self, facade: "ThreadSafeEngine", inner: Transaction):
        self._facade = facade
        self._inner = inner

    @property
    def name(self):
        # Immutable after construction, safe to read without the lock.
        return self._inner.name  # repro-lint: ignore[CD002]

    @property
    def is_active(self) -> bool:
        # Status is written only under the mutex.
        with self._facade._mutex:
            return self._inner.is_active

    @property
    def status(self) -> TransactionStatus:
        """The current status (a dead handle may have been wounded)."""
        with self._facade._mutex:
            return self._inner.status

    def begin_child(self) -> "ThreadSafeTransaction":
        with self._facade._mutex:
            try:
                child = self._inner.begin_child()
            except InvalidTransactionState:
                _raise_if_aborted(self._inner)
                raise
        return ThreadSafeTransaction(self._facade, child)

    def perform(
        self,
        object_name: str,
        operation: Operation,
        timeout: Optional[float] = None,
    ) -> Any:
        """Run one access, blocking while conflicting locks are held.

        Raises :class:`~repro.errors.TransactionAborted` when this
        transaction's tree was wounded or ``abort_top``-ed (before
        the call or while it waited), and
        :class:`~repro.errors.LockDenied` on timeout.  *timeout* bounds
        the **total** blocking time of the call (a monotonic deadline),
        not each individual wait.
        """
        return self._facade._perform_blocking(
            self._inner, object_name, operation, timeout
        )

    def commit(self, value: Any = None) -> None:
        self._facade._finish(self._inner, "commit", value)

    def abort(self) -> None:
        self._facade._finish(self._inner, "abort", None)

    def __enter__(self) -> "ThreadSafeTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self.is_active:
                self.commit()
        else:
            if self.is_active:
                self.abort()
        return False


class ThreadSafeEngine:
    """Blocking, wound-wait facade over a registered kernel scheme.

    Parameters
    ----------
    specs:
        The object specifications making up the store.
    policy:
        Anything :func:`repro.kernel.get_scheme` resolves: a registered
        scheme name (``"moss-rw"``, ``"mvto"``, ...), a
        :class:`~repro.engine.policies.LockingPolicy` instance, or a
        :class:`~repro.kernel.registry.Scheme`.
    trace / trace_limit:
        Passed to the scheme factory.
    observer:
        Optional :class:`repro.obs.Observer`, subscribed to the
        engine's event spine.
    stripes:
        Accepted for compatibility only: ``None`` or ``0``, both of
        which mean the one mutex.  Anything else raises
        :class:`ValueError`.
    """

    def __init__(
        self,
        specs: Iterable[ObjectSpec],
        policy="moss-rw",
        trace: bool = False,
        trace_limit: Optional[int] = None,
        observer=None,
        stripes: Optional[int] = None,
    ):
        if stripes:
            raise ValueError(
                "the facade has one locking regime; stripes=%r is not "
                "supported (pass None or 0)" % (stripes,)
            )
        self.scheme = get_scheme(policy)
        self._engine = self.scheme.build(
            list(specs),
            observer=observer,
            trace=trace,
            trace_limit=trace_limit,
        )
        self._mutex = threading.Lock()
        # Object name -> the condition its waiters park on, created on
        # first denial; every one shares `_mutex`.
        self._waiting: Dict[str, threading.Condition] = {}
        self._hooks = None
        # Objects each live top-level tree has performed on, recorded
        # before the engine transition runs.  A tree can hold or
        # release locks only on these, so its commits, aborts and
        # wounds notify just their conditions.
        self._touched: Dict[TransactionName, Set[str]] = {}

    @property
    def engine(self):
        """The wrapped engine (synchronise access yourself)."""
        return self._engine

    @property
    def capabilities(self):
        """The wrapped scheme's capability flags."""
        return self.scheme.capabilities

    def attach_auditor(self, auditor=None, config=None):
        """Subscribe an online serializability auditor; returns it.

        Delegates to the engine's
        :meth:`~repro.engine.spine.Spine.attach_auditor`; the default
        config comes from the scheme's capability flags (the trust
        dial).  Attach before starting worker threads.
        """
        with self._mutex:
            return self._engine.attach_auditor(auditor, config)

    def attach_wal(self, wal=None, sink=None, segment_bytes=None):
        """Attach a write-ahead log to the wrapped engine; returns it.

        Mirrors :meth:`repro.engine.engine.TreeEngine.attach_wal`
        (capability-gated on ``capabilities.durable``).  Attach before
        starting worker threads.
        """
        with self._mutex:
            attached = self._engine.attach_wal(
                wal=wal, sink=sink, segment_bytes=segment_bytes
            )
            # Group-commit sinks coalesce fsyncs across concurrent
            # committers, but only if their flush *waits* overlap --
            # impossible inside this facade's commit locks.  Defer:
            # the engine tickets the flush during commit and the
            # facade awaits it after releasing its locks.
            if hasattr(getattr(attached, "sink", None), "flush_begin"):
                self._engine.wal_defers = True
            return attached

    def install_hooks(self, hooks) -> None:
        """Install (or clear, with ``None``) the scheduler hooks.

        Install hooks before starting worker threads.
        """
        self._hooks = hooks

    def begin_top(self) -> ThreadSafeTransaction:
        with self._mutex:
            inner = self._engine.begin_top()
        return ThreadSafeTransaction(self, inner)

    def abort_top(self, name, cause: Optional[str] = None) -> bool:
        """Idempotently abort the top-level tree containing *name*.

        Safe to call from any thread, including one that does not own
        the transaction's handle -- the session reaper of the network
        front-end (:mod:`repro.serve`) uses it to clean up after
        disconnected clients.  *name* is a transaction name tuple (any
        member of the tree; its top-level ancestor is the victim).

        Returns True when an active tree was aborted, False when the
        name is unknown or the tree already finished -- double aborts
        and abort-after-commit races are no-ops, never errors.  The
        owning thread's next engine call on an aborted handle raises
        :class:`~repro.errors.TransactionAborted` (same contract as a
        wound).  ``cause`` optionally tags the abort for the observer's
        ``txn.abort`` cause label.
        """
        top = tuple(name)[:1]
        if not top:
            return False
        waiter = None
        try:
            with self._mutex:
                engine = self._engine  # repro-lint: ignore[CD002]
                victim = engine.transactions.get(top)
                if victim is None or not victim.is_active:
                    return False
                if cause is not None:
                    engine.note(Tagged, top, cause)
                try:
                    victim.abort()
                finally:
                    waiter = self._pop_pending_flush()
                    self._wake(top, retire=True)
                return True
        finally:
            if waiter is not None:
                waiter()

    def object_value(self, object_name: str) -> Any:
        with self._mutex:
            return self._engine.object_value(object_name)

    # ------------------------------------------------------------------
    # Commit, abort and wakeups
    # ------------------------------------------------------------------
    def _wake(self, top, retire: bool) -> None:
        """Notify the waiters on every object tree *top* touched; locked.

        *retire* drops the tree's touched set (it has finished, so it
        holds nothing more to release).  A live tree keeps it: a child
        commit moves locks to the mother, which can unblock relatives
        waiting on the same objects, and later releases need the set.
        """
        touched = (
            self._touched.pop(top, None)
            if retire
            else self._touched.get(top)
        )
        if touched:
            waiting = self._waiting
            for object_name in touched:
                cond = waiting.get(object_name)
                if cond is not None:
                    cond.notify_all()

    def _apply_finish(
        self, inner: Transaction, action: str, value: Any
    ) -> bool:
        """Commit/abort *inner*; runs under the mutex.

        A wound can abort *inner* while its driving thread is between
        calls (e.g. holding locks across I/O before commit), so the
        facade translates that race instead of leaking
        ``InvalidTransactionState``: committing a wounded transaction
        raises :class:`~repro.errors.TransactionAborted`, aborting one
        is an idempotent no-op.  Returns True when lock state changed.
        """
        if inner.status is TransactionStatus.ABORTED:
            if action == "abort":
                return False
            raise TransactionAborted(
                inner.name, reason="aborted before it could commit"
            )
        if action == "commit":
            inner.commit(value)
        else:
            inner.abort()
        return True

    def _pop_pending_flush(self):
        """Pop the engine's deferred-flush waiter; mutex held.

        Must run inside the same locked section as the finish that
        ticketed it -- a pop after the lock releases could steal a
        *later* committer's waiter and leave that commit acknowledged
        before its fsync.  Waiters left un-popped (a wound-path abort
        whose slot a later finish overwrites) are harmless: the group
        sink's syncer services every ticket whether or not anyone
        waits on it.
        """
        waiter = self._engine.pending_flush  # repro-lint: ignore[CD002]
        if waiter is not None:
            self._engine.pending_flush = None  # repro-lint: ignore[CD002]
        return waiter

    def _finish(self, inner: Transaction, action: str, value: Any) -> None:
        """Commit or abort *inner*, waking the waiters it may release."""
        # Names are immutable after construction.
        name = inner.name  # repro-lint: ignore[CD002]
        hooks = self._hooks
        if hooks is not None:
            hooks.yield_point(action, name, None)
        waiter = None
        try:
            with self._mutex:
                changed = True
                try:
                    changed = self._apply_finish(inner, action, value)
                finally:
                    # A finish that raised may have moved locks before
                    # it failed, so it wakes too.  Only a top that
                    # really ended retires its touched set; a failed
                    # one (live children, say) keeps its locks.
                    waiter = self._pop_pending_flush()
                    if changed:
                        self._wake(
                            name[:1],
                            retire=len(name) == 1 and not inner.is_active,
                        )
        finally:
            # Await the group fsync *outside* the lock, so concurrent
            # committers' waits overlap and share one fsync.
            if waiter is not None:
                waiter()

    # ------------------------------------------------------------------
    # Blocking access with wound-wait
    # ------------------------------------------------------------------
    def _wound(self, txn: Transaction, denial: LockDenied) -> bool:
        """Abort every younger top-level blocking *txn*; mutex held.

        Returns True when at least one victim was wounded (the caller
        should retry immediately rather than wait).  Victims come from
        :func:`~repro.engine.deadlock.wound_victims` over the handles'
        ``age``; a tree the engine forgot (a stale denial) ranks oldest.
        """
        engine = self._engine  # repro-lint: ignore[CD002]
        table = engine.transactions
        my_top = txn.name[:1]
        wounded = False
        for target in wound_victims(
            my_top,
            sorted(denial.blockers),
            lambda top: table[top].age if top in table else -math.inf,
        ):
            victim = table[target]
            if victim.is_active:
                # Tag the cause before the abort transition.
                engine.note(Wounded, target, my_top)
                victim.abort()
                # Wakes the victim's own thread too, if it is
                # parked: its object is in the victim's set.
                self._wake(target, retire=True)
                wounded = True
        return wounded

    def _waited(
        self, txn: Transaction, object_name: str, started: float
    ) -> None:
        """Report one finished wait through the spine; mutex held."""
        self._engine.note(  # repro-lint: ignore[CD002]
            Waited, txn.name, object_name, started, perf_counter()
        )

    def _perform_failed(self, top, exc: Exception) -> None:
        """Clean up after ``perform`` raised *exc*; mutex held.

        If the tree is dead (wounded, ``abort_top``-ed, or aborted by
        ``perform`` itself), the engine has forgotten it, and the touch
        just recorded must not outlive it.  A tree that ``perform``
        aborted (an MVTO timestamp conflict) has no commit or abort
        call to follow, yet it shed its pending writes -- only on the
        objects it performed on -- so their waiters are woken here,
        as after a wound.
        """
        engine = self._engine  # repro-lint: ignore[CD002]
        if top not in engine.transactions:
            if isinstance(exc, TransactionAborted):
                self._wake(top, retire=True)
            else:
                self._touched.pop(top, None)

    def _perform_blocking(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
        timeout: Optional[float],
    ) -> Any:
        # Names are immutable after construction.
        name = txn.name  # repro-lint: ignore[CD002]
        hooks = self._hooks
        if hooks is not None:
            # Yield outside the mutex: the next worker may need it.
            hooks.yield_point("acquire", name, object_name)
            while hooks.inject_deny(name, object_name):
                hooks.yield_point("denied", name, object_name)
                hooks.yield_point("acquire", name, object_name)
        top = name[:1]
        deadline: Optional[float] = None
        wait_started: Optional[float] = None
        with self._mutex:
            # Record the touch before the attempt: once the tree can
            # hold a lock here, its commits and aborts must wake this
            # object's waiters -- including this thread, should its
            # own tree be wounded while it is parked.
            touched = self._touched.get(top)
            if touched is None:
                touched = self._touched[top] = set()
            touched.add(object_name)
            while True:
                try:
                    result = txn.perform(object_name, operation)
                except LockDenied as denial:
                    if wait_started is None:
                        wait_started = perf_counter()
                        if timeout is not None:
                            deadline = time.monotonic() + timeout
                    if self._wound(txn, denial):
                        continue
                    remaining: Optional[float] = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            self._waited(txn, object_name, wait_started)
                            raise _timeout_denial(
                                object_name, denial
                            ) from None
                    cond = self._waiting.get(object_name)
                    if cond is None:
                        cond = self._waiting[object_name] = (
                            threading.Condition(self._mutex)
                            if hooks is None
                            else hooks.condition(object_name, self._mutex)
                        )
                    # A timed-out wait is re-checked against the
                    # deadline above, so total blocking never exceeds
                    # the caller's timeout however often it is woken.
                    cond.wait(timeout=remaining)
                    continue
                except Exception as exc:
                    if wait_started is not None:
                        # Wounded while parked; close the wait span
                        # before the abort propagates.
                        self._waited(txn, object_name, wait_started)
                    self._perform_failed(top, exc)
                    if isinstance(exc, InvalidTransactionState):
                        _raise_if_aborted(txn)
                    raise
                if wait_started is not None:
                    self._waited(txn, object_name, wait_started)
                return result
