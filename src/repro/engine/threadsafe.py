"""A thread-safe facade over any registered scheme, with blocking waits.

The core engines are deliberately single-threaded and non-blocking (the
simulator supplies concurrency).  Applications that want to drive one
engine from several Python threads wrap it in :class:`ThreadSafeEngine`,
built for any scheme in the kernel registry
(:func:`repro.kernel.get_scheme`): :meth:`ThreadSafeTransaction.perform`
*blocks* on conflicts, with wound-wait deadlock resolution (older
transaction wins, younger restarts via
:class:`~repro.errors.TransactionAborted`).

Locking regimes
---------------

The facade has two internal regimes, chosen at construction:

* **Striped** (the default for schemes whose ``perform`` is
  object-local, e.g. every locking policy): the kernel
  :class:`~repro.kernel.store.ObjectStore` assigns each object to a
  shard, and each shard gets its own *stripe* lock and condition
  variable.  ``perform`` takes only its object's stripe, so accesses to
  objects on different stripes proceed concurrently; structural
  operations (commit, abort, wound) take the tree-state mutex **plus
  every stripe** (in index order -- the fixed order makes the hierarchy
  acyclic), so they still see and mutate a quiescent engine.  Waiters
  park on their stripe's condition with a generation counter (captured
  under the stripe lock at denial time) so a release that lands between
  the denial and the wait cannot be lost; commits and aborts bump and
  signal only the stripes their tree actually performed on (tracked in
  ``_touched``), so waiters on unrelated objects are not woken at all.
  The GIL still serialises bytecode, but the striping removes the
  single-mutex handoff on every access and wakes only plausible
  waiters, which is what ``bench_e18_scalability`` measures.  Two caveats, both documented
  invariants rather than bugs: a single transaction *handle* must be
  driven by one thread at a time (handles are not internally locked),
  and the engine's own ``stats`` counters for accesses/denials are
  best-effort under striping (increments from different stripes may
  race); object values and commit counts are exact.  The engine's
  event spine serialises its dispatch with one lock, taken once per
  event and only for a subscriber written for one thread.
* **Global mutex**: every transition under one lock, one condition
  signalled by every commit/abort.  Used when scheduler hooks are
  installed (the fuzzer owns the interleaving), when ``trace=True``
  (the recorder needs a linearised event order for conformance
  replay), for schemes that are not object-local (MVTO's timestamp
  conflicts discard buffers across every object from inside
  ``perform``), or on request with ``stripes=0`` (the benchmark
  baseline).

Scheduler hooks
---------------

The deterministic concurrency fuzzer (:mod:`repro.fuzz`) needs to own
the interleaving of worker threads, so the facade exposes *yield-point
hooks*: when :meth:`ThreadSafeEngine.install_hooks` has installed a
controller, every lock acquire, blocking wait, commit and abort routes
through it instead of the free-running condition-variable path.
Installing hooks drops the facade to the global-mutex regime (install
them before starting worker threads).  The hooks object is duck-typed;
it must provide::

    yield_point(kind, txn_name, detail)   # "acquire"/"denied"/"commit"/"abort"
    park_blocked(txn_name, blockers, object_name)  # wait for a release
    on_release(txn_name)                  # locks shed (commit/abort/wound)
    inject_deny(txn_name, object_name) -> bool     # fault injection point

With no hooks installed (the default) behaviour is unchanged and the
hot path pays a single attribute check.

Lock waits (timed with :func:`time.perf_counter`), wounds and abort
causes are facade knowledge, reported with the spine's ``note``.
"""

from __future__ import annotations

import threading
import time
from time import perf_counter
from typing import Any, Dict, Iterable, Optional, Set

from repro.core.names import TransactionName, pretty_name
from repro.core.object_spec import ObjectSpec, Operation
from repro.engine.spine import Tagged, Waited, Wounded
from repro.engine.transaction import Transaction, TransactionStatus
from repro.errors import (
    EngineError,
    LockDenied,
    RetryLater,
    TransactionAborted,
)
from repro.kernel import get_scheme

#: Default stripe count in auto mode (clamped to the object count by
#: the store; more stripes than objects would only idle).
DEFAULT_STRIPES = 16


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
        # Status is written only under the mutex (striped structural
        # ops additionally hold every stripe), so the mutex suffices.
        with self._facade._mutex:
            return self._inner.is_active

    @property
    def status(self) -> TransactionStatus:
        """The current status (a dead handle may have been wounded)."""
        with self._facade._mutex:
            return self._inner.status

    def begin_child(self) -> "ThreadSafeTransaction":
        with self._facade._mutex:
            child = self._inner.begin_child()
        return ThreadSafeTransaction(self._facade, child)

    def perform(
        self,
        object_name: str,
        operation: Operation,
        timeout: Optional[float] = None,
    ) -> Any:
        """Run one access, blocking while conflicting locks are held.

        Raises :class:`~repro.errors.TransactionAborted` when this
        transaction is wounded by an older one while waiting, and
        :class:`~repro.errors.LockDenied` on timeout.  *timeout* bounds
        the **total** blocking time of the call (a monotonic deadline),
        not each individual wait.
        """
        return self._facade._perform_blocking(
            self._inner, object_name, operation, timeout
        )

    def commit(self, value: Any = None) -> None:
        hooks = self._facade._hooks
        if hooks is not None:
            # Names are immutable after construction.
            hooks.yield_point(
                "commit", self._inner.name, None  # repro-lint: ignore[CD002]
            )
        self._facade._finish(self._inner, "commit", value)
        if hooks is not None:
            hooks.on_release(self._inner.name)  # repro-lint: ignore[CD002]

    def abort(self) -> None:
        hooks = self._facade._hooks
        if hooks is not None:
            # Names are immutable after construction.
            hooks.yield_point(
                "abort", self._inner.name, None  # repro-lint: ignore[CD002]
            )
        self._facade._finish(self._inner, "abort", None)
        if hooks is not None:
            hooks.on_release(self._inner.name)  # repro-lint: ignore[CD002]

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
        Passed to the scheme factory; tracing forces the global-mutex
        regime (conformance replay needs a linearised trace).
    observer:
        Optional :class:`repro.obs.Observer`, subscribed to the
        engine's event spine; under striping the spine serialises its
        dispatch so the observer's counters stay exact.
    stripes:
        ``None`` (default) -- auto: stripe when the scheme allows it,
        with up to :data:`DEFAULT_STRIPES` stripes.  ``0`` -- force the
        single global mutex.  ``n > 0`` -- request exactly *n* stripes
        (clamped to the object count).
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
        specs = list(specs)
        self.scheme = get_scheme(policy)
        requested = DEFAULT_STRIPES if stripes is None else stripes
        self._striped = bool(
            requested > 0
            and not trace
            and self.scheme.capabilities.object_local_performs
        )
        self._engine = self.scheme.build(
            specs,
            observer=observer,
            trace=trace,
            trace_limit=trace_limit,
            shards=requested if self._striped else 1,
        )
        if self._striped:
            self._engine.serialise_dispatch(threading.Lock())
        # In the striped regime `_mutex` is the tree-state lock:
        # structural operations hold it *plus* every stripe; in the
        # global regime it is the one engine mutex.  `_released` is the
        # global-regime condition signalled by every commit/abort.
        self._mutex = threading.Lock()
        self._released = threading.Condition(self._mutex)
        self._hooks = None
        # Stripe structures (unused but tiny in the global regime).
        count = self._engine.store.shards
        self._stripe_index = self._engine.store.shard_of
        self._stripe_locks = [threading.Lock() for _ in range(count)]
        self._stripe_conds = [
            threading.Condition(lock) for lock in self._stripe_locks
        ]
        # Per-stripe release generations: bumped (under all stripe
        # locks) by every structural op, read (under one stripe lock)
        # by waiters, so a release between a denial and the wait is
        # never lost.
        self._stripe_gens = [0] * count
        # Stripes each live top-level tree has performed on, recorded
        # under the object's stripe lock before the engine transition
        # runs.  Commit/abort can only release locks on objects the
        # tree touched, so _finish wakes just these stripes instead of
        # broadcasting to every waiter in the system.
        self._touched: Dict[TransactionName, Set[int]] = {}

    @property
    def engine(self):
        """The wrapped engine (synchronise access yourself)."""
        return self._engine

    @property
    def capabilities(self):
        """The wrapped scheme's capability flags."""
        return self.scheme.capabilities

    @property
    def striped(self) -> bool:
        """True when running the striped regime (not the global mutex)."""
        return self._striped

    def attach_auditor(self, auditor=None, config=None):
        """Subscribe an online serializability auditor; returns it.

        Delegates to the engine's
        :meth:`~repro.engine.spine.Spine.attach_auditor`; the default
        config comes from the scheme's capability flags (the trust
        dial).  The auditor serialises its own state, so even
        under striping the spine calls it without the dispatch lock.
        Attach before starting worker threads.
        """
        with self._mutex:
            return self._engine.attach_auditor(auditor, config)

    def attach_wal(self, wal=None, sink=None, segment_bytes=None):
        """Attach a write-ahead log to the wrapped engine; returns it.

        Mirrors :meth:`repro.engine.engine.Engine.attach_wal`
        (capability-gated on ``capabilities.durable``).  The log writer
        carries its own lock, so striped performs may append
        concurrently; the append order is then the log's serialization
        of those (non-conflicting) transitions.  Attach before starting
        worker threads.
        """
        if not self.capabilities.durable:
            raise EngineError(
                "scheme %r is not durable "
                "(capabilities.durable is False)" % self.scheme.name
            )
        attach = getattr(self._engine, "attach_wal", None)
        if attach is None:
            raise EngineError(
                "scheme %r has no write-ahead log support"
                % self.scheme.name
            )
        with self._mutex:
            attached = attach(
                wal=wal, sink=sink, segment_bytes=segment_bytes
            )
            # Group-commit sinks coalesce fsyncs across concurrent
            # committers, but only if their flush *waits* overlap --
            # impossible inside this facade's commit locks.  Defer:
            # the engine tickets the flush during commit and the
            # facade awaits it after releasing its locks.
            sink_obj = getattr(attached, "sink", None)
            if hasattr(sink_obj, "flush_begin") and hasattr(
                self._engine, "wal_defers"
            ):
                self._engine.wal_defers = True
            return attached

    def install_hooks(self, hooks) -> None:
        """Install (or clear, with ``None``) the scheduler hooks.

        Installing a controller drops the facade to the global-mutex
        regime for the rest of its life (the controller owns the
        interleaving; stripes would hide schedule decisions from it).
        Install hooks before starting worker threads.
        """
        if hooks is not None:
            self._striped = False
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
        pending = []

        def try_abort():
            # Under the mutex (plus every stripe, when striped).
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
                if waiter is not None:
                    pending.append(waiter)
            return True

        try:
            if self._striped and self._hooks is None:

                def released_stripes():
                    touched = self._touched.pop(top, None)
                    if not touched:
                        return ()
                    return sorted(touched)

                return self._run_structural(
                    try_abort, bump="if-true", stripes=released_stripes
                )
            with self._mutex:
                if not try_abort():
                    return False
                self._touched.pop(top, None)
                self._released.notify_all()
                return True
        finally:
            for waiter in pending:
                waiter()

    def object_value(self, object_name: str) -> Any:
        if self._striped:
            # Striped schemes are object-local: performs on this object
            # run under its stripe lock, and structural ops hold every
            # stripe (including this one), so the object's single
            # stripe already gives a quiescent read of its versions --
            # no need to stall the whole facade for an inspection.
            lock = self._stripe_locks[self._stripe_index(object_name)]
            with lock:
                return self._read_value(object_name)
        with self._mutex:
            return self._engine.object_value(object_name)

    def _read_value(self, object_name: str) -> Any:
        # Callers hold (at least) the object's stripe lock.
        return self._engine.object_value(  # repro-lint: ignore[CD002]
            object_name
        )

    # ------------------------------------------------------------------
    # Structural operations (striped regime)
    # ------------------------------------------------------------------
    def _run_structural(self, fn, bump: str = "always", stripes=None):
        """Run *fn* holding the tree mutex plus every stripe, in order.

        ``bump`` controls the wakeup broadcast on exit: ``"always"``
        for ops that release locks (commit/abort), ``"if-true"`` for
        ops whose truthy result means state changed (the wound pass),
        ``"never"`` for read-only ops (object_value).  Skipping the
        broadcast for no-op passes matters: a denied perform probing
        for wounds must not invalidate every waiter's generation
        capture, or the striped regime degenerates into a busy-wait
        herd of retrying waiters.

        ``stripes`` narrows the broadcast further: a zero-argument
        callable, evaluated under the full lock set after *fn*, that
        returns the stripe indices whose waiters could have been
        unblocked (``None`` means all of them).  Commit/abort pass the
        finishing tree's touched-stripe set here, so waiters on
        unrelated objects are not woken at all.
        """
        with self._mutex:
            for lock in self._stripe_locks:
                lock.acquire()
            changed = bump == "always"
            try:
                result = fn()
                if bump == "if-true" and result:
                    changed = True
                return result
            except BaseException:
                # Conservative: a failed mutation may have partially
                # changed lock state before raising.
                changed = bump != "never"
                raise
            finally:
                if changed:
                    targets = (
                        range(len(self._stripe_conds))
                        if stripes is None
                        else stripes()
                    )
                    for i in targets:
                        self._stripe_gens[i] += 1
                        self._stripe_conds[i].notify_all()
                for lock in reversed(self._stripe_locks):
                    lock.release()

    def _apply_finish(
        self, inner: Transaction, action: str, value: Any
    ) -> bool:
        """Commit/abort *inner*; runs under the active regime's locks.

        A wound can abort *inner* while its driving thread is between
        calls (e.g. holding locks across I/O before commit), so the
        facade translates that race instead of leaking
        ``InvalidTransactionState``: committing a wounded transaction
        raises :class:`~repro.errors.TransactionAborted`, aborting one
        is an idempotent no-op.  Returns True when lock state changed.
        """
        if (
            not inner.is_active
            and inner.status is TransactionStatus.ABORTED
        ):
            if action == "abort":
                return False
            raise TransactionAborted(
                "%s was wounded before it could commit"
                % pretty_name(inner.name)
            )
        if action == "commit":
            inner.commit(value)
        else:
            inner.abort()
        return True

    def _pop_pending_flush(self):
        """Pop the engine's deferred-flush waiter; locks held.

        Must run inside the same locked section as the finish that
        ticketed it -- a pop after the locks release could steal a
        *later* committer's waiter and leave that commit acknowledged
        before its fsync.  Waiters left un-popped (a wound-path abort
        whose slot a later finish overwrites) are harmless: the group
        sink's syncer services every ticket whether or not anyone
        waits on it.
        """
        # getattr: alternative engines (MVTO) have no deferred-flush
        # seam and never set `wal_defers`, so there is nothing to pop.
        waiter = getattr(  # repro-lint: ignore[CD002]
            self._engine, "pending_flush", None
        )
        if waiter is not None:
            self._engine.pending_flush = None  # repro-lint: ignore[CD002]
        return waiter

    def _finish(self, inner: Transaction, action: str, value: Any) -> None:
        """Commit or abort *inner* under the active regime's locks."""
        pending = []

        def apply():
            try:
                return self._apply_finish(inner, action, value)
            finally:
                waiter = self._pop_pending_flush()
                if waiter is not None:
                    pending.append(waiter)

        try:
            self._finish_locked(inner, apply)
        finally:
            # Await the group fsync *outside* the locks, so concurrent
            # committers' waits overlap and share one fsync.
            for waiter in pending:
                waiter()

    def _finish_locked(self, inner: Transaction, apply) -> None:
        if self._striped and self._hooks is None:
            # Names are immutable after construction.
            name = inner.name  # repro-lint: ignore[CD002]
            top = name[:1]

            def released_stripes():
                # Under the full lock set: every touch record (made
                # under its object's stripe lock) is visible here.  A
                # *top* that really finished retires its tree's entry
                # (a failed finish -- live children, say -- keeps its
                # locks, so the set must survive for the retry); a
                # child commit moves locks to its mother, which can
                # unblock relatives waiting on the same objects, so
                # the set stays live until the tree ends.
                if len(name) == 1 and not inner.is_active:
                    touched = self._touched.pop(top, None)
                else:
                    touched = self._touched.get(top)
                if not touched:
                    return ()
                return sorted(touched)

            self._run_structural(
                apply, bump="if-true", stripes=released_stripes
            )
            return
        with self._mutex:
            if apply():
                self._released.notify_all()

    # ------------------------------------------------------------------
    # Blocking access with wound-wait
    # ------------------------------------------------------------------
    def _age(self, top):
        # Callers hold the mutex (only the wound path calls this).
        return self._engine.started_at.get(  # repro-lint: ignore[CD002]
            top, float("inf")
        )

    def _wound_candidate(
        self, txn: Transaction, denial: LockDenied
    ) -> bool:
        """Unlocked pre-filter for the structural wound pass.

        Start times are written once (under the mutex, at begin) and
        never change, so this lock-free read can only mis-judge
        blockers that are concurrently *finishing* -- a spurious True
        costs one structural pass whose authoritative re-check then
        declines to wound; the age comparison itself never flips.
        """
        started = (
            self._engine.started_at  # repro-lint: ignore[CD002]
        )
        my_top = txn.name[:1]
        mine = started.get(my_top, float("inf"))
        for blocker in denial.blockers:
            target = blocker[:1]
            if target == my_top:
                continue
            if started.get(target, float("inf")) > mine:
                return True
        return False

    def _wound(self, txn: Transaction, denial: LockDenied) -> bool:
        """Abort every younger top-level blocking *txn*; locks held.

        Callers hold the mutex (global regime) or the full structural
        set (striped regime).  Returns True when at least one victim
        was wounded (the caller should retry immediately rather than
        wait).  Blockers sharing *txn*'s own top-level ancestor are
        never wounded -- a transaction must wait for its own relatives,
        not kill them.
        """
        my_top = txn.name[:1]
        wounded = False
        for blocker in sorted(denial.blockers):
            target = blocker[:1]
            if target == my_top:
                continue
            if self._age(target) > self._age(my_top):
                table = (
                    self._engine.transactions  # repro-lint: ignore[CD002]
                )
                victim = table.get(target)
                if victim is not None and victim.is_active:
                    # Tag the cause before the abort transition.
                    self._engine.note(  # repro-lint: ignore[CD002]
                        Wounded, target, my_top
                    )
                    victim.abort()
                    # The victim tree's locks are gone; retire its
                    # touched-stripe record (its own thread may never
                    # reach _finish with an active handle again).
                    self._touched.pop(target, None)
                    wounded = True
        return wounded

    def _waited(
        self, txn: Transaction, object_name: str, started: float
    ) -> None:
        """Report one finished wait; the spine serialises its dispatch."""
        self._engine.note(  # repro-lint: ignore[CD002]
            Waited, txn.name, object_name, started, perf_counter()
        )

    def _perform_blocking(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
        timeout: Optional[float],
    ) -> Any:
        if self._hooks is not None:
            return self._perform_controlled(txn, object_name, operation)
        if self._striped:
            return self._perform_striped(
                txn, object_name, operation, timeout
            )
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        wait_started: Optional[float] = None
        with self._released:
            while True:
                try:
                    result = txn.perform(object_name, operation)
                except LockDenied as denial:
                    if wait_started is None:
                        wait_started = perf_counter()
                    if self._wound(txn, denial):
                        self._released.notify_all()
                        continue
                    remaining: Optional[float] = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            self._waited(txn, object_name, wait_started)
                            raise _timeout_denial(
                                object_name, denial
                            ) from None
                    self._released.wait(timeout=remaining)
                    # Loop: a timed-out wait is re-checked against the
                    # deadline above, so total blocking never exceeds
                    # the caller's timeout no matter how often other
                    # transactions signal the condition.
                    continue
                except Exception as exc:
                    if wait_started is not None:
                        # A wound arrived while we were parked; close
                        # the wait span before the abort propagates.
                        self._waited(txn, object_name, wait_started)
                    if isinstance(
                        exc, TransactionAborted
                    ) and not self.capabilities.object_local_performs:
                        # A non-object-local scheme (MVTO) aborts the
                        # whole tree from inside ``perform``, shedding
                        # its pending writes with no commit/abort call
                        # to signal the condition; wake waiters so
                        # they re-check.
                        self._released.notify_all()
                    raise
                if wait_started is not None:
                    self._waited(txn, object_name, wait_started)
                self._released.notify_all()
                return result

    def _perform_striped(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
        timeout: Optional[float],
    ) -> Any:
        """The striped twin of the global blocking path.

        The engine transition runs under only this object's stripe
        lock; structural operations hold every stripe, so the tree
        state read inside ``perform`` (orphan checks, child slots) is
        stable for the duration.  On denial the stripe generation is
        captured before the lock is dropped; the retry waits on the
        stripe condition only if no structural op intervened.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        index = self._stripe_index(object_name)
        cond = self._stripe_conds[index]
        # Names are immutable after construction.
        top = txn.name[:1]  # repro-lint: ignore[CD002]
        wait_started: Optional[float] = None
        while True:
            denial: Optional[LockDenied] = None
            with cond:
                # Record the touch before the transition: once any
                # lock on this object can be held, the record is
                # visible to every structural op (they take all
                # stripes).  Denied attempts over-approximate, which
                # only costs a spurious wakeup on this stripe.
                touched = self._touched.get(top)
                if touched is None:
                    touched = self._touched.setdefault(top, set())
                touched.add(index)
                try:
                    result = txn.perform(object_name, operation)
                except LockDenied as exc:
                    denial = exc
                    gen = self._stripe_gens[index]
                except Exception:
                    if wait_started is not None:
                        # Wounded while parked; close the wait span
                        # before the abort propagates.
                        self._waited(txn, object_name, wait_started)
                    raise
                else:
                    if wait_started is not None:
                        self._waited(txn, object_name, wait_started)
                    return result
            # Denied: wound (a structural op) outside the stripe lock.
            # The unlocked age pre-filter keeps the common case (we are
            # the youngest and must wait) from serializing on the full
            # structural lock set just to learn it cannot wound anyone.
            if wait_started is None:
                wait_started = perf_counter()
            if self._wound_candidate(txn, denial) and self._run_structural(
                lambda: self._wound(txn, denial), bump="if-true"
            ):
                continue
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._waited(txn, object_name, wait_started)
                    raise _timeout_denial(
                        object_name, denial
                    ) from None
            with cond:
                if self._stripe_gens[index] == gen:
                    # No release since the denial; park until one (or
                    # the deadline slice) arrives.  A changed
                    # generation means a structural op already ran --
                    # skip the wait and re-attempt immediately.
                    cond.wait(timeout=remaining)

    def _perform_controlled(
        self,
        txn: Transaction,
        object_name: str,
        operation: Operation,
    ) -> Any:
        """The hook-driven twin of :meth:`_perform_blocking`.

        The installed controller decides when this thread runs and is
        told, instead of a condition wait, when the access blocks --
        timeouts do not apply because the controller owns time.
        """
        hooks = self._hooks
        while True:
            hooks.yield_point("acquire", txn.name, object_name)
            if hooks.inject_deny(txn.name, object_name):
                hooks.yield_point("denied", txn.name, object_name)
                continue
            with self._released:
                try:
                    result = txn.perform(object_name, operation)
                except LockDenied as denial:
                    wounded = self._wound(txn, denial)
                    blockers = tuple(sorted(denial.blockers))
                except TransactionAborted:
                    if not self.capabilities.object_local_performs:
                        # Tree aborted from inside ``perform`` (MVTO
                        # ts-conflict): its pending writes are gone but
                        # no commit/abort handle call will follow to
                        # wake parked workers -- release them here.
                        hooks.on_release(txn.name)
                    raise
                else:
                    self._released.notify_all()
                    return result
            if wounded:
                hooks.on_release(txn.name)
                continue
            parked_at = perf_counter()
            hooks.park_blocked(txn.name, blockers, object_name)
            self._waited(txn, object_name, parked_at)
