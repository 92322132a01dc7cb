"""Exception hierarchy shared by every subpackage of :mod:`repro`.

The library distinguishes three failure families:

* **Model errors** -- misuse of the formal I/O-automaton machinery, e.g.
  applying an operation that is not enabled, or composing automata whose
  output sets overlap.
* **Protocol errors** -- violations of the paper's well-formedness
  conditions detected while checking or constructing schedules.
* **Engine errors** -- runtime failures of the executable nested-transaction
  engine: aborted transactions (deadlock victims included), lock denials,
  use of dead handles.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ModelError(ReproError):
    """Misuse of the I/O-automaton model machinery."""


class NotEnabledError(ModelError):
    """An operation was applied in a state where it is not enabled."""


class CompositionError(ModelError):
    """Automata cannot be composed (e.g. overlapping output operations)."""


class WellFormednessError(ReproError):
    """A sequence of operations violates a well-formedness condition."""


class SystemTypeError(ReproError):
    """A transaction name or access does not fit the declared system type."""


class SerializationFailure(ReproError):
    """The serializer could not rearrange a schedule.

    Raised when the Lemma 33 construction cannot produce a write-equivalent
    serial schedule.  In a correct implementation of the model this never
    happens for genuine R/W Locking schedules; it fires when the input is
    not actually a concurrent schedule of the system.
    """


class EngineError(ReproError):
    """Base class for executable-engine failures."""


class TransactionAborted(EngineError):
    """The operation's transaction (or one of its ancestors) was aborted."""

    def __init__(self, transaction_id, reason=""):
        self.transaction_id = transaction_id
        self.reason = reason
        message = "transaction %r aborted" % (transaction_id,)
        if reason:
            message = "%s: %s" % (message, reason)
        super().__init__(message)


class InvalidTransactionState(EngineError):
    """An engine call is illegal for the transaction's current status."""


class LockDenied(EngineError):
    """A non-blocking lock request could not be granted.

    ``blockers`` holds the (non-ancestor, conflicting) lockholder names so
    callers can register waits-for edges and retry after they return.
    """

    def __init__(self, message, blockers=()):
        self.blockers = frozenset(blockers)
        super().__init__(message)


class RetryLater(LockDenied):
    """The access cannot run yet; retry after ``blockers`` finish.

    Raised by schemes whose waits follow a fixed order -- MVTO accesses
    waiting out earlier-timestamp pending writers -- rather than a lock
    conflict that could participate in a deadlock.  Subclasses
    :class:`LockDenied` so it keeps working as a compat alias: every
    existing ``except LockDenied`` retry loop handles it unchanged, but
    callers can now tell an ordered wait (never a deadlock) from a
    genuine lock denial.

    ``retry_after_ms`` is an optional backoff hint in milliseconds
    (default ``None`` = no hint).  Producers that know how long the
    wait is likely to last (the service front-end's shed/backoff
    policy, MVTO's ordered waits) populate it; consumers (the
    ``repro.serve`` protocol maps it to a typed ``retry_after_ms``
    response field) treat it as advisory.  The hint rides as an
    attribute only -- ``str()`` and pickling behave exactly like
    :class:`LockDenied` (message-only ``args``), pinned by
    ``tests/test_errors.py``.
    """

    def __init__(self, message, blockers=(), retry_after_ms=None):
        super().__init__(message, blockers=blockers)
        self.retry_after_ms = retry_after_ms
