"""The deterministic interleaving controller.

Worker threads driving one :class:`~repro.engine.threadsafe.ThreadSafeEngine`
are serialised through per-worker turnstiles: exactly one worker runs at
a time, and it runs only from one *yield point* to the next (lock
acquire, injected denial, commit, abort -- the hooks installed via
:meth:`ThreadSafeEngine.install_hooks`).  At every yield the controller
picks which worker proceeds, so the whole thread interleaving is a pure
function of the *decision sequence* -- record it and any run replays
exactly; shrink it and the run stays deterministic (unreferenced
decisions fall back to the lowest runnable worker id).

Blocking runs the facade's own path on conditions the controller
makes (:meth:`condition`): ``wait`` parks the worker BLOCKED on that
condition and ``notify_all`` readies exactly its waiters.  No
wall-clock time is involved (a controlled wait ignores its timeout;
fuzz workers pass none).  Wound-wait makes the waits-for relation
acyclic, so an all-blocked stall -- or a parked worker whose
:meth:`run` check finds no live blocker, a lost wakeup -- is an
engine bug, reported as a failure instead of a hang.

Scheduling strategies:

* :class:`RandomStrategy` -- seeded uniform choice (search mode);
* :class:`ReplayStrategy` -- follow an explicit choice list (replay and
  shrinking), falling back deterministically when the list is exhausted
  or names a non-runnable worker;
* :class:`BoundedPreemptionStrategy` -- run non-preemptively (stay on
  the current worker until it blocks or finishes) except at explicitly
  chosen decision indices, in the spirit of CHESS's iterative
  context bounding.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError


class FuzzStall(ReproError):
    """The controlled run cannot make progress (scheduler stall)."""


class SchedulingStrategy:
    """Picks the next worker at each decision point."""

    def pick(self, index: int, runnable: Sequence[int]) -> int:
        """Choose one element of *runnable* for decision *index*."""
        raise NotImplementedError


class RandomStrategy(SchedulingStrategy):
    """Seeded uniform choice among the runnable workers."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def pick(self, index: int, runnable: Sequence[int]) -> int:
        return self._rng.choice(list(runnable))


class ReplayStrategy(SchedulingStrategy):
    """Follow an explicit choice list; deterministic fallback after it.

    A choice naming a worker that is not currently runnable (possible
    after shrinking) falls back to the lowest runnable id, as do
    decisions past the end of the list, so every choice list -- not just
    recorded ones -- yields a deterministic run.
    """

    def __init__(self, choices: Sequence[int]):
        self.choices = list(choices)

    def pick(self, index: int, runnable: Sequence[int]) -> int:
        if index < len(self.choices) and self.choices[index] in runnable:
            return self.choices[index]
        return min(runnable)


class BoundedPreemptionStrategy(SchedulingStrategy):
    """Non-preemptive baseline with preemptions at chosen decisions.

    The current worker keeps running while it stays runnable (a context
    switch happens only when it blocks or finishes), except at the
    decision indices in *preemptions*, where control moves to the
    worker whose id is next in round-robin order after the current one.
    With an empty map this is the deterministic round-robin baseline;
    CHESS-style exploration enumerates small preemption maps.
    """

    def __init__(self, preemptions: Optional[Dict[int, int]] = None):
        self.preemptions = dict(preemptions or {})
        self._last: Optional[int] = None

    def pick(self, index: int, runnable: Sequence[int]) -> int:
        choice: Optional[int] = None
        if index in self.preemptions:
            offset = self.preemptions[index]
            others = [w for w in runnable if w != self._last]
            if others:
                choice = others[offset % len(others)]
        if choice is None:
            if self._last is not None and self._last in runnable:
                choice = self._last
            else:
                choice = min(runnable)
        self._last = choice
        return choice


# Worker lifecycle states.
_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"


class _WorkerState:
    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.phase = _READY
        self.txn_name = None  # of the latest yield
        self.error: Optional[BaseException] = None


class _Condition:
    """``threading.Condition(lock)`` whose waiters park in a controller."""

    def __init__(self, controller, object_name: str, lock):
        self._controller = controller
        self.object_name = object_name
        self._lock = lock
        self.parked: List[_WorkerState] = []  # guarded by controller._cv

    def wait(self, timeout: Optional[float] = None) -> None:
        controller = self._controller
        worker_id = controller._me()
        txn_name = controller._states[worker_id].txn_name
        event = ("park", worker_id, txn_name, self.object_name)
        self._lock.release()
        try:
            controller._hand_off(worker_id, event, self)
        finally:
            self._lock.acquire()

    def notify_all(self) -> None:
        with self._controller._cv:
            for state in self.parked:
                state.phase = _READY
            self.parked.clear()


class InterleavingController:
    """Runs worker bodies under a chosen scheduling strategy.

    Implements the hook protocol of
    :class:`~repro.engine.threadsafe.ThreadSafeEngine` (``yield_point``,
    ``inject_deny``, ``condition``) and drives the whole run from
    :meth:`run`.  The recorded per-decision worker ids
    land in :attr:`decisions`; the ordered yield log (one entry per
    yield point or park) lands in :attr:`events` and is part of the replay
    digest.
    """

    #: Hard cap on decisions per run: programs are finite, so hitting
    #: this means a livelock -- reported as a stall, not an endless run.
    max_decisions = 200_000

    def __init__(
        self,
        strategy: SchedulingStrategy,
        injector=None,
        turn_timeout: float = 30.0,
    ):
        self._strategy = strategy
        self._injector = injector
        self._turn_timeout = turn_timeout
        self._cv = threading.Condition()
        self._states: Dict[int, _WorkerState] = {}
        self._threads: Dict[int, threading.Thread] = {}
        self._by_ident: Dict[int, int] = {}
        self._current: Optional[int] = None
        self.decisions: List[int] = []
        self.events: List[Tuple] = []
        self.stalled = False
        self.stall_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Worker registration and startup
    # ------------------------------------------------------------------
    def spawn(self, worker_id: int, body) -> None:
        """Register worker *body* (a zero-argument callable)."""
        if worker_id in self._states:
            raise ReproError("duplicate worker id %d" % worker_id)
        state = _WorkerState(worker_id)
        self._states[worker_id] = state
        thread = threading.Thread(
            target=self._worker_main,
            args=(worker_id, body),
            name="fuzz-worker-%d" % worker_id,
            daemon=True,
        )
        self._threads[worker_id] = thread

    def _worker_main(self, worker_id: int, body) -> None:
        self._by_ident[threading.get_ident()] = worker_id
        state = self._states[worker_id]
        try:
            self._await_turn(worker_id)
            body()
        except BaseException as exc:  # noqa: BLE001 - reported, not lost
            state.error = exc
        finally:
            with self._cv:
                state.phase = _DONE
                if self._current == worker_id:
                    self._current = None
                self._cv.notify_all()

    # ------------------------------------------------------------------
    # Hook protocol (called from worker threads)
    # ------------------------------------------------------------------
    def _me(self) -> int:
        return self._by_ident[threading.get_ident()]

    def _await_turn(self, worker_id: int) -> None:
        state = self._states[worker_id]
        with self._cv:
            while self._current != worker_id:
                if self.stalled:
                    raise FuzzStall(self.stall_reason or "stalled")
                self._cv.wait(timeout=self._turn_timeout)
            state.phase = _RUNNING

    def yield_point(self, kind: str, txn_name, detail) -> None:
        worker_id = self._me()
        self._states[worker_id].txn_name = txn_name
        self._hand_off(worker_id, (kind, worker_id, txn_name, detail))

    def condition(self, object_name: str, lock) -> _Condition:
        return _Condition(self, object_name, lock)

    def _hand_off(self, worker_id: int, event: Tuple, cond=None) -> None:
        """Log *event*, yield the turn (parked on *cond*), await one."""
        state = self._states[worker_id]
        with self._cv:
            if self.stalled:  # unwinding workers must not race the digest
                raise FuzzStall(self.stall_reason)
            self.events.append(event)
            state.phase = _READY if cond is None else _BLOCKED
            if cond is not None:
                cond.parked.append(state)
            self._current = None
            self._cv.notify_all()
        self._await_turn(worker_id)

    def inject_deny(self, txn_name, object_name) -> bool:
        if self._injector is None:
            return False
        return self._injector.deny_now(self._me(), object_name)

    # ------------------------------------------------------------------
    # The scheduling loop (called from the driving thread)
    # ------------------------------------------------------------------
    def run(self, check: Callable[[int], bool]) -> None:
        """Start every worker and schedule until all are done.

        *check* is the progressiveness oracle: before every decision
        ``check(worker_id)`` must hold for each BLOCKED worker (a live
        conflicting blocker remains).  It runs while every worker waits
        outside the facade's mutex.  On a stall (all live workers
        blocked, a failed check, or a worker failing to reach its next
        yield point) the run is marked ``stalled`` instead of raising,
        so the caller can report it as a finding.
        """
        for thread in self._threads.values():
            thread.start()
        with self._cv:
            while True:
                runnable = sorted(
                    worker_id
                    for worker_id, state in self._states.items()
                    if state.phase == _READY
                )
                for worker_id, state in sorted(self._states.items()):
                    if state.phase == _BLOCKED and not check(worker_id):
                        self._stall(
                            "worker %d parked with no live blocker"
                            % worker_id
                        )
                        return
                if not runnable:
                    statuses = sorted(
                        (worker_id, state.phase)
                        for worker_id, state in self._states.items()
                    )
                    if all(s == _DONE for _, s in statuses):
                        return
                    self._stall("all live workers blocked: %r" % statuses)
                    return
                if len(self.decisions) >= self.max_decisions:
                    self._stall(
                        "decision budget exceeded (%d)" % self.max_decisions
                    )
                    return
                pick = self._strategy.pick(len(self.decisions), runnable)
                if pick not in runnable:
                    raise ReproError(
                        "strategy picked non-runnable worker %r" % pick
                    )
                self.decisions.append(pick)
                self._current = pick
                self._cv.notify_all()
                if not self._cv.wait_for(
                    lambda: self._current is None,
                    timeout=self._turn_timeout,
                ):
                    self._stall(
                        "worker %d never reached its next yield point"
                        % pick
                    )
                    return

    def _stall(self, reason: str) -> None:
        self.stalled = True
        self.stall_reason = reason
        self._cv.notify_all()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def worker_errors(self) -> Dict[int, BaseException]:
        """Unexpected exceptions that escaped worker bodies."""
        return {
            worker_id: state.error
            for worker_id, state in sorted(self._states.items())
            if state.error is not None
        }
