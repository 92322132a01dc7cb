"""The controller drives the facade's real wake path.

Under the interleaving controller a denied access parks on the
facade's own per-object condition, so a wake the facade forgets to
send leaves a worker parked.  The progressiveness oracle (a parked
worker must keep a live conflicting blocker) turns that into a
deterministic ``stall``, which bounded exploration finds.
"""

import pytest

from repro.adt import Counter
from repro.engine.threadsafe import ThreadSafeEngine
from repro.errors import TransactionAborted
from repro.fuzz import (
    FuzzConfig,
    InterleavingController,
    ReplayStrategy,
    explore_bounded,
)

#: 2 workers x 2 tops x 4 steps: both mutations are reachable in a
#: few runs of the single-preemption neighbourhood.
CONFIG = FuzzConfig(
    seed=0, workers=2, transactions_per_worker=2, steps_per_transaction=4
)
BUDGET = 60
LOST_WAKE = "parked with no live blocker"


def _drop_wound_wakes(monkeypatch):
    """Mutation: ``_wound`` aborts its victims but wakes nobody."""
    wound = ThreadSafeEngine._wound
    wake = ThreadSafeEngine._wake
    muted = []

    def silent_wound(self, txn, denial):
        muted.append(True)
        try:
            return wound(self, txn, denial)
        finally:
            muted.pop()

    def gated_wake(self, top, retire):
        if not muted:
            wake(self, top, retire)

    monkeypatch.setattr(ThreadSafeEngine, "_wound", silent_wound)
    monkeypatch.setattr(ThreadSafeEngine, "_wake", gated_wake)


def _drop_child_finish_wakes(monkeypatch):
    """Mutation: only finished trees wake (``retire=False`` is lost)."""
    wake = ThreadSafeEngine._wake

    def retire_only(self, top, retire):
        if retire:
            wake(self, top, retire)

    monkeypatch.setattr(ThreadSafeEngine, "_wake", retire_only)


class TestLostWakeupsAreFound:
    def test_unmutated_exploration_is_clean(self):
        search = explore_bounded(CONFIG, budget=BUDGET)
        assert search.failure is None

    @pytest.mark.parametrize(
        "mutate", [_drop_wound_wakes, _drop_child_finish_wakes]
    )
    def test_mutation_stalls(self, monkeypatch, mutate):
        mutate(monkeypatch)
        search = explore_bounded(CONFIG, budget=BUDGET)
        failure = search.failure
        assert failure is not None, "mutation survived %d runs" % (
            search.attempts
        )
        assert failure.kind == "stall"
        assert LOST_WAKE in failure.stall_reason


class TestControlledWound:
    def test_parked_victim_is_woken_and_raises(self):
        facade = ThreadSafeEngine([Counter("a"), Counter("b")])
        holder = facade.begin_top()  # oldest: nobody can wound it
        elder = facade.begin_top()
        victim = facade.begin_top()  # youngest
        outcome = {}

        def hold():
            holder.perform("a", Counter.increment(1))
            holder.commit()

        def wait_on_holder():
            victim.perform("b", Counter.increment(1))
            try:
                victim.perform("a", Counter.increment(1))
            except TransactionAborted as exc:
                outcome["victim"] = exc
                # Woken by the wound itself, not by a later release.
                outcome["holder live"] = holder.is_active

        def wound_victim():
            outcome["elder"] = elder.perform("b", Counter.value())
            elder.commit()

        # Holder takes a; the victim takes b and parks on a; the elder
        # wants b, wounds the victim, and its wake lets the victim run.
        controller = InterleavingController(
            ReplayStrategy([0, 0, 1, 1, 1, 2, 2, 1])
        )
        facade.install_hooks(controller)
        for worker_id, body in enumerate(
            (hold, wait_on_holder, wound_victim)
        ):
            controller.spawn(worker_id, body)
        controller.run(lambda worker_id: True)

        assert not controller.stalled, controller.stall_reason
        assert controller.worker_errors() == {}
        assert ("park", 1, victim.name, "a") in controller.events
        assert isinstance(outcome["victim"], TransactionAborted)
        assert outcome["holder live"]
        assert outcome["elder"] == 0
        assert not victim.is_active
        assert facade.object_value("a") == 1
