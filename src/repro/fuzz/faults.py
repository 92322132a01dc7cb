"""Seeded fault injection for fuzz runs.

Extends the seeded-violation idea of :mod:`repro.analysis.faults` from
*policies* to *run-time events*.  Every fault decision is drawn from a
per-worker RNG stream seeded by ``(seed, worker_id)`` and consumed in
worker-local program order, so fault placement is invariant under
re-scheduling -- shrinking the interleaving does not reshuffle faults.

Fault modes (composable; presets below):

* ``crash``       -- a worker abruptly aborts its live top-level
  mid-program ("process crash" without the process);
* ``deny-spike``  -- lock acquisitions are spuriously denied,
  stressing the retry/park paths and the wound-wait logic;
* ``orphan``      -- a worker aborts its top-level while holding a live
  child handle, then drives one more access through that handle: the
  engine's orphan guard must reject it (a trace showing the access
  would be an RW002);
* one preset per mutant (``broken-no-inherit``, ...) -- the engine runs
  that policy from :data:`repro.analysis.faults.MUTANTS`, a genuine
  Moss-rule violation for the oracles to find;
* message delay/drop for :mod:`repro.dist` lives in
  :class:`repro.dist.runner.MessageFaults` and shares the seeding
  discipline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Union

from repro.analysis.faults import MUTANTS
from repro.engine.policies import LockingPolicy


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities for each run-time fault, plus the engine policy."""

    crash_rate: float = 0.0
    deny_rate: float = 0.0
    orphan_rate: float = 0.0
    policy: str = "moss-rw"

    def scheme_for(
        self, requested: str = "moss-rw"
    ) -> Union[str, LockingPolicy]:
        """The scheme selector this plan runs *requested* under.

        A mutant (:data:`repro.analysis.faults.MUTANTS`) overrides the
        requested scheme -- the whole point of the preset is to run a
        broken engine; otherwise the requested scheme wins.  The
        return value feeds :func:`repro.kernel.get_scheme`.
        """
        if self.policy in MUTANTS:
            return MUTANTS[self.policy]()
        return requested if self.policy == "moss-rw" else self.policy


#: Named presets accepted by ``python -m repro fuzz --faults``.
FAULT_PRESETS: Dict[str, FaultPlan] = {
    "none": FaultPlan(),
    "crash": FaultPlan(crash_rate=0.1),
    "deny-spike": FaultPlan(deny_rate=0.2),
    "orphan": FaultPlan(orphan_rate=0.15),
    "chaos": FaultPlan(
        crash_rate=0.05, deny_rate=0.1, orphan_rate=0.05
    ),
    **{name: FaultPlan(policy=name) for name in MUTANTS},
}


def fault_plan(name: str) -> FaultPlan:
    """Look up a preset by name (raising ``KeyError`` with the menu)."""
    try:
        return FAULT_PRESETS[name]
    except KeyError:
        raise KeyError(
            "unknown fault preset %r (choose from %s)"
            % (name, ", ".join(sorted(FAULT_PRESETS)))
        ) from None


class FaultInjector:
    """Draws per-worker seeded fault decisions.

    One RNG stream per worker, consumed in that worker's program order;
    the controller serialises workers, so each stream's consumption
    order is deterministic regardless of the interleaving.
    """

    def __init__(self, seed: int, plan: FaultPlan, workers: int):
        self.plan = plan
        self._rngs = {
            worker_id: random.Random(
                (seed * 7_368_787) + worker_id + 1
            )
            for worker_id in range(workers)
        }

    def crash_now(self, worker_id: int) -> bool:
        """Should this worker crash-abort its live top-level now?"""
        if self.plan.crash_rate <= 0.0:
            return False
        return self._rngs[worker_id].random() < self.plan.crash_rate

    def deny_now(self, worker_id: int, object_name: str) -> bool:
        """Should this acquire be spuriously denied?"""
        if self.plan.deny_rate <= 0.0:
            return False
        return self._rngs[worker_id].random() < self.plan.deny_rate

    def orphan_now(self, worker_id: int) -> bool:
        """Should this worker try to create an orphan access now?"""
        if self.plan.orphan_rate <= 0.0:
            return False
        return self._rngs[worker_id].random() < self.plan.orphan_rate
