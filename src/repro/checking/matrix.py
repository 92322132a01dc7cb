"""The mutant kill matrix: which checker flags which mutant.

Every checker of a recorded engine run is tried on runs of every
mutant (:data:`repro.analysis.faults.MUTANTS`) and of the unbroken
``moss-rw`` control, on two drivers:

* ``random`` -- :func:`drive_random_workload`: one thread calling the
  engine directly (4 tops, 40 operations per run);
* ``fuzz`` -- :func:`repro.fuzz.run_case`: three worker threads of
  three trees each under the seeded interleaving controller.

A checker *kills* a run when it flags it.  A checker earns its place by
killing runs that no other checker kills; ``docs/ANALYSIS.md`` has the
matrix and what it decided, ``benchmarks/bench_e27_mutants.py``
regenerates it (EXPERIMENTS.md E27) and ``tests/checking/test_matrix.py``
pins it.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Iterable, Set, Tuple

from repro.analysis.faults import MUTANTS
from repro.checking.conformance import (
    check_lockstep,
    replay_trace,
    trace_logic_factory,
)

#: The checkers, in report order.  ``lockstep`` compares the engine's
#: live lock tables with the replayed M(X) automata, so it can only
#: judge a trace that the refinement replay accepted.
CHECKERS = (
    "refinement", "lockstep", "theorem34", "linter", "auditor", "classical"
)
#: The unbroken policy every mutant is measured against.
CONTROL = "moss-rw"
POLICIES = (CONTROL,) + tuple(MUTANTS)


def drive_random_workload(
    seed: int,
    transactions: int,
    operations: int,
    policy="moss-rw",
    audit: bool = False,
):
    """Drive one random nested workload; return the traced engine.

    *audit* attaches an online auditor that audits every tree
    (``engine.subscriber(OnlineAuditor)`` finds it afterwards).
    """
    from repro.adt import Counter, IntRegister
    from repro.errors import LockDenied
    from repro.kernel import get_scheme

    rng = random.Random(seed)
    engine = get_scheme(policy).build(
        [Counter("c"), IntRegister("x")], trace=True
    )
    if audit:
        from repro.audit import AuditConfig

        engine.attach_auditor(config=AuditConfig(sample_every=1))
    tops = [engine.begin_top() for _ in range(transactions)]
    menu = [
        ("c", Counter.increment(1)),
        ("c", Counter.value()),
        ("x", IntRegister.add(2)),
        ("x", IntRegister.read()),
    ]
    live = {top.name: top for top in tops}
    for _ in range(operations):
        if not live:
            break
        txn = rng.choice(list(live.values()))
        roll = rng.random()
        if roll < 0.6:
            try:
                txn.perform(*rng.choice(menu))
            except LockDenied:
                pass
        elif roll < 0.8:
            child = txn.begin_child()
            try:
                child.perform(*rng.choice(menu))
            except LockDenied:
                pass
            if rng.random() < 0.5:
                child.commit()
            else:
                child.abort()
        elif roll < 0.9 and not txn.live_children():
            txn.commit()
            del live[txn.name]
        else:
            txn.abort()
            del live[txn.name]
    for txn in list(live.values()):
        for child in txn.live_children():
            child.abort()
        txn.commit()
    return engine


def _random_run(policy: str, seed: int):
    selector = MUTANTS[policy]() if policy in MUTANTS else policy
    return drive_random_workload(seed, 4, 40, policy=selector, audit=True)


def _fuzz_run(policy: str, seed: int):
    from repro.fuzz import FuzzConfig, run_case

    faults = policy if policy in MUTANTS else "none"
    config = FuzzConfig(seed=seed, transactions_per_worker=3, faults=faults)
    return run_case(config, audit=True).engine


#: The drivers by name: ``(policy, seed) -> traced, audited engine``.
DRIVERS: Dict[str, Callable] = {"random": _random_run, "fuzz": _fuzz_run}


def judge(engine) -> Dict[str, Tuple[bool, float]]:
    """Run every checker on one traced, audited run.

    Returns ``checker -> (flagged, seconds)``.  The auditor watched
    the run online; its time is its report only.
    """
    from repro.analysis import lint_schedule
    from repro.audit import OnlineAuditor
    from repro.core.correctness import check_schedule
    from repro.core.serializability import equivalent_serial_order
    from repro.core.systems import SerialSystem

    recorder = engine.recorder
    alpha = recorder.schedule()
    system_type = recorder.system_type(engine.specs)
    factory = trace_logic_factory(alpha, recorder.commit_values)
    replayed = []  # (the replayed system, its rejection or None)

    def refinement():
        replayed[:] = replay_trace(system_type, alpha, factory)
        return replayed[1] is not None

    checks = {
        "refinement": refinement,
        "lockstep": lambda: (
            replayed[1] is None and not check_lockstep(engine, replayed[0])[0]
        ),
        "theorem34": lambda: not check_schedule(
            system_type,
            alpha,
            serial_system=SerialSystem(system_type, logic_factory=factory),
        ),
        "linter": lambda: not lint_schedule(alpha, system_type).ok,
        "auditor": lambda: (
            engine.subscriber(OnlineAuditor).report().verdict == "violation"
        ),
        "classical": lambda: not equivalent_serial_order(system_type, alpha),
    }
    verdicts = {}
    for name in CHECKERS:
        started = time.perf_counter()
        flagged = bool(checks[name]())
        verdicts[name] = (flagged, time.perf_counter() - started)
    return verdicts


class KillMatrix:
    """Kill sets and checker time of one driver over seeded runs."""

    def __init__(self, driver: str, seeds: Iterable[int]):
        self.driver = driver
        self.seeds = tuple(seeds)
        #: ``(policy, checker) -> seeds whose run the checker flagged``
        self.kills: Dict[Tuple[str, str], Set[int]] = {
            (policy, name): set() for policy in POLICIES for name in CHECKERS
        }
        #: ``(policy, checker) -> seconds spent over all runs``
        self.seconds = dict.fromkeys(self.kills, 0.0)
        for policy in POLICIES:
            for seed in self.seeds:
                engine = DRIVERS[driver](policy, seed)
                for name, (flagged, seconds) in judge(engine).items():
                    if flagged:
                        self.kills[policy, name].add(seed)
                    self.seconds[policy, name] += seconds

    def count(self, policy: str, checker: str) -> int:
        return len(self.kills[policy, checker])

    def unique(self, policy: str, checker: str) -> Set[int]:
        """Runs of *policy* that *checker* kills and no other does."""
        others = set()
        for name in CHECKERS:
            if name != checker:
                others |= self.kills[policy, name]
        return self.kills[policy, checker] - others

    def ms_per_run(self, checker: str) -> float:
        runs = len(self.seeds) * len(POLICIES)
        total = sum(self.seconds[policy, checker] for policy in POLICIES)
        return 1000.0 * total / runs
