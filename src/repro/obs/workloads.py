"""Ready-made observed workloads for the ``trace`` and ``top`` commands.

Each function drives one execution layer with an
:class:`~repro.obs.observer.Observer` (and an optional auditor) attached
and returns a small result summary; the CLI then exports the
observer's trace and report.
Workloads are seeded and deterministic (the threaded one is
deterministic in its *work*, though wall-clock span timings naturally
vary run to run).
"""

from __future__ import annotations

import random
import threading
from functools import partial
from typing import Dict, Optional

from repro.obs.observer import Observer


def run_quickstart(
    observer: Observer, seed: int = 0, auditor=None
) -> Dict[str, int]:
    """The quickstart scenario: nested transfers with abortable legs."""
    from repro.adt import BankAccount, IntRegister
    from repro.engine import Engine

    engine = Engine(
        [
            BankAccount("acct", 100),
            BankAccount("savings", 50),
            IntRegister("audit_log"),
        ],
        observer=observer,
    )
    if auditor is not None:
        engine.attach_auditor(auditor)
    rng = random.Random(seed)
    transfers = 0
    failures = 0
    for round_index in range(6):
        with engine.begin_top() as transfer:
            amount = rng.randrange(10, 80)
            leg = transfer.begin_child()
            if leg.perform("acct", BankAccount.withdraw(amount)):
                leg.commit()
                credit = transfer.begin_child()
                credit.perform("savings", BankAccount.deposit(amount))
                credit.commit()
                transfer.perform("audit_log", IntRegister.add(1))
                transfers += 1
            else:
                leg.abort()
                failures += 1
        with engine.begin_top() as audit:
            audit.perform("acct", BankAccount.balance())
            audit.perform("savings", BankAccount.balance())
            audit.perform("audit_log", IntRegister.read())
    observer.finish()
    return {"transfers": transfers, "insufficient": failures}


def run_banking(
    observer: Observer, seed: int = 0, transfers: int = 40, auditor=None
) -> Dict[str, int]:
    """The banking example's transfer batch (fallback-debit pattern)."""
    from repro.adt import BankAccount
    from repro.engine import Engine
    from repro.errors import LockDenied

    accounts = ["acct%d" % index for index in range(10)]
    engine = Engine(
        [BankAccount(name, 100) for name in accounts],
        observer=observer,
    )
    if auditor is not None:
        engine.attach_auditor(auditor)
    rng = random.Random(seed)
    ok = 0
    aborted = 0
    for _ in range(transfers):
        source, fallback, target = rng.sample(accounts, 3)
        amount = rng.randrange(10, 120)
        with engine.begin_top() as transfer:
            debited = None
            for candidate in (source, fallback):
                leg = transfer.begin_child()
                try:
                    if leg.perform(
                        candidate, BankAccount.withdraw(amount)
                    ):
                        leg.commit()
                        debited = candidate
                        break
                    leg.abort()
                except LockDenied:
                    leg.abort()
            if debited is None:
                transfer.abort()
                aborted += 1
                continue
            credit = transfer.begin_child()
            credit.perform(target, BankAccount.deposit(amount))
            credit.commit()
            ok += 1
    observer.finish()
    return {"transfers": ok, "aborted": aborted}


def run_threads(
    observer: Observer,
    seed: int = 0,
    workers: int = 4,
    increments: int = 25,
    auditor=None,
) -> Dict[str, int]:
    """Worker threads contending on shared counters (one track each)."""
    from repro.adt import Counter
    from repro.engine.threadsafe import ThreadSafeEngine
    from repro.errors import LockDenied, TransactionAborted

    from repro.core.sampling import threshold_index

    facade = ThreadSafeEngine(
        [Counter("hot"), Counter("warm"), Counter("cold")],
        observer=observer,
    )
    if auditor is not None:
        facade.attach_auditor(auditor)
    wounded = [0] * workers
    # Zipf-ish skew: most increments hit the hot counter.  The cut
    # points reproduce the historical inline ladder
    # (roll < 0.7 -> hot, < 0.9 -> warm, else cold) exactly.
    names = ("hot", "warm", "cold")
    cuts = (0.7, 0.9)

    def body(worker_id: int) -> None:
        rng = random.Random(seed * 1000 + worker_id)
        for _ in range(increments):
            name = names[threshold_index(rng, cuts)]
            top = facade.begin_top()
            try:
                top.perform(name, Counter.increment(1))
                top.commit()
            except (TransactionAborted, LockDenied):
                wounded[worker_id] += 1
                if top.is_active:
                    top.abort()

    threads = [
        threading.Thread(
            target=body, args=(worker_id,), name="worker-%d" % worker_id
        )
        for worker_id in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = facade.object_value("hot") + facade.object_value(
        "warm"
    ) + facade.object_value("cold")
    observer.finish()
    return {"committed_increments": total, "wounded": sum(wounded)}


def run_contended_sim(
    observer: Observer,
    seed: int = 0,
    programs: int = 24,
    objects: int = 6,
    mpl: int = 8,
    policy: str = "moss-rw",
    zipf_skew: float = 0.9,
    read_fraction: float = 0.2,
):
    """A deliberately contended simulation run (for ``repro top``)."""
    from repro.sim import (
        SimulationConfig,
        WorkloadConfig,
        make_store,
        make_workload,
        run_simulation,
    )

    config = WorkloadConfig(
        programs=programs,
        objects=objects,
        read_fraction=read_fraction,
        zipf_skew=zipf_skew,
        depth=2,
        fanout=2,
        accesses_per_block=2,
    )
    workload = make_workload(seed, config)
    store = make_store(config)
    metrics = run_simulation(
        workload,
        store,
        SimulationConfig(mpl=mpl, policy=policy, seed=seed),
        observer=observer,
    )
    observer.finish()
    return metrics


def run_scenario_workload(
    observer: Observer,
    seed: int = 0,
    name: str = "bank",
    transactions: int = 30,
    auditor=None,
) -> Dict[str, int]:
    """A library scenario on the DES simulator, observed.

    Backs the ``scenario:<name>`` entries in :data:`WORKLOADS` so
    ``repro trace --workload scenario:bank`` traces declarative
    scenarios through the same pipeline as the hand-written demos.
    """
    from repro.scenario import compile_scenario, get_driver
    from repro.scenario.library import load_library_scenario

    spec = load_library_scenario(name)
    compiled = compile_scenario(
        spec, seed, transactions=min(transactions, spec.transactions)
    )
    result = get_driver("sim").run(
        compiled, scheme="moss-rw", observer=observer, auditor=auditor
    )
    observer.finish()
    return {
        "committed": result.committed,
        "aborted": result.aborted,
        "accesses": result.ops,
    }


def _scenario_workloads() -> Dict[str, object]:
    from repro.scenario.library import library_names

    return {
        "scenario:%s" % name: partial(run_scenario_workload, name=name)
        for name in library_names()
    }


WORKLOADS = {
    "quickstart": run_quickstart,
    "banking": run_banking,
    "threads": run_threads,
}
WORKLOADS.update(_scenario_workloads())


def run_workload(
    name: str, observer: Observer, seed: int = 0, auditor=None
) -> Optional[Dict[str, int]]:
    try:
        runner = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            "unknown workload %r (choose from %s)"
            % (name, ", ".join(sorted(WORKLOADS)))
        ) from None
    return runner(observer, seed=seed, auditor=auditor)
