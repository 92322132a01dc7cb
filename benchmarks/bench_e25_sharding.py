"""E25 (multiprocess sharding: does escaping the GIL buy throughput?).

Extends E18's facade-depth report with a multiprocess regime.  E18
shows that on *pure-Python* operations extra threads cannot speed up
the in-process ThreadSafeEngine on CPython -- the GIL serialises the
work whatever the facade's locking does.  The sharded engine (`repro.shard`) is the
other answer: N spawn worker processes, each running the single-threaded
Engine over its shard of the object store, with cross-shard trees
committed by presumed-abort 2PC at the coordinator.

The workload is E18's pure-Python one (three random register reads over
a 32-object pool, plus a per-thread counter increment every 10th
transaction), driven by the same 4 client threads against:

* ``facade``         -- the in-process ThreadSafeEngine baseline;
* ``sharded-1w``     -- one worker process: everything takes the
  single-shard one-phase fast path, so this row prices the IPC seam
  (framed-JSON over a pipe per access) against the in-process facade;
* ``sharded-2w`` / ``sharded-4w`` -- the scaling regimes: reads spread
  over shards, most commits cross shards and pay real 2PC.

Headline: committed-transactions/second vs worker count.  The ``cpus``
column qualifies every row -- on a single-core host the workers time-
slice one core and IPC overhead is all you can see, so the acceptance
thresholds (>= 1.8x at 4 workers, fast-path overhead <= 25 percent)
only assert on hosts with >= 4 cores; elsewhere the rows are reported
for the record and only sanity floors are asserted.

Environment knobs (for the CI shard-smoke job):

* ``E25_QUICK=1`` shrinks the run to smoke-test size;
* ``E25_JSON=<path>`` writes the rows (plus speedup summary) as JSON.
"""

import json
import os
import random
import threading
import time

from conftest import print_table, run_once

from repro.adt import Counter, IntRegister
from repro.engine.threadsafe import ThreadSafeEngine
from repro.errors import LockDenied, TransactionAborted
from repro.shard import ShardedEngine

THREADS = 4
OBJECTS = 32


def _specs(threads, objects):
    specs = [IntRegister("r%d" % index) for index in range(objects)]
    specs += [Counter("own%d" % index) for index in range(threads)]
    return specs


def _drive(facade, threads, transactions, objects):
    """E18's pure-Python workload against any facade; returns timing.

    Conflict-free by construction (shared reads, per-thread counters),
    but wound-wait on the sharded path may still abort a tree that
    races a shard join, so the loop retries denials defensively.
    """
    barrier = threading.Barrier(threads + 1)
    errors = []

    def worker(worker_id):
        rng = random.Random(worker_id)
        barrier.wait()
        try:
            for index in range(transactions):
                for _attempt in range(50):
                    top = facade.begin_top()
                    try:
                        for _ in range(3):
                            top.perform(
                                "r%d" % rng.randrange(objects),
                                IntRegister.read(),
                            )
                        if index % 10 == 0:
                            top.perform(
                                "own%d" % worker_id,
                                Counter.increment(1),
                            )
                        top.commit()
                        break
                    except (TransactionAborted, LockDenied):
                        if top.is_active:
                            try:
                                top.abort()
                            except TransactionAborted:
                                pass
        except BaseException as exc:  # surfaced to the caller
            errors.append(exc)

    pool = [
        threading.Thread(target=worker, args=(worker_id,))
        for worker_id in range(threads)
    ]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    committed = facade.engine.stats["commits"]
    assert committed >= threads * transactions
    return elapsed, committed


def _row(regime, workers, threads, cpus, elapsed, committed):
    return {
        "regime": regime,
        "workers": workers,
        "threads": threads,
        "cpus": cpus,
        "txns": committed,
        "seconds": round(elapsed, 3),
        "txns_per_sec": int(committed / max(elapsed, 1e-9)),
    }


def test_e25_sharding_scalability(benchmark):
    """The in-process facade vs the multiprocess sharded engine."""
    quick = bool(os.environ.get("E25_QUICK"))
    transactions = 40 if quick else 250
    cpus = os.cpu_count() or 1

    def experiment():
        rows = []
        # Warm the in-process path (thread spawn, lock tables).
        _drive(
            ThreadSafeEngine(_specs(THREADS, OBJECTS)),
            THREADS,
            5,
            OBJECTS,
        )
        facade = ThreadSafeEngine(_specs(THREADS, OBJECTS))
        elapsed, committed = _drive(
            facade, THREADS, transactions, OBJECTS
        )
        rows.append(
            _row("facade", 0, THREADS, cpus, elapsed, committed)
        )
        for workers in (1, 2, 4):
            with ShardedEngine(
                _specs(THREADS, OBJECTS), workers=workers
            ) as sharded:
                # Warm outside the timed window: spawn + handshake
                # cost is a startup fee, not a per-transaction one.
                _drive(sharded, THREADS, 2, OBJECTS)
                base = sharded.engine.stats["commits"]
                elapsed, committed = _drive(
                    sharded, THREADS, transactions, OBJECTS
                )
                committed -= base
                rows.append(
                    _row(
                        "sharded-%dw" % workers,
                        sharded.shards,
                        THREADS,
                        cpus,
                        elapsed,
                        committed,
                    )
                )
        return rows

    rows = run_once(benchmark, experiment)
    by_regime = {row["regime"]: row for row in rows}
    baseline = by_regime["facade"]["txns_per_sec"]
    for row in rows:
        row["speedup_vs_facade"] = round(
            row["txns_per_sec"] / max(baseline, 1), 2
        )
    print_table("E25: multiprocess sharding scalability", rows)
    json_path = os.environ.get("E25_JSON")
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(
                {
                    "experiment": "e25_sharding_scalability",
                    "cpus": cpus,
                    "rows": rows,
                },
                handle,
                indent=2,
            )
            handle.write("\n")
    # Sanity floors everywhere; the acceptance thresholds only make
    # sense with real cores to scale onto (see module docstring).
    assert all(row["txns_per_sec"] > 0 for row in rows)
    if cpus >= 4:
        assert (
            by_regime["sharded-4w"]["txns_per_sec"]
            >= 1.8 * baseline
        ), "4-worker sharding must beat the facade 1.8x"
        assert (
            by_regime["sharded-1w"]["txns_per_sec"]
            >= 0.75 * baseline
        ), "single-shard fast path may cost at most 25 percent"
