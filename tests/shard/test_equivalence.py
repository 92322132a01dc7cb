"""Cross-scheme equivalence: sharded execution equals in-process.

Per the paper's footnote 9, distribution is orthogonal to the locking
algorithm: the sharded engine must compute *exactly* what the proven
in-process engine computes.  Two independent checks:

* deterministic random programs (sequential trees with nested
  children) driven step-for-step through the ThreadSafeEngine and the
  ShardedEngine -- every perform result and every final committed
  value must agree, for every durable-or-not scheme, across seeds,
  with the online auditor watching the sharded side;
* declarative scenarios (``repro.scenario``): the sharded backend's
  state digest must equal the deterministic sim backend's and the
  threadsafe backend's for the same compiled spec.
"""

import random

import pytest

from repro.adt import Counter, IntRegister
from repro.engine.threadsafe import ThreadSafeEngine
from repro.errors import TransactionAborted
from repro.scenario import compile_scenario, load_scenario
from repro.scenario.backends import get_driver
from repro.scenario.library import library_path
from repro.shard import ShardedEngine

SCHEMES = ("moss-rw", "exclusive", "flat-2pl", "mvto")
SEEDS = range(10)


def _specs():
    specs = [IntRegister("r%d" % index) for index in range(6)]
    specs += [Counter("c%d" % index) for index in range(3)]
    return specs


def _program(seed, trees=8):
    """A deterministic list of per-tree op scripts.

    Trees run sequentially (no inter-tree concurrency: both engines
    must then agree exactly, with no scheduler latitude), but each
    tree nests children and mixes reads, writes and aborts.
    """
    rng = random.Random(seed)
    program = []
    for _ in range(trees):
        ops = []
        for _ in range(rng.randrange(2, 7)):
            kind = rng.random()
            target = rng.randrange(9)
            if target < 6:
                name = "r%d" % target
                op = (
                    ("perform", name, IntRegister.read())
                    if kind < 0.5
                    else (
                        "perform",
                        name,
                        IntRegister.write(rng.randrange(100)),
                    )
                )
            else:
                name = "c%d" % (target - 6)
                op = (
                    ("perform", name, Counter.value())
                    if kind < 0.5
                    else (
                        "perform",
                        name,
                        Counter.increment(rng.randrange(1, 5)),
                    )
                )
            ops.append(op)
            if rng.random() < 0.25:
                ops.append(("child", rng.random() < 0.7))
        program.append((ops, rng.random() < 0.85))
    return program


def _run_program(facade, program):
    """Drive *program*; returns (perform results, final values).

    A scheme that escalates a child's abort (flat 2PL) kills the whole
    tree: the next call on it raises ``TransactionAborted``, which is
    recorded as a result before the next tree starts.
    """
    results = []
    for ops, commit_top in program:
        top = facade.begin_top()
        cursor = top
        try:
            for op in ops:
                if op[0] == "perform":
                    _, name, operation = op
                    results.append(cursor.perform(name, operation))
                else:
                    # ("child", commit?): push a nested child, run the
                    # *next* ops inside it... closed immediately keeps
                    # the scripts trivially replayable, so instead the
                    # child performs one marker read and closes.
                    child = cursor.begin_child()
                    value = child.perform("r0", IntRegister.read())
                    results.append(value)
                    if op[1]:
                        child.commit()
                    else:
                        child.abort()
            if commit_top:
                top.commit()
            else:
                top.abort()
        except TransactionAborted:
            results.append("tree aborted")
            continue
        results.append(("closed", commit_top))
    values = {
        name: facade.object_value(name)
        for name in ("r%d" % i for i in range(6))
    }
    values.update(
        ("c%d" % i, facade.object_value("c%d" % i)) for i in range(3)
    )
    return results, values


class TestProgramEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sharded_matches_inprocess_across_seeds(self, scheme):
        for seed in SEEDS:
            program = _program(seed)
            reference = _run_program(
                ThreadSafeEngine(_specs(), policy=scheme), program
            )
            with ShardedEngine(
                _specs(), policy=scheme, workers=2
            ) as sharded:
                auditor = sharded.attach_auditor()
                observed = _run_program(sharded, program)
            assert observed == reference, "seed %d diverged" % seed
            assert auditor.verdict == "clean", (
                "seed %d: %r" % (seed, auditor.report())
            )


class TestScenarioDigests:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sharded_backend_matches_deterministic_backends(
        self, scheme
    ):
        spec = load_scenario(library_path("inventory"))
        compiled = compile_scenario(spec, 1)
        sim = get_driver("sim").run(compiled, scheme=scheme)
        threadsafe = get_driver("threadsafe").run(
            compiled, scheme=scheme, workers=2
        )
        sharded = get_driver("sharded").run(
            compiled, scheme=scheme, workers=2
        )
        assert sim.digest == threadsafe.digest
        assert sim.digest == sharded.digest
        assert sharded.committed > 0
