"""Focused tests for the three deadlock-handling strategies."""

import hashlib

import pytest

from repro.adt import IntRegister
from repro.sim import (
    AccessOp,
    Block,
    Program,
    SimulationConfig,
    WorkloadConfig,
    make_store,
    make_workload,
    run_simulation,
)


def crossing_programs(duration=5.0):
    """The canonical deadlock pair: (a then b) against (b then a)."""
    ab = Program(
        body=Block(
            steps=[
                AccessOp("a", IntRegister.add(1), duration=duration),
                AccessOp("b", IntRegister.add(1), duration=duration),
            ],
            parallel=False,
        )
    )
    ba = Program(
        body=Block(
            steps=[
                AccessOp("b", IntRegister.add(1), duration=duration),
                AccessOp("a", IntRegister.add(1), duration=duration),
            ],
            parallel=False,
        )
    )
    return [ab, ba]


def intra_tree_program():
    """One program whose parallel branches deadlock with each other."""
    return Program(
        body=Block(
            steps=[
                Block(
                    steps=[
                        AccessOp("a", IntRegister.add(1), duration=5.0),
                        AccessOp("b", IntRegister.add(1), duration=5.0),
                    ],
                    parallel=False,
                ),
                Block(
                    steps=[
                        AccessOp("b", IntRegister.add(1), duration=5.0),
                        AccessOp("a", IntRegister.add(1), duration=5.0),
                    ],
                    parallel=False,
                ),
            ],
            parallel=True,
        )
    )


STORE = lambda: [IntRegister("a"), IntRegister("b")]


class TestStrategies:
    @pytest.mark.parametrize(
        "strategy", ["wound-wait", "detect", "timeout"]
    )
    def test_cross_deadlock_resolved(self, strategy):
        metrics = run_simulation(
            crossing_programs(),
            STORE(),
            SimulationConfig(
                mpl=2, policy="moss-rw", seed=0, deadlock=strategy,
                lock_timeout=5.0,
            ),
        )
        assert metrics.committed == 2
        assert metrics.deadlock_aborts >= 1

    @pytest.mark.parametrize(
        "strategy", ["wound-wait", "detect", "timeout"]
    )
    def test_intra_tree_deadlock_resolved(self, strategy):
        metrics = run_simulation(
            [intra_tree_program()],
            STORE(),
            SimulationConfig(
                mpl=1, policy="moss-rw", seed=0, deadlock=strategy,
                lock_timeout=5.0,
            ),
        )
        assert metrics.committed == 1

    def test_timeout_latency_exceeds_timeout(self):
        """Timeout resolution cannot beat the configured wait."""
        metrics = run_simulation(
            crossing_programs(),
            STORE(),
            SimulationConfig(
                mpl=2, policy="moss-rw", seed=0, deadlock="timeout",
                lock_timeout=30.0,
            ),
        )
        assert metrics.committed == 2
        assert metrics.makespan > 30.0

    def test_wound_wait_oldest_never_restarts(self):
        """The first-admitted program wins every conflict it enters."""
        from repro.sim.runner import _Runner

        runner = _Runner(
            crossing_programs(),
            STORE(),
            SimulationConfig(
                mpl=2, policy="moss-rw", seed=0, deadlock="wound-wait"
            ),
        )
        runner.start()
        eldest = min(
            runner.by_top.values(), key=lambda run: run.admit_order
        )
        assert eldest.attempts == 1
        assert runner.metrics.committed == 2

    def test_unknown_strategy_parks_forever_is_avoided(self):
        """Detection parks conflicting accesses, and the drain watchdog
        still finishes the workload."""
        metrics = run_simulation(
            crossing_programs(),
            STORE(),
            SimulationConfig(
                mpl=2, policy="moss-rw", seed=0, deadlock="detect"
            ),
        )
        assert metrics.committed == 2

    def test_unknown_strategy_is_rejected(self):
        """A misspelt discipline must not silently run as detection."""
        with pytest.raises(ValueError, match="wound-wait"):
            SimulationConfig(deadlock="wound_wait")


#: Nested programs with parallel sibling blocks over six hot registers:
#: on seed 1 every discipline resolves deadlocks, detection finds both
#: cross-tree cycles and an intra-tree (sibling) cycle, and wound-wait
#: restarts one self-deadlocked tree.
CONTENDED_NESTED = WorkloadConfig(
    programs=16, objects=6, read_fraction=0.2, depth=2, fanout=2,
    parallel_blocks=True,
)

#: Digests of the full run (row, final state, latencies, wait time);
#: any change to victim choice or retry timing moves them.
PINNED = {
    "wound-wait": (
        "fd58f67d40ad4299be8fa8b59f56bcc4891fa213e9d3397270d1abd20ef0ea8e"
    ),
    "detect": (
        "9135b8a42d52e67ac4d2ee28241d307752e7b31ba79d5a6d96d9c81c4fe4daf0"
    ),
    "timeout": (
        "c5692fdd28ac05b041c3d586e77552fbef8635d5c8c62b9d401bf8f9f43c8245"
    ),
}


def run_digest(strategy):
    metrics = run_simulation(
        make_workload(1, CONTENDED_NESTED),
        make_store(CONTENDED_NESTED),
        SimulationConfig(
            mpl=6, policy="moss-rw", seed=1, deadlock=strategy,
            lock_timeout=8.0,
        ),
    )
    hasher = hashlib.sha256()
    hasher.update(repr(metrics.row()).encode())
    hasher.update(repr(sorted(metrics.final_state.items())).encode())
    hasher.update(repr(metrics.latencies).encode())
    hasher.update(repr(metrics.wait_time).encode())
    return metrics, hasher.hexdigest()


class TestPinnedSchedules:
    @pytest.mark.parametrize("strategy", sorted(PINNED))
    def test_schedule_is_pinned(self, strategy):
        metrics, digest = run_digest(strategy)
        assert metrics.committed == CONTENDED_NESTED.programs
        assert metrics.deadlock_aborts > 0
        assert digest == PINNED[strategy]
