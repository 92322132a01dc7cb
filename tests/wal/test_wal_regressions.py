"""Pinned regressions for the durability PR.

The headline pin: the fuzzer ``crash`` injector used to draw its crash
decision only between *top-level* steps, so a crashed worker could
never have an in-flight nested child -- recovery's orphan handling
went untested.  The injector now also draws before each access inside
a child block and crash-aborts the top while the child handle is live;
these seeds pin that the new path actually fires and that the logs it
produces recover.
"""

import pytest

from repro.fuzz import FuzzConfig, run_case
from repro.wal import recover, scan_records

from tests.wal.harness import (
    engine_holders,
    mini_replay_holders,
    serial_committed,
)

#: Seeds (workers=3, tops=3, steps=5) where the in-child crash draw
#: fires; found by sweeping seeds 0..39 after the injector fix.
LIVE_CHILD_SEEDS = (2, 6, 7)


def _crash_case(seed):
    return run_case(
        FuzzConfig(
            seed=seed,
            faults="crash",
            workers=3,
            transactions_per_worker=3,
            steps_per_transaction=5,
        ),
        wal=True,
    )


class TestCrashInjectorCoversChildren:
    @pytest.mark.parametrize("seed", LIVE_CHILD_SEEDS)
    def test_crashes_fire_inside_child_blocks(self, seed):
        result = _crash_case(seed)
        assert result.kind == "ok"
        live_child_crashes = sum(
            log.crashed_with_live_child for log in result.logs
        )
        assert live_child_crashes > 0
        # Live-child crashes are a subset of all crashes.
        assert (
            sum(log.crashed for log in result.logs)
            >= live_child_crashes
        )

    def test_seed_2_pins_the_injector_stream(self):
        # The per-worker fault RNG streams are consumed in program
        # order, so the counts are exact, not merely positive.  A
        # change here means the crash placement moved: update the
        # numbers only with a fuzz re-sweep showing child coverage.
        result = _crash_case(2)
        assert [log.crashed for log in result.logs] == [2, 0, 3]
        assert [
            log.crashed_with_live_child for log in result.logs
        ] == [1, 0, 1]

    @pytest.mark.parametrize("seed", LIVE_CHILD_SEEDS)
    def test_live_child_crash_logs_recover(self, seed):
        result = _crash_case(seed)
        data = result.wal.sink.getvalue()
        state = recover(data)
        assert state.report.verdict == "complete"
        records = scan_records(data).records
        assert engine_holders(state.engine) == mini_replay_holders(
            records, "moss-rw"
        )
        assert state.report.committed == serial_committed(records)

    def test_crash_runs_replay_byte_identically(self):
        first = _crash_case(2)
        second = run_case(first.config, choices=first.choices, wal=True)
        assert second.digest == first.digest
        assert (
            second.wal.sink.getvalue() == first.wal.sink.getvalue()
        )

    def test_zero_rate_presets_draw_nothing(self):
        # Fault modes with rate 0 must not consume RNG draws, so adding
        # the in-child crash draw cannot shift deny/orphan placement
        # for presets that do not crash (pinned digests elsewhere rely
        # on this).
        result = run_case(FuzzConfig(seed=3, faults="none"))
        assert result.kind == "ok"
        assert all(log.crashed == 0 for log in result.logs)
        assert all(
            log.crashed_with_live_child == 0 for log in result.logs
        )
