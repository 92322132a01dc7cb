"""Crash durability: SIGKILL anywhere, acked commits survive.

The contract under test (docs/SHARDING.md failure matrix): a commit
is acknowledged only after every participant flushed its COMMIT
record, so killing the coordinator or any worker -- with SIGKILL, no
cleanup -- must leave per-shard WALs from which
:func:`repro.shard.recover_sharded` reaches a decisive verdict with
every acked commit's effects present (in-doubt trees resolve by
presumed abort or decision-record roll-forward).
"""

import os
import signal
import subprocess
import sys
import textwrap
import zlib

import pytest

from repro.adt import Counter
from repro.errors import EngineError
from repro.shard import ShardDown, ShardedEngine, recover_sharded
from repro.shard.recovery import DecisionLog, read_decisions


def _counter_specs(count=8):
    return [Counter("k%d" % index) for index in range(count)]


def _cross_shard_targets(engine):
    """One object name per shard, so every commit pays real 2PC."""
    targets = {}
    for name in engine.store.names():
        targets.setdefault(engine.store.shard_of(name), name)
    return [targets[shard] for shard in sorted(targets)]


class TestWorkerKill:
    def test_sigkill_worker_mid_load(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        engine = ShardedEngine(_counter_specs(), workers=2)
        engine.attach_wal(wal_dir=wal_dir)
        engine.start()
        targets = _cross_shard_targets(engine)
        assert len(targets) == 2
        acked = 0
        for _ in range(6):
            top = engine.begin_top()
            for name in targets:
                top.perform(name, Counter.increment(1))
            top.commit()
            acked += 1
        victim = engine.worker_pids[0]
        os.kill(victim, signal.SIGKILL)
        # The dead shard surfaces as ShardDown, not a hang.
        with pytest.raises((ShardDown, EngineError)):
            for _ in range(20):
                top = engine.begin_top()
                for name in targets:
                    top.perform(name, Counter.increment(1))
                top.commit()
        engine.close()

        state = recover_sharded(wal_dir)
        assert state.verdict in ("complete", "partial")
        committed = state.committed()
        for name in targets:
            assert committed.get(name, 0) >= acked, state.render()

    def test_kill_then_recovery_is_decisive_per_shard(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        engine = ShardedEngine(_counter_specs(), workers=2)
        engine.attach_wal(wal_dir=wal_dir)
        engine.start()
        targets = _cross_shard_targets(engine)
        top = engine.begin_top()
        for name in targets:
            top.perform(name, Counter.increment(1))
        top.commit()
        for pid in engine.worker_pids:
            os.kill(pid, signal.SIGKILL)
        engine.close()
        state = recover_sharded(wal_dir)
        # Every shard's log replays on its own; the decision log
        # cross-checks the decided commits.
        assert sorted(state.shards) == [0, 1]
        assert not state.shard_errors
        assert state.decisions, "cross-shard commit must be decided"
        assert state.committed()[targets[0]] == 1


class TestCoordinatorKill:
    DRIVER = textwrap.dedent(
        """
        import sys

        from repro.adt import Counter
        from repro.shard import ShardedEngine


        def main():
            wal_dir = sys.argv[1]
            specs = [Counter("k%d" % i) for i in range(8)]
            engine = ShardedEngine(specs, workers=2)
            engine.attach_wal(wal_dir=wal_dir)
            engine.start()
            targets = {}
            for name in engine.store.names():
                targets.setdefault(engine.store.shard_of(name), name)
            picks = [targets[s] for s in sorted(targets)]
            acked = 0
            while True:
                top = engine.begin_top()
                for name in picks:
                    top.perform(name, Counter.increment(1))
                top.commit()
                acked += 1
                print("acked %d" % acked, flush=True)


        if __name__ == "__main__":
            main()
        """
    )

    def test_sigkill_coordinator_mid_load(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        script = tmp_path / "driver.py"
        script.write_text(self.DRIVER)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), wal_dir],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=os.getcwd(),
            start_new_session=True,
            text=True,
        )
        acked = 0
        try:
            for line in proc.stdout:
                if line.startswith("acked"):
                    acked = int(line.split()[1])
                if acked >= 5:
                    break
            # SIGKILL the whole session: coordinator AND workers die
            # with no chance to flush anything further.
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()
        assert acked >= 5

        state = recover_sharded(wal_dir)
        committed = state.committed()
        per_shard_targets = {}
        for name in ("k%d" % i for i in range(8)):
            per_shard_targets.setdefault(
                __import__("zlib").crc32(name.encode()) % 2, name
            )
        for name in per_shard_targets.values():
            assert committed.get(name, 0) >= acked, state.render()


class TestReadOnlyParticipantCrash:
    """A shard the tree only read on gets its ``decide`` held until the
    next write on its link; a crash before that write costs nothing."""

    DRIVER = textwrap.dedent(
        """
        import sys
        import time

        from repro.adt import Counter
        from repro.shard import ShardedEngine


        def main():
            wal_dir, shape = sys.argv[1], sys.argv[2]
            specs = [Counter("k%d" % i) for i in range(8)]
            engine = ShardedEngine(specs, workers=2)
            engine.attach_wal(wal_dir=wal_dir)
            engine.start()
            targets = {}
            for name in engine.store.names():
                targets.setdefault(engine.store.shard_of(name), name)
            top = engine.begin_top()
            reader = top.begin_child() if shape == "nested" else top
            reader.perform(targets[0], Counter.value())
            if reader is not top:
                reader.commit()
            top.perform(targets[1], Counter.increment(1))
            top.commit()
            print("acked", flush=True)
            time.sleep(60)  # nothing more crosses either link


        if __name__ == "__main__":
            main()
        """
    )

    @pytest.mark.parametrize("shape", ["flat", "nested"])
    def test_kill_before_the_held_decide_left(self, tmp_path, shape):
        wal_dir = str(tmp_path / "wal")
        script = tmp_path / "driver.py"
        script.write_text(self.DRIVER)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), wal_dir, shape],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            cwd=os.getcwd(),
            start_new_session=True,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "acked"
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()

        state = recover_sharded(wal_dir)
        assert state.verdict == "complete", state.render()
        assert not state.shard_errors and not state.in_doubt
        # One writer committed in one phase: no decision record.
        assert state.decisions == []
        names = {
            zlib.crc32(name.encode()) % 2: name
            for name in reversed(["k%d" % i for i in range(8)])
        }
        committed = state.committed()
        assert committed[names[1]] == 1, state.render()
        assert committed.get(names[0], 0) == 0, state.render()
        presumed = state.shards[0].report.presumed_aborted
        if shape == "nested":
            # The reader voted (its subcommit was unacked), so prepare
            # made its records durable: they replay to a tree that
            # recovery presumes aborted.
            assert len(presumed) == 1, state.render()
        else:
            # A quiet reader's records may still sit in its worker's
            # write buffer; either way nothing of the tree commits.
            assert len(presumed) <= 1, state.render()


class TestRecoveryErrors:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(EngineError):
            recover_sharded(str(tmp_path / "nope"))

    def test_empty_directory_raises(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(EngineError):
            recover_sharded(str(empty))


class TestDecisionLogDamage:
    """A damaged tail costs the decisions behind it, never those before:
    losing a good decision presumes a decided cross-shard tree aborted."""

    def _segment(self, wal_dir, count=10):
        log = DecisionLog(wal_dir)
        for ordinal in range(count):
            log.log(ordinal, [0, 1], {"0": ordinal, "1": ordinal})
        log.close()
        path = os.path.join(log.directory, "wal-00000000.seg")
        with open(path, "rb") as handle:
            return path, handle.read()

    def test_flipped_byte_in_last_record_keeps_the_nine_before(
        self, tmp_path
    ):
        wal_dir = str(tmp_path)
        path, data = self._segment(wal_dir)
        damaged = bytearray(data)
        damaged[-6] ^= 0xFF  # inside record 10's body
        with open(path, "wb") as handle:
            handle.write(bytes(damaged))
        decisions = read_decisions(wal_dir)
        assert [d["txn"] for d in decisions] == [[n] for n in range(9)]

    def test_truncation_mid_record_keeps_the_nine_before(self, tmp_path):
        wal_dir = str(tmp_path)
        path, data = self._segment(wal_dir)
        with open(path, "wb") as handle:
            handle.write(data[:-3])
        decisions = read_decisions(wal_dir)
        assert [d["txn"] for d in decisions] == [[n] for n in range(9)]
        assert decisions[0] == {
            "decision": "commit",
            "local": {"0": 0, "1": 0},
            "participants": [0, 1],
            "txn": [0],
        }
