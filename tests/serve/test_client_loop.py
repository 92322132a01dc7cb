"""The one client loop: failure vocabulary, retries, latency origin.

:func:`repro.serve.loadgen.run_clients` runs every client in the
package -- both load generator modes and the scenario's live
backends.  These tests pin what it retries (exactly the wire
taxonomy's retryable codes), what it raises, and that an open loop
measures latency from the *scheduled* arrival.
"""

import contextlib
import random
import sys
import threading

import pytest

from repro.adt import Counter
from repro.errors import (
    InvalidTransactionState,
    LockDenied,
    RetryLater,
    TransactionAborted,
)
from repro.serve import protocol as proto
from repro.serve.client import ServeError
from repro.serve.loadgen import (
    CONNECTION_LOST,
    Job,
    LoadgenConfig,
    LoadReport,
    _arrivals,
    _Workload,
    failure_code,
    run_clients,
    run_loadgen,
)
from repro.serve.server import ServeConfig, TransactionServer


class _ScriptedPort:
    """One port whose attempts raise a script of failures, then pass."""

    def __init__(self, failures):
        self.failures = list(failures)
        self.commits = 0
        self.aborts = 0

    def begin_top(self):
        return self

    def commit(self):
        self.commits += 1

    def abort(self):
        self.aborts += 1


def _attempt(port, job):
    if port.failures:
        raise port.failures.pop(0)
    return 1


def _run(port, jobs=1, max_retries=3, strict=False):
    report = LoadReport("test")
    run_clients(
        lambda: contextlib.nullcontext(port),
        lambda index: [Job(None, 0.0) for _ in range(jobs)],
        _attempt,
        lambda job, exc, tries: 0.0,
        report,
        1,
        max_retries,
        strict=strict,
    )
    return report


def _wire_error(code):
    return ServeError({"ok": False, "error": {"code": code}})


class TestFailureVocabulary:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (TransactionAborted((1,)), proto.ERR_TXN_ABORTED),
            (LockDenied("timed out"), proto.ERR_LOCK_DENIED),
            (RetryLater("ordered wait"), proto.ERR_RETRY_LATER),
            (InvalidTransactionState("misuse"), proto.ERR_INVALID_STATE),
            (_wire_error(proto.ERR_OVERLOADED), proto.ERR_OVERLOADED),
            (ConnectionError("reset"), CONNECTION_LOST),
        ],
    )
    def test_facade_and_wire_failures_share_the_codes(self, exc, code):
        assert failure_code(exc) == code


class TestRetries:
    def test_retryable_failures_retry_until_commit(self):
        port = _ScriptedPort(
            [TransactionAborted((1,)), _wire_error(proto.ERR_OVERLOADED)]
        )
        report = _run(port)
        assert report.committed == 1
        assert report.retries == 2
        assert report.errors == {"overloaded": 1, "txn_aborted": 1}
        # Every failed attempt's top was aborted; the last committed.
        assert (port.aborts, port.commits) == (2, 1)

    def test_spent_budget_gives_up(self):
        port = _ScriptedPort([LockDenied("x")] * 5)
        report = _run(port, max_retries=2)
        assert report.committed == 0
        assert report.aborted == 3
        assert report.retries == 2

    def test_non_retryable_failure_is_not_retried(self):
        port = _ScriptedPort([InvalidTransactionState("misuse")])
        report = _run(port, jobs=2)
        assert report.failed == 1
        assert report.retries == 0
        assert report.committed == 1  # the next job still ran

    def test_strict_raises_non_retryable_failures(self):
        port = _ScriptedPort([InvalidTransactionState("misuse")])
        with pytest.raises(InvalidTransactionState):
            _run(port, strict=True)

    def test_a_bug_always_raises(self):
        port = _ScriptedPort([KeyError("bug")])
        with pytest.raises(KeyError):
            _run(port)

    def test_lost_connection_ends_the_client(self):
        port = _ScriptedPort([ConnectionError("reset")])
        report = _run(port, jobs=3)
        assert report.errors == {CONNECTION_LOST: 1}
        assert report.committed == 0


class TestOpenLoopArrivals:
    def test_shared_stream_is_the_serial_draw_sequence(self):
        """Eight threads draining the stream see one seeded sequence.

        Each arrival draws its gap and then its plan under one lock,
        so however the clients interleave, the (arrival, plan) pairs
        are exactly a serial draw's: none lost, none repeated, none
        torn between two threads.
        """
        workload = _Workload(["a", "b", "c"], 3, 0.5)
        rng = random.Random(5)
        expected, scheduled = [], 0.0
        while True:
            scheduled += rng.expovariate(5000.0)
            if scheduled >= 1.0:
                break
            expected.append((scheduled, workload.plan(rng)))
        arrival = _arrivals(workload, random.Random(5), 5000.0, 0.0, 1.0)
        taken = [[] for _ in range(8)]

        def drain(index):
            for job in iter(arrival, None):
                taken[index].append((job.start, job.plan))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=drain, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        got = sorted(pair for pairs in taken for pair in pairs)
        assert len(expected) > 4000
        assert got == expected
        assert arrival() is None


class TestOpenLoopLatencyOrigin:
    def test_queueing_behind_busy_connections_counts(self):
        """One connection offered far more than it sustains.

        An open loop measures from the *scheduled* arrival, so the
        backlog queued behind the one busy connection shows in its
        latency; measuring from ``begin`` (coordinated omission)
        would read about the closed loop's per-transaction time.
        """
        server = TransactionServer(
            [Counter("c%d" % i) for i in range(4)],
            config=ServeConfig(port=0),
        )
        handle = server.start_in_thread()
        try:
            host, port = server.address
            shape = dict(
                host=host, port=port, clients=1, ops_per_txn=2, seed=3
            )
            closed = run_loadgen(
                LoadgenConfig(mode="closed", duration=0.3, **shape)
            )
            opened = run_loadgen(
                LoadgenConfig(
                    mode="open", duration=0.1, rate=10000.0, **shape
                )
            )
        finally:
            handle.stop()
        assert closed.failed == opened.failed == 0
        assert closed.committed > 0 and opened.committed > 0
        assert opened.latency_ms(0.95) > 5 * closed.latency_ms(0.50)
