"""Unit tests for the session layer (no sockets: messages in, out).

A :class:`~repro.serve.session.Session` is driven here exactly as the
server's worker threads drive it -- ``run(message) -> response`` --
so every protocol-level contract (error codes, idempotent abort,
wound translation, ownership) is pinned without network plumbing.
"""

import pytest

from repro.adt import Counter, IntRegister
from repro.engine.threadsafe import ThreadSafeEngine
from repro.serve import protocol as proto
from repro.serve.session import Session


@pytest.fixture()
def facade():
    return ThreadSafeEngine(
        [Counter("c"), IntRegister("r")], policy="moss-rw"
    )


@pytest.fixture()
def session(facade):
    return Session(facade, conn_id=0, op_timeout=0.2)


def run(session, op, request_id=1, **fields):
    return session.run(proto.request(op, request_id, **fields))


def begin(session):
    response = run(session, "begin")
    assert response["ok"]
    return response["txn"]


class TestHappyPath:
    def test_begin_write_read_commit(self, session):
        txn = begin(session)
        assert run(session, "write", txn=txn, object="r", value=7)["ok"]
        response = run(session, "read", txn=txn, object="r")
        assert response["ok"] and response["result"] == 7
        assert run(session, "commit", txn=txn)["ok"]
        # Committed data visible to a later transaction.
        txn2 = begin(session)
        assert run(session, "read", txn=txn2, object="r")["result"] == 7

    def test_typed_operations(self, session):
        txn = begin(session)
        run(
            session, "write",
            txn=txn, object="c", kind="increment", args=[5],
        )
        response = run(
            session, "read", txn=txn, object="c", kind="value"
        )
        assert response["result"] == 5

    def test_child_commit_merges_into_parent(self, session):
        parent = begin(session)
        child = run(session, "child", txn=parent)["txn"]
        assert child == parent + [0]
        run(session, "write", txn=child, object="r", value=3)
        assert run(session, "commit", txn=child)["ok"]
        assert run(session, "read", txn=parent, object="r")["result"] == 3

    def test_child_abort_discards_only_subtree(self, session):
        parent = begin(session)
        run(session, "write", txn=parent, object="r", value=1)
        child = run(session, "child", txn=parent)["txn"]
        run(session, "write", txn=child, object="r", value=99)
        assert run(session, "abort", txn=child)["ok"]
        assert run(session, "read", txn=parent, object="r")["result"] == 1
        # The parent is still usable; the child's name is retired.
        assert (
            run(session, "read", txn=child, object="r")["error"]["code"]
            == proto.ERR_UNKNOWN_TXN
        )


class TestErrorTaxonomy:
    def test_unknown_op(self, session):
        assert (
            run(session, "snapshot")["error"]["code"]
            == proto.ERR_BAD_REQUEST
        )

    def test_missing_fields_are_bad_requests(self, session):
        txn = begin(session)
        for message in (
            proto.request("read", 1, txn=txn),  # no object
            proto.request("write", 2, txn=txn, object="r"),  # no value
            proto.request("read", 3, object="r"),  # no txn
            proto.request("read", 4, txn=["x"], object="r"),
        ):
            response = session.run(message)
            assert response["error"]["code"] == proto.ERR_BAD_REQUEST

    def test_boolean_txn_parts_are_bad_requests(self, session):
        # JSON ``true`` decodes to True, and (True,) == (1,): a name
        # made of booleans must not reach the tree named [1].
        names = [begin(session) for _ in range(2)]
        assert [1] in names
        wire = proto.encode_frame(
            proto.request("read", 1, txn=[True], object="r")
        )
        message = proto.decode_frame(wire)
        assert message["txn"] == [True]
        response = session.run(message)
        assert response["error"]["code"] == proto.ERR_BAD_REQUEST
        for bad in ([True], [1, False], (0, True)):
            with pytest.raises(ValueError):
                proto.txn_name(bad)

    def test_foreign_txn_is_unknown(self, session):
        response = run(session, "read", txn=[404], object="r")
        assert response["error"]["code"] == proto.ERR_UNKNOWN_TXN
        response = run(session, "commit", txn=[404])
        assert response["error"]["code"] == proto.ERR_UNKNOWN_TXN

    def test_commit_with_live_children_is_invalid(self, session):
        txn = begin(session)
        run(session, "child", txn=txn)
        response = run(session, "commit", txn=txn)
        assert response["error"]["code"] == proto.ERR_INVALID_STATE

    def test_commit_retires_the_whole_tree(self, session):
        txn = begin(session)
        child = run(session, "child", txn=txn)["txn"]
        assert run(session, "commit", txn=child)["ok"]
        assert run(session, "commit", txn=txn)["ok"]
        for name in (txn, child):
            response = run(session, "read", txn=name, object="r")
            assert (
                response["error"]["code"] == proto.ERR_UNKNOWN_TXN
            )

    def test_abort_is_idempotent(self, session):
        txn = begin(session)
        assert run(session, "abort", txn=txn)["ok"]
        again = run(session, "abort", txn=txn)
        assert again["ok"] and again["already_finished"]
        # Aborting a name that never existed is also just "done".
        never = run(session, "abort", txn=[404])
        assert never["ok"] and never["already_finished"]

    def test_responses_echo_request_ids(self, session):
        response = run(session, "begin", request_id=12345)
        assert response["id"] == 12345


class TestWoundTranslation:
    def test_wound_between_calls_reads_as_txn_aborted(self, facade):
        older = Session(facade, conn_id=0, op_timeout=0.5)
        younger = Session(facade, conn_id=1, op_timeout=0.5)
        victim_txn = begin(older)  # begun first => older
        victim, aggressor = younger, older
        txn = begin(victim)
        assert txn != victim_txn
        # The victim takes the lock, then the older transaction's
        # request wounds it (wound-wait) and wins the lock.
        assert run(victim, "write", txn=txn, object="r", value=1)["ok"]
        assert run(
            aggressor, "write", txn=victim_txn, object="r", value=2
        )["ok"]
        # The victim's next op must surface the wound as the
        # *retryable* txn_aborted -- not invalid_state.
        response = run(victim, "read", txn=txn, object="r")
        assert response["error"]["code"] == proto.ERR_TXN_ABORTED
        assert response["error"]["retryable"] is True
        # ... and the dead tree is retired from the session.
        response = run(victim, "read", txn=txn, object="r")
        assert response["error"]["code"] == proto.ERR_UNKNOWN_TXN
        # An abort of the dead tree is still an idempotent ok.
        response = run(victim, "abort", txn=txn)
        assert response["ok"] and response["already_finished"]

    def test_wound_at_commit_reads_as_txn_aborted(self, facade):
        older = Session(facade, conn_id=0, op_timeout=0.5)
        younger = Session(facade, conn_id=1, op_timeout=0.5)
        victim_txn = begin(older)
        txn = begin(younger)
        assert run(younger, "write", txn=txn, object="r", value=1)["ok"]
        assert run(
            older, "write", txn=victim_txn, object="r", value=2
        )["ok"]
        response = run(younger, "commit", txn=txn)
        assert response["error"]["code"] == proto.ERR_TXN_ABORTED


class TestOrphanCleanup:
    def test_abort_orphans_kills_owned_trees(self, facade):
        session = Session(facade, conn_id=0)
        txn = begin(session)
        child = run(session, "child", txn=txn)["txn"]
        run(session, "write", txn=child, object="r", value=1)
        assert session.abort_orphans() == 1
        assert session.handles == {}
        # The lock is gone: a fresh transaction writes immediately.
        other = Session(facade, conn_id=1, op_timeout=0.2)
        txn2 = begin(other)
        assert run(other, "write", txn=txn2, object="r", value=2)["ok"]

    def test_abort_orphans_counts_trees_not_handles(self, facade):
        session = Session(facade, conn_id=0)
        first = begin(session)
        second = begin(session)
        run(session, "child", txn=first)
        assert session.owned_tops() == [
            tuple(first), tuple(second)
        ]
        assert session.abort_orphans() == 2

    def test_abort_orphans_skips_finished_trees(self, facade):
        session = Session(facade, conn_id=0)
        txn = begin(session)
        run(session, "commit", txn=txn)
        assert session.abort_orphans() == 0
