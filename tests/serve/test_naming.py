"""One naming rule on every backend the service fronts.

The paper names a transaction by its path in the tree, and every
access is a child (a leaf) of the transaction that issued it: a node's
next child is ``parent + (slot,)``, where the slot counts the children
begun plus the accesses *granted* on that node.  A denied access
claims no slot.  :class:`~repro.serve.client.SyncClient` predicts
child names by this rule, so every engine it can reach must keep it:
the bare engine, the facade under each scheme, the sharded
coordinator, and the wire client in front of a plain, an MVTO and a
sharded server.
"""

import pytest

from repro.adt import IntRegister
from repro.engine import Engine
from repro.engine.threadsafe import ThreadSafeEngine
from repro.errors import LockDenied
from repro.serve import protocol as proto
from repro.serve.client import ServeError, SyncClient
from repro.serve.server import ServeConfig, TransactionServer
from repro.shard import ShardedEngine

#: Lock waits end quickly: the plan's one denial is meant to time out.
WAIT = 0.05
#: The children the plan begins, relative to its top: after a read and
#: a write of the top, a child that writes and nests one, a denied
#: read in that child, and one more child of each.
EXPECTED = [(2,), (2, 1), (2, 2), (3,)]


def _specs():
    return [IntRegister(name) for name in ("x", "y", "z")]


def _plan(begin_top, perform):
    """Run the plan; returns the names of the children it begins."""
    blocker = begin_top()  # older: the plan's tree waits, never wounds
    perform(blocker, "y", IntRegister.write(9))
    top = begin_top()
    perform(top, "x", IntRegister.read())
    perform(top, "x", IntRegister.write(1))
    child = top.begin_child()
    perform(child, "z", IntRegister.write(2))
    nested = child.begin_child()
    with pytest.raises((LockDenied, ServeError)) as excinfo:
        perform(child, "y", IntRegister.read())
    if excinfo.type is ServeError:
        assert excinfo.value.code in (
            proto.ERR_LOCK_DENIED, proto.ERR_RETRY_LATER
        )
    after = child.begin_child()
    sibling = top.begin_child()
    top.abort()  # awaited: the held children's replies are checked
    blocker.abort()
    return [
        handle.name[1:] for handle in (child, nested, after, sibling)
    ]


def _facade_perform(handle, object_name, operation):
    return handle.perform(object_name, operation, timeout=WAIT)


def test_bare_engine():
    engine = Engine(_specs())
    names = _plan(
        engine.begin_top,
        lambda txn, name, operation: txn.perform(name, operation),
    )
    assert names == EXPECTED


@pytest.mark.parametrize(
    "scheme", ["moss-rw", "exclusive", "flat-2pl", "mvto"]
)
def test_facade(scheme):
    facade = ThreadSafeEngine(_specs(), policy=scheme)
    assert _plan(facade.begin_top, _facade_perform) == EXPECTED


def test_sharded_engine():
    with ShardedEngine(_specs(), workers=2) as engine:
        assert _plan(engine.begin_top, _facade_perform) == EXPECTED


def _served(server):
    handle = server.start_in_thread()
    try:
        with SyncClient(*server.address) as client:
            return _plan(client.begin_top, _facade_perform)
    finally:
        handle.stop()


@pytest.mark.parametrize("scheme", ["moss-rw", "mvto"])
def test_wire_client(scheme):
    server = TransactionServer(
        _specs(), scheme=scheme, config=ServeConfig(op_timeout=WAIT)
    )
    assert _served(server) == EXPECTED


def test_wire_client_on_a_sharded_server():
    with ShardedEngine(_specs(), workers=2) as engine:
        server = TransactionServer(
            [], config=ServeConfig(op_timeout=WAIT), facade=engine
        )
        assert _served(server) == EXPECTED
