"""Every live backend checks that what it executed matches the plan.

The live backends (threadsafe, sharded, serve) share one client loop,
so the executed-matches-plan check -- what ties a wall-clock run to
the compiled digest -- runs on each of them, the ``serve`` backend
included.
"""

import dataclasses

import pytest

from repro.scenario import (
    build_store,
    compile_scenario,
    get_driver,
    load_library_scenario,
)
from repro.scenario import backends
from repro.scenario.programs import AccessOp

SPEC = load_library_scenario("bank")


@pytest.fixture()
def server():
    from repro.serve import ServeConfig, TransactionServer

    server = TransactionServer(
        build_store(SPEC),
        config=ServeConfig(host="127.0.0.1", port=0),
    )
    handle = server.start_in_thread()
    try:
        yield handle.address
    finally:
        handle.stop()


@pytest.fixture()
def drop_one_access(monkeypatch):
    """Every attempt at one fixed tree skips its body's first access.

    The tree is the first flat one (accesses only), so neither a
    wound-retry, which re-runs the same lossy body, nor a child retry,
    which re-runs accesses of its own, can make up the shortfall.
    Yields the compiled run and the accesses dropped so far.
    """
    compiled = compile_scenario(SPEC, 4, transactions=6)
    body = next(
        program.body
        for program in compiled.programs
        if all(isinstance(step, AccessOp) for step in program.body.steps)
    )
    walk = backends._run_plan
    dropped = []

    def lossy(port, block, fail_rng, timeout=None):
        if block is body:
            dropped.append(block.steps[0])
            block = dataclasses.replace(block, steps=block.steps[1:])
        return walk(port, block, fail_rng, timeout)

    monkeypatch.setattr(backends, "_run_plan", lossy)
    return compiled, dropped


def test_serve_run_matches_its_plan(server):
    host, port = server
    compiled = compile_scenario(SPEC, 4, transactions=6)
    result = get_driver("serve").run(
        compiled, host=host, port=port, pace=False
    )
    assert result.committed == 6
    assert result.ops >= sum(p.access_count() for p in compiled.programs)


def test_serve_run_that_drops_an_access_raises(server, drop_one_access):
    host, port = server
    compiled, dropped = drop_one_access
    with pytest.raises(AssertionError, match="fewer accesses"):
        get_driver("serve").run(
            compiled, host=host, port=port, pace=False
        )
    assert dropped


def test_threadsafe_run_that_drops_an_access_raises(drop_one_access):
    compiled, dropped = drop_one_access
    with pytest.raises(AssertionError, match="fewer accesses"):
        get_driver("threadsafe").run(compiled)
    assert dropped
