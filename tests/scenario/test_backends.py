"""Cross-backend contract: one compiled scenario, four drivers.

The headline property (ISSUE acceptance): the sim and threadsafe
backends execute the *same* logical operation stream for the same
spec + seed -- their digests are equal and every transaction commits
eventually.  The serve driver is exercised end to end against an
in-process :class:`ServerThread`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenario import (
    ScenarioError,
    build_store,
    compile_scenario,
    driver_names,
    get_driver,
    library_names,
    load_library_scenario,
    load_scenario_text,
)

SMALL_TOML = """
name = "small"
transactions = 16

[arrival]
process = "closed"
clients = 4

[[population]]
name = "acct"
kind = "bank"
count = 6
zipf_skew = 0.8

[[population]]
name = "tally"
kind = "counter"
count = 2

[[class]]
name = "move"
weight = 3.0

[[class.level]]
fanout = 2
accesses = 1

[[class.level]]
accesses = 2
fail_prob = 0.1
retries = 2

[[class]]
name = "check"
weight = 1.0
population = "tally"

[[class.level]]
accesses = 3
read_fraction = 1.0
"""

SPEC = load_scenario_text(SMALL_TOML)


class TestRegistry:
    def test_driver_names(self):
        assert driver_names() == [
            "dist",
            "serve",
            "sharded",
            "sim",
            "threadsafe",
        ]

    def test_unknown_backend(self):
        with pytest.raises(ScenarioError, match="unknown backend"):
            get_driver("mainframe")

    def test_serve_requires_port(self):
        compiled = compile_scenario(SPEC, 0)
        with pytest.raises(ScenarioError, match="port"):
            get_driver("serve").run(compiled)


class TestSimDriver:
    def test_all_commit(self):
        result = get_driver("sim").run(compile_scenario(SPEC, 3))
        assert result.backend == "sim"
        assert result.committed == SPEC.transactions
        assert result.aborted == 0
        assert result.ops > 0
        assert result.makespan > 0
        assert len(result.latencies) == result.committed

    def test_row_and_render(self):
        result = get_driver("sim").run(compile_scenario(SPEC, 3))
        row = result.row()
        assert row["scenario"] == "small"
        assert row["digest"] == result.digest[:16]
        assert "small" in result.render()

    def test_sim_row_keeps_three_decimals(self):
        result = get_driver("sim").run(compile_scenario(SPEC, 3))
        row = result.row()
        assert row["p50_latency"] == round(result.latency(0.50), 3) >= 1.0
        assert row["p95_latency"] == round(result.latency(0.95), 3)

    def test_scheme_is_threaded_through(self):
        serial = get_driver("sim").run(
            compile_scenario(SPEC, 3), scheme="serial"
        )
        assert serial.scheme == "serial"
        assert serial.committed == SPEC.transactions


class TestCrossBackendDigest:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sim_threadsafe_digest_identical(self, seed):
        compiled = compile_scenario(SPEC, seed)
        sim = get_driver("sim").run(compiled)
        safe = get_driver("threadsafe").run(compiled)
        assert sim.digest == safe.digest == compiled.digest()
        assert sim.committed == safe.committed == SPEC.transactions
        assert safe.aborted == 0

    def test_wall_clock_row_keeps_its_latencies(self):
        # Seconds per transaction are ~1e-4: three decimals read 0.0.
        safe = get_driver("threadsafe").run(compile_scenario(SPEC, 0))
        row = safe.row()
        assert 0.0 < row["p50_latency"] <= row["p95_latency"] < 1.0
        assert row["p50_latency"] == float(
            "%.3g" % safe.latency(0.50)
        )

    def test_sim_dist_digest_identical(self):
        compiled = compile_scenario(SPEC, 5)
        sim = get_driver("sim").run(compiled)
        dist = get_driver("dist").run(compiled, sites=3)
        assert sim.digest == dist.digest
        assert dist.committed == SPEC.transactions
        assert dist.extras["sites"] == 3

    @settings(
        max_examples=5,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_digest_equality_is_seed_independent(self, seed):
        compiled = compile_scenario(SPEC, seed, transactions=6)
        sim = get_driver("sim").run(compiled)
        safe = get_driver("threadsafe").run(compiled)
        assert sim.digest == safe.digest


class TestThreadSafeDriver:
    def test_all_commit_under_contention(self):
        compiled = compile_scenario(SPEC, 11)
        result = get_driver("threadsafe").run(compiled)
        assert result.committed == SPEC.transactions
        assert result.aborted == 0
        assert result.extras["workers"] == SPEC.arrival.clients
        assert result.extras["engine"]["commits"] >= SPEC.transactions

    def test_flat_2pl_conserves_transactions(self):
        """flat-2pl may exhaust retry budgets where moss-rw's lock
        inheritance succeeds -- but every transaction must still be
        accounted for as committed or aborted."""
        compiled = compile_scenario(SPEC, 11)
        result = get_driver("threadsafe").run(
            compiled, scheme="flat-2pl"
        )
        assert (
            result.committed + result.aborted == SPEC.transactions
        )
        assert result.committed > 0


class TestServeDriver:
    @pytest.fixture()
    def server(self):
        from repro.serve import ServeConfig, TransactionServer

        server = TransactionServer(
            build_store(SPEC),
            scheme="moss-rw",
            config=ServeConfig(host="127.0.0.1", port=0),
        )
        handle = server.start_in_thread()
        try:
            yield handle.address
        finally:
            handle.stop()

    def test_end_to_end(self, server):
        host, port = server
        compiled = compile_scenario(SPEC, 2, transactions=8)
        result = get_driver("serve").run(
            compiled, host=host, port=port, pace=False
        )
        assert result.backend == "serve"
        assert result.committed == 8
        assert result.aborted == 0
        assert result.digest == compiled.digest()

    def test_probe_rejects_wrong_store(self, server):
        host, port = server
        other = load_scenario_text(
            SMALL_TOML.replace('name = "acct"', 'name = "zzz"')
        )
        compiled = compile_scenario(other, 0, transactions=2)
        with pytest.raises(ScenarioError, match="does not serve"):
            get_driver("serve").run(
                compiled, host=host, port=port, pace=False
            )


class TestLibrary:
    def test_catalogue(self):
        assert library_names() == [
            "bank",
            "inventory",
            "social-feed",
            "ticketing",
        ]

    def test_unknown_library_scenario(self):
        with pytest.raises(ScenarioError, match="no library scenario"):
            load_library_scenario("casino")

    @pytest.mark.parametrize("name", library_names())
    def test_each_compiles_and_runs_on_sim(self, name):
        spec = load_library_scenario(name)
        compiled = compile_scenario(spec, 1, transactions=6)
        result = get_driver("sim").run(compiled)
        assert result.committed == 6
        assert result.digest == compiled.digest()
